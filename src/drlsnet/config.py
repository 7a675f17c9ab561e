"""Experiment configuration: sectioned key/value files with strict schema.

Every key has a documented default; unknown sections or keys are rejected
outright so typos cannot silently change an experiment.  The fully
resolved configuration (defaults expanded) is echoed into every output so
runs are exactly replayable.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .harness import ALGORITHMS, EnsembleSpec
from .network import (CombinationMatrix, Topology, build_combination_matrix,
                      build_topology, draw_noise_variances)
from .signals import ColoredProcessParams, CyclostationaryProfile


class ConfigError(ValueError):
    """Invalid experiment configuration, with path-to-field diagnostics."""


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_list(s: str, conv):
    s = s.strip()
    return [conv(tok.strip()) for tok in s.split(",") if tok.strip()] if s else []


def _parse_edges(s: str) -> list[tuple[int, int]]:
    edges = []
    for tok in s.split(","):
        tok = tok.strip()
        if not tok:
            continue
        a, _, b = tok.partition("-")
        edges.append((int(a), int(b)))
    return edges


def _parse_matrix(s: str) -> list[list[float]]:
    return [[float(v) for v in row.split(",")] for row in s.split(";") if row.strip()]


# section -> key -> (parser, default-as-string or None for "unset")
SCHEMA = {
    "network": {
        "nodes": (int, "10"),
        "topology": (str, "random_geometric"),
        "radius": (float, "0.45"),
        "topology_seed": (int, "7"),
        "edges": (_parse_edges, None),
        "combination": (str, "uniform"),
        "combination_rows": (_parse_matrix, None),
        "noise_variances": (lambda s: _parse_list(s, float), None),
        "noise_seed": (int, "1234"),
        "noise_low": (float, "0.01"),
        "noise_high": (float, "0.1"),
    },
    "signal": {
        "profile": (str, "pulsed"),
        "period": (int, "32"),
        "duty_cycle": (float, "0.5"),
        "v_low": (float, "2e-3"),
        "v_high": (float, "2.0"),
        "level": (float, "1.0"),
        "mod_depth": (float, "0.5"),
        "phase": (int, "0"),
        "phases": (lambda s: _parse_list(s, int), None),
        "rho": (float, "0.8"),
        "taps": (int, "8"),
    },
    "algorithm": {
        "forgetting_factor": (float, "0.995"),
        "delta": (float, "0.01"),
        "algorithms": (lambda s: _parse_list(s, str), "rls, drls"),
        "guard": (float, "1e12"),
    },
    "ensemble": {
        "runs": (int, "200"),
        "iterations": (int, "3000"),
        "master_seed": (int, "20240801"),
    },
    "output": {
        "directory": (str, "results"),
        "prefix": (str, "experiment"),
        "snapshot_every": (int, "0"),
        "plot_script": (_parse_bool, "true"),
    },
}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment configuration."""

    values: dict[str, dict] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    # -- builders -----------------------------------------------------

    def build_topology(self) -> Topology:
        net = self.values["network"]
        return build_topology(net["topology"], net["nodes"],
                              radius=net["radius"], seed=net["topology_seed"],
                              edges=net["edges"])

    def build_combiner(self) -> CombinationMatrix:
        net = self.values["network"]
        topo = self.build_topology()
        if net["combination_rows"] is not None:
            A = np.asarray(net["combination_rows"], dtype=float)
            if A.shape != (net["nodes"], net["nodes"]):
                raise ConfigError("network.combination_rows: wrong shape "
                                  f"{A.shape}, expected ({net['nodes']}, {net['nodes']})")
            return CombinationMatrix(A, adjacency=topo.adjacency)
        return build_combination_matrix(topo, net["combination"])

    def noise_variances(self) -> np.ndarray:
        net = self.values["network"]
        if net["noise_variances"] is not None:
            return np.asarray(net["noise_variances"], dtype=float)
        return draw_noise_variances(net["nodes"], net["noise_low"],
                                    net["noise_high"], net["noise_seed"])

    def _profile_kwargs(self) -> dict:
        sig = self.values["signal"]
        return dict(kind=sig["profile"], period=sig["period"],
                    duty_cycle=sig["duty_cycle"], v_low=sig["v_low"],
                    v_high=sig["v_high"], level=sig["level"],
                    mod_depth=sig["mod_depth"])

    def build_profiles(self):
        """Shared profile, or K node-specific ones when phases are given."""
        sig = self.values["signal"]
        kw = self._profile_kwargs()
        if sig["phases"] is not None:
            if len(sig["phases"]) != self.values["network"]["nodes"]:
                raise ConfigError("signal.phases: need one phase per node")
            return [CyclostationaryProfile(phase=p, **kw) for p in sig["phases"]]
        return CyclostationaryProfile(phase=sig["phase"], **kw)

    def process_params(self) -> ColoredProcessParams:
        sig = self.values["signal"]
        return ColoredProcessParams(rho=sig["rho"], length=sig["taps"])

    def ensemble_spec(self) -> EnsembleSpec:
        ens = self.values["ensemble"]
        return EnsembleSpec(runs=ens["runs"], iterations=ens["iterations"],
                            master_seed=ens["master_seed"],
                            algorithms=tuple(self.values["algorithm"]["algorithms"]))

    def resolved_dict(self) -> dict:
        """JSON-serializable echo of every resolved field."""
        out = {}
        for section, keys in self.values.items():
            out[section] = {}
            for key, val in keys.items():
                if isinstance(val, list) and val and isinstance(val[0], tuple):
                    val = [list(t) for t in val]
                out[section][key] = val
        return out


def _validate(cfg: ExperimentConfig) -> None:
    net, sig = cfg.values["network"], cfg.values["signal"]
    alg, ens = cfg.values["algorithm"], cfg.values["ensemble"]

    def fail(path, msg):
        raise ConfigError(f"{path}: {msg}")

    def build(path, make):
        # run builds these objects too; building them here makes check reject
        # exactly what run rejects (disconnected graphs, bad phases, A)
        try:
            make()
        except ConfigError:
            raise
        except ValueError as exc:
            fail(path, str(exc))

    if net["nodes"] < 2:
        fail("network.nodes", "must be >= 2")
    if net["topology"] not in ("ring", "random_geometric", "explicit"):
        fail("network.topology", f"unknown kind {net['topology']!r}")
    if net["combination"] not in ("uniform", "metropolis"):
        fail("network.combination", f"unknown rule {net['combination']!r}")
    if net["noise_variances"] is not None:
        if len(net["noise_variances"]) != net["nodes"]:
            fail("network.noise_variances", "need one variance per node")
        if any(v <= 0 for v in net["noise_variances"]):
            fail("network.noise_variances", "all entries must be positive")
    if not 0 < net["noise_low"] <= net["noise_high"]:
        fail("network.noise_low", "need 0 < noise_low <= noise_high")
    build("network", cfg.build_combiner)

    if sig["taps"] < 1:
        fail("signal.taps", "must be >= 1")
    if not 0 <= sig["rho"] < 1:
        fail("signal.rho", "must lie in [0, 1)")
    build("signal", cfg.build_profiles)

    if not 0.9 <= alg["forgetting_factor"] < 1:
        fail("algorithm.forgetting_factor", "must lie in [0.9, 1)")
    if alg["delta"] <= 0:
        fail("algorithm.delta", "must be positive")
    if alg["guard"] <= 0:
        fail("algorithm.guard", "must be positive")
    for a in alg["algorithms"]:
        if a not in ALGORITHMS:
            fail("algorithm.algorithms", f"unknown algorithm {a!r}")

    if ens["runs"] < 1:
        fail("ensemble.runs", "must be >= 1")
    if ens["iterations"] < 1:
        fail("ensemble.iterations", "must be >= 1")
    if cfg.values["output"]["snapshot_every"] < 0:
        fail("output.snapshot_every", "must be >= 0")


def resolve_config(raw: dict[str, dict[str, str]], source: str = "<dict>") -> ExperimentConfig:
    """Apply the schema to raw string key/values; reject unknown keys."""
    values: dict[str, dict] = {}
    for section in raw:
        if section not in SCHEMA:
            raise ConfigError(f"{section}: unknown section (in {source})")
    for section, keys in SCHEMA.items():
        raw_sec = raw.get(section, {})
        for key in raw_sec:
            if key not in keys:
                raise ConfigError(f"{section}.{key}: unknown key (in {source})")
        values[section] = {}
        for key, (conv, default) in keys.items():
            text = raw_sec.get(key, default)
            if text is None:
                values[section][key] = None
                continue
            try:
                values[section][key] = conv(text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{section}.{key}: cannot parse {text!r} ({exc})") from exc
    cfg = ExperimentConfig(values=values)
    _validate(cfg)
    return cfg


def _sections(parser: configparser.ConfigParser) -> dict[str, dict[str, str]]:
    if parser.defaults():
        raise ConfigError("top-level keys outside a section are not allowed")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def parse_config(path) -> ExperimentConfig:
    """Read and validate a sectioned key/value config file."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return resolve_config(_sections(parser), source=str(path))


def with_overrides(cfg: ExperimentConfig, overrides: dict[str, str],
                   source: str = "<overrides>") -> ExperimentConfig:
    """A new config: cfg with each dotted `section.key` set from a raw string.

    cfg is written in its own file format (config_to_text) and read back,
    so edges, lists and matrices keep the text form the parser expects; the
    result is validated in full.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(config_to_text(cfg))
    raw = _sections(parser)
    for dotted, value in overrides.items():
        section, _, key = dotted.partition(".")
        if not key:
            raise ConfigError(f"override must be section.key, got {dotted!r}")
        raw.setdefault(section, {})[key] = value
    return resolve_config(raw, source=source)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize a resolved config back to the file format."""
    lines = []
    for section, keys in cfg.values.items():
        lines.append(f"[{section}]")
        for key, val in keys.items():
            if val is None:
                continue
            if isinstance(val, list) and val and isinstance(val[0], tuple):
                val = ", ".join(f"{a}-{b}" for a, b in val)
            elif isinstance(val, list) and val and isinstance(val[0], list):
                val = "; ".join(", ".join(repr(x) for x in row) for row in val)
            elif isinstance(val, list):
                val = ", ".join(str(x) for x in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)
