"""Experiment configuration: sectioned key/value files with strict schema.

Every key has a documented default; unknown sections or keys are rejected
outright so typos cannot silently change an experiment.  A config is
validated by building the objects `run` builds from it, so each input
rule lives in the constructor that needs it.  The fully resolved
configuration (defaults expanded) is echoed into every output so runs
are exactly replayable.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .harness import EnsembleSpec
from .network import (CombinationMatrix, build_combination_matrix, build_topology,
                      draw_noise_variances)
from .signals import ColoredProcessParams, sigma_table


class ConfigError(ValueError):
    """Invalid experiment configuration, with path-to-field diagnostics."""


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _finite(s: str) -> float:
    v = float(s)
    if not np.isfinite(v):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return v


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
    rows = [[_finite(v) for v in row.split(",")] for row in s.split(";") if row.strip()]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows differ in length")
    return rows


# section -> key -> (parser, default-as-string or None for "unset")
SCHEMA = {
    "network": {
        "nodes": (int, "10"),
        "topology": (str, "random_geometric"),
        "radius": (_finite, "0.45"),
        "topology_seed": (int, "7"),
        "edges": (_parse_edges, None),
        "combination": (str, "uniform"),
        "combination_rows": (_parse_matrix, None),
        "noise_variances": (lambda s: _parse_list(s, _finite), None),
        "noise_seed": (int, "1234"),
        "noise_low": (_finite, "0.01"),
        "noise_high": (_finite, "0.1"),
    },
    "signal": {
        "profile": (str, "pulsed"),
        "period": (int, "32"),
        "duty_cycle": (_finite, "0.5"),
        "v_low": (_finite, "2e-3"),
        "v_high": (_finite, "2.0"),
        "level": (_finite, "1.0"),
        "mod_depth": (_finite, "0.5"),
        "phase": (int, "0"),
        "phases": (lambda s: _parse_list(s, int), None),
        "rho": (_finite, "0.8"),
        "taps": (int, "8"),
    },
    "algorithm": {
        "forgetting_factor": (_finite, "0.995"),
        "delta": (_finite, "0.01"),
        "algorithms": (lambda s: _parse_list(s, str), "rls, drls"),
        "guard": (_finite, "1e12"),
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

    def build_combiner(self) -> CombinationMatrix:
        net = self.values["network"]
        adjacency = build_topology(net["topology"], net["nodes"], radius=net["radius"],
                                   seed=net["topology_seed"], edges=net["edges"])
        if net["combination_rows"] is not None:
            A = np.asarray(net["combination_rows"], dtype=float)
            if A.shape != (net["nodes"], net["nodes"]):
                raise ConfigError("network.combination_rows: wrong shape "
                                  f"{A.shape}, expected ({net['nodes']}, {net['nodes']})")
            return CombinationMatrix(A, adjacency=adjacency)
        return build_combination_matrix(adjacency, net["combination"])

    def noise_variances(self) -> np.ndarray:
        net = self.values["network"]
        if net["noise_variances"] is not None:
            v = np.asarray(net["noise_variances"], dtype=float)
            if v.shape != (net["nodes"],):
                raise ConfigError("network.noise_variances: need one variance per node")
            if (v <= 0).any():
                raise ConfigError("network.noise_variances: all entries must be positive")
            return v
        return draw_noise_variances(net["nodes"], net["noise_low"],
                                    net["noise_high"], net["noise_seed"])

    def build_profiles(self) -> np.ndarray:
        """(K, T) table of sigma_x(n), n = 0..T-1; row k has phase `phases[k]`, or `phase`."""
        sig = self.values["signal"]
        K = self.values["network"]["nodes"]
        phases = [sig["phase"]] * K if sig["phases"] is None else sig["phases"]
        if len(phases) != K:
            raise ConfigError("signal.phases: need one phase per node")
        return sigma_table(sig["profile"], sig["period"], phases,
                           duty_cycle=sig["duty_cycle"], v_low=sig["v_low"],
                           v_high=sig["v_high"], level=sig["level"],
                           mod_depth=sig["mod_depth"])

    def process_params(self) -> ColoredProcessParams:
        sig = self.values["signal"]
        return ColoredProcessParams(rho=sig["rho"], length=sig["taps"])

    def ensemble_spec(self) -> EnsembleSpec:
        ens = self.values["ensemble"]
        return EnsembleSpec(runs=ens["runs"], iterations=ens["iterations"],
                            master_seed=ens["master_seed"],
                            algorithms=tuple(self.values["algorithm"]["algorithms"]))


def _validate(cfg: ExperimentConfig) -> None:
    alg = cfg.values["algorithm"]

    def fail(path, msg):
        raise ConfigError(f"{path}: {msg}")

    def build(path, make):
        # validation builds what run builds, with the rules of the builder
        # or constructor, so check rejects exactly what run rejects
        try:
            make()
        except ConfigError:
            raise
        except ValueError as exc:
            fail(path, str(exc))

    build("network", cfg.build_combiner)
    build("network", cfg.noise_variances)
    build("signal", cfg.build_profiles)
    build("signal", cfg.process_params)
    build("ensemble", cfg.ensemble_spec)

    # no object owns these: lam and delta enter the recursions unchecked,
    # the guard and the snapshot stride are read by the harness loop alone,
    # and the prefix names files inside the output directory
    if not 0.9 <= alg["forgetting_factor"] < 1:
        fail("algorithm.forgetting_factor", "must lie in [0.9, 1)")
    if alg["delta"] <= 0:
        fail("algorithm.delta", "must be positive")
    if alg["guard"] <= 0:
        fail("algorithm.guard", "must be positive")
    out = cfg.values["output"]
    if out["snapshot_every"] < 0:
        fail("output.snapshot_every", "must be >= 0")
    if any(sep and sep in out["prefix"] for sep in ("/", os.sep, os.altsep)):
        fail("output.prefix", f"must be a file name, not a path: {out['prefix']!r}")


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
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return resolve_config(_sections(parser), source=str(path))


def with_overrides(cfg: ExperimentConfig, overrides: dict[str, str],
                   source: str = "<overrides>") -> ExperimentConfig:
    """A new config: cfg with each dotted `section.key` set from a raw string.

    cfg is written in its own file format (config_to_text) and read back,
    so edges, lists and matrices keep the text form the parser expects; a
    value is stripped as in a file, and the result is validated in full.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(config_to_text(cfg))
    raw = _sections(parser)
    for dotted, value in overrides.items():
        section, _, key = dotted.partition(".")
        if not key:
            raise ConfigError(f"override must be section.key, got {dotted!r}")
        raw.setdefault(section, {})[key] = value.strip()
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
