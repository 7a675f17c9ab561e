"""Command-line entry point: run, sweep, and check experiment configs.

Exit codes: 0 success, 1 validation failure, 2 numeric failure,
3 acceptance-threshold breach in `run --check-acceptance` mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, config_to_text, parse_config,
                     with_overrides)
from .harness import (ExcludedRunThresholdError, Trajectory,
                      compare_theory_empirical, run_ensemble, to_db)
from .theory import TheoryError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_ACCEPTANCE = 3

# acceptance criterion 1's gate on compare_theory_empirical's mean deviations, dB
STEADY_TOL_DB = 1.0
TRANSIENT_TOL_DB = 2.0

CSV_COLUMNS = ("iteration", "msd_rls_empirical_db", "msd_drls_empirical_db",
               "msd_drls_theory_db", "mean_err_norm_theory")


def emit_csv(traj: Trajectory, path) -> None:
    """Write the per-iteration trajectory with the fixed column contract."""
    cols = {f"msd_{a}_empirical_db": to_db(c) for a, c in traj.msd_empirical.items()}
    if traj.msd_theory is not None:
        cols["msd_drls_theory_db"] = to_db(traj.msd_theory)
    cols["mean_err_norm_theory"] = traj.mean_err_norm_theory
    lines = [",".join(CSV_COLUMNS)]
    for n in range(traj.iterations):
        row = [str(n + 1)]
        for name in CSV_COLUMNS[1:]:
            col = cols.get(name)
            row.append(f"{col[n]:.12g}" if col is not None else "")
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def run_config(cfg: ExperimentConfig) -> Trajectory:
    """The trajectory `drlsnet run` computes for a resolved config, before it
    writes anything."""
    alg = cfg["algorithm"]
    return run_ensemble(cfg.build_combiner(), cfg.noise_variances(), cfg.build_profiles(),
                        cfg.process_params(), alg["forgetting_factor"], alg["delta"],
                        cfg.ensemble_spec(), guard=alg["guard"],
                        snapshot_every=cfg["output"]["snapshot_every"])


def sweep_configs(cfg: ExperimentConfig, param: str, values: str,
                  source: str) -> list[ExperimentConfig]:
    """One resolved config per comma-separated value of the dotted key
    `param`, prefixed `<prefix>_<key>=<value>`.  Every value is resolved
    before the caller runs any, so a bad one raises ConfigError and writes
    nothing."""
    cfgs = []
    for value in values.split(","):
        value = value.strip()
        label = f"{source} [{param}={value}]"
        swept = with_overrides(cfg, {param: value}, source=label)
        # read after the swept value, which may be the prefix itself
        prefix = f"{swept['output']['prefix']}_{param.split('.')[-1]}={value}"
        cfgs.append(with_overrides(swept, {"output.prefix": prefix}, source=label))
    return cfgs


def run_experiment(cfg: ExperimentConfig, out_dir=None, *,
                   check_acceptance: bool = False) -> int:
    """Execute one experiment and write trajectory CSV + metadata JSON under
    output.directory; `out_dir` overrides it, as `--out` does."""
    if out_dir is not None:
        cfg = with_overrides(cfg, {"output.directory": str(out_dir)})
    out = cfg.values["output"]
    directory = Path(out["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    prefix = out["prefix"]
    ensemble = cfg.values["ensemble"]

    started = time.perf_counter()
    traj = run_config(cfg)
    runtime = time.perf_counter() - started

    csv_path = directory / f"{prefix}_trajectory.csv"
    emit_csv(traj, csv_path)

    report = compare_theory_empirical(traj)
    metadata = {
        "version": __version__,
        "resolved_config": cfg.values,
        "resolved_config_text": config_to_text(cfg),
        "master_seed": ensemble["master_seed"],
        "runtime_s": runtime,
        "runs_effective": {a: ensemble["runs"] - len(v)
                           for a, v in traj.excluded_runs.items()},
        "excluded_runs": {a: [list(t) for t in v]
                          for a, v in traj.excluded_runs.items()},
        "deviation_report_db": report,
        "outputs": {"trajectory_csv": str(csv_path)},
    }
    if traj.snapshots:
        snap_path = directory / f"{prefix}_snapshots.npz"
        np.savez(snap_path, **{
            f"{a}_{key}": np.asarray(val)
            for a, snap in traj.snapshots.items()
            for key, val in snap.items()})
        metadata["outputs"]["snapshots_npz"] = str(snap_path)
    if out["plot_script"]:
        plot_path = directory / f"{prefix}_plot.py"
        plot_path.write_text(_plot_script(csv_path.name), encoding="utf-8")
        metadata["outputs"]["plot_script"] = str(plot_path)
    (directory / f"{prefix}_metadata.json").write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n")

    if check_acceptance:
        if report is None:
            print("acceptance check needs both theory and empirical drls curves",
                  file=sys.stderr)
            return EXIT_ACCEPTANCE
        ok = (report["steady_mean_abs_db"] <= STEADY_TOL_DB
              and report["transient_mean_abs_db"] <= TRANSIENT_TOL_DB)
        print(f"theory/empirical deviation: steady {report['steady_mean_abs_db']:.3f} dB "
              f"(tol {STEADY_TOL_DB}), transient {report['transient_mean_abs_db']:.3f} dB "
              f"(tol {TRANSIENT_TOL_DB}) -> {'PASS' if ok else 'FAIL'}")
        if not ok:
            return EXIT_ACCEPTANCE
    return EXIT_OK


def _plot_script(csv_name: str) -> str:
    # the name as a Python string literal: JSON's escapes are Python's too
    literal = json.dumps(csv_name, ensure_ascii=False)
    return f'''#!/usr/bin/env python3
"""Plot the MSD trajectories from {literal[1:-1]} (generated file)."""
import csv
from pathlib import Path
import matplotlib.pyplot as plt

rows = list(csv.DictReader(Path(__file__).with_name({literal}).open()))
it = [int(r["iteration"]) for r in rows]
for col, style in [("msd_rls_empirical_db", "-"),
                   ("msd_drls_empirical_db", "-"),
                   ("msd_drls_theory_db", "--")]:
    vals = [(i, float(r[col])) for i, r in zip(it, rows) if r[col]]
    if vals:
        plt.plot([v[0] for v in vals], [v[1] for v in vals], style, label=col)
plt.xlabel("iteration n")
plt.ylabel("MSD (dB)")
plt.legend()
plt.grid(True, alpha=0.4)
plt.tight_layout()
plt.savefig(Path(__file__).with_suffix(".png"), dpi=150)
print("wrote", Path(__file__).with_suffix(".png"))
'''


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors: exit 1, since 2 means numeric failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    ap = _Parser(
        prog="drlsnet",
        description="Diffusion RLS transient analysis: simulate, iterate the "
                    "theoretical models, and compare.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="set output.directory")
    p_run.add_argument("--check-acceptance", action="store_true",
                       help=f"exit 3 if the deviation exceeds {STEADY_TOL_DB} dB steady "
                            f"or {TRANSIENT_TOL_DB} dB transient (criterion 1)")

    p_sweep = sub.add_parser("sweep", help="run one experiment per value of a parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dotted key, e.g. signal.period")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", help="set output.directory, over a swept value too")

    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config")

    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "check":
            print(config_to_text(cfg))
            return EXIT_OK
        if args.command == "run":
            return run_experiment(cfg, args.out, check_acceptance=args.check_acceptance)
        for swept in sweep_configs(cfg, args.param, args.values, args.config):
            run_experiment(swept, args.out)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ExcludedRunThresholdError, TheoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
