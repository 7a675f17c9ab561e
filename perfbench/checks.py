"""Output check of one benchmark run against references the package does not share."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from oracle import Model, dense_theory, empirical_msd, ground_truth
import spec

REFERENCE = Path(__file__).with_name("reference.json")


def model_from_config(cfg) -> Model:
    sig, alg = cfg["signal"], cfg["algorithm"]
    if sig["profile"] != "pulsed" or sig["phase"] != 0 or sig["phases"] is not None:
        raise ValueError("the oracle covers the in-phase pulsed profile only")
    return Model(A=np.asarray(cfg.build_combiner().A), noise_var=cfg.noise_variances(),
                 period=sig["period"], duty_cycle=sig["duty_cycle"],
                 v_low=sig["v_low"], v_high=sig["v_high"], rho=sig["rho"],
                 taps=sig["taps"], lam=alg["forgetting_factor"], delta=alg["delta"])


def max_rel(actual, expected) -> float:
    """Largest relative difference; NaN (which fails every tolerance) if any is NaN."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    if actual.shape != expected.shape:
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(actual - expected) / np.abs(expected)
    return float(np.max(np.where(actual == expected, 0.0, rel)))


def db(values) -> np.ndarray:
    return 10.0 * np.log10(np.asarray(values, float))


def cooperation_gain_db(traj) -> float:
    """RLS minus DRLS MSD in dB over the last 500 iterations (half, if shorter)."""
    emp = traj.msd_empirical
    window = min(500, traj.iterations // 2)
    return float(db(emp["rls"][-window:]).mean() - db(emp["drls"][-window:]).mean())


def check_run(workload: spec.Workload, cfg, traj, out_dir: Path,
              master_seed: int) -> tuple[list[str], dict]:
    """Failures (empty when the run is correct) and the measured deviations."""
    failures: list[str] = []
    info: dict = {}

    def expect(name, value, ok):
        info[name] = value
        if not ok:
            failures.append(f"{name} = {value!r}")

    def expect_rel(name, actual, expected, rtol):
        err = max_rel(actual, expected)
        expect(name, err, err <= rtol)

    ref = json.loads(REFERENCE.read_text())[workload.network]
    model = model_from_config(cfg)
    expect_rel("combiner_rel_err", model.A, ref["A"], spec.INPUT_RTOL)
    expect_rel("noise_var_rel_err", model.noise_var, ref["noise_var"], spec.INPUT_RTOL)
    w_star = ground_truth(master_seed, workload.runs, model.taps)
    expect_rel("w_star_rel_err", traj.w_star, w_star, spec.INPUT_RTOL)
    excluded = sum(len(v) for v in traj.excluded_runs.values())
    expect("runs_excluded", excluded, excluded == 0)

    emp = empirical_msd(model, master_seed, workload.runs, workload.iterations)
    for algo, curve in emp.items():
        expect_rel(f"empirical_{algo}_rel_err", traj.msd_empirical[algo], curve,
                   spec.EMPIRICAL_RTOL)

    if workload.entry == "run_experiment":
        msd, err_norm = dense_theory(model, w_star, workload.iterations)
        expect_rel("theory_msd_rel_err", traj.msd_theory, msd, spec.THEORY_RTOL)
        expect_rel("theory_mean_err_rel_err", traj.mean_err_norm_theory, err_norm,
                   spec.THEORY_RTOL)
        dev = _check_outputs(out_dir, workload, msd, emp, expect)
        # harness.compare_theory_empirical as run_experiment reports it
        info["theory_gap_db"] = dev["steady_mean_abs_db"]
        info["transient_gap_db"] = dev["transient_mean_abs_db"]
        if workload.gate:
            expect("steady_gate", dev["steady_mean_abs_db"] <= spec.STEADY_TOL_DB,
                   dev["steady_mean_abs_db"] <= spec.STEADY_TOL_DB)
            # Reported, not enforced: see README.md, "Desk acceptance gate".
            info["transient_gate"] = dev["transient_mean_abs_db"] <= spec.TRANSIENT_TOL_DB
            gain = cooperation_gain_db(traj)
            expect("cooperation_gain_db", gain, gain >= spec.COOPERATION_GAIN_DB)
    return failures, info


def _check_outputs(out_dir: Path, workload, msd_theory, emp, expect) -> dict:
    """The written CSV carries the oracle's curves; returns the deviation report."""
    prefix = workload.network  # the config templates use it as output prefix
    with (out_dir / f"{prefix}_trajectory.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    expect("csv_rows", len(rows), len(rows) == workload.iterations)
    if len(rows) == workload.iterations:
        def col(name):
            return np.array([float(r[name]) for r in rows])
        err = float(np.max(np.abs(col("msd_drls_theory_db") - db(msd_theory))))
        expect("csv_theory_db_abs_err", err, err <= spec.CSV_ATOL_DB)
        for algo, curve in emp.items():
            err = float(np.max(np.abs(col(f"msd_{algo}_empirical_db") - db(curve))))
            expect(f"csv_{algo}_db_abs_err", err, err <= spec.CSV_ATOL_DB)
    plot = out_dir / f"{prefix}_plot.py"
    expect("plot_script_written", plot.is_file(), plot.is_file())
    meta = json.loads((out_dir / f"{prefix}_metadata.json").read_text())
    return meta["deviation_report_db"]
