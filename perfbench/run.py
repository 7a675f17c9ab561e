#!/usr/bin/env python3
"""drlsnet benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload desk_T32 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md for the
workloads, every metric and the output check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GIVEN_THREAD_ENV = {v: os.environ.get(v) for v in spec.THREAD_ENV_VARS}

# Runs in a fresh interpreter: what a `drlsnet run` user pays before iteration 1.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import drlsnet.cli
from drlsnet.config import parse_config
if not drlsnet.cli.__file__.startswith(sys.argv[2]):
    sys.exit("drlsnet imported from " + drlsnet.cli.__file__)
cfg = parse_config(sys.argv[1])
cfg.build_combiner(); cfg.noise_variances(); cfg.build_profiles()
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, help="master seed of the ensemble (>= 0)")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                    help="measuring time; experiments start while it lasts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    args = ap.parse_args(argv)
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def machine_context() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_effect": threads,
        "thread_env_given": GIVEN_THREAD_ENV,
        "thread_env_applied": {v: os.environ.get(v) for v in spec.THREAD_ENV_VARS},
    }


def fresh_setup_seconds(cfg_path: Path) -> float:
    """One set-up in a fresh interpreter; load_package has pinned its BLAS threads."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(cfg_path), str(SRC)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Experiment:
    """One workload's experiment, callable repeatedly on a parsed config."""

    def __init__(self, drlsnet, workload: spec.Workload, cfg, out_dir: Path):
        self.drlsnet, self.workload, self.cfg, self.out_dir = drlsnet, workload, cfg, out_dir
        self.captured = None
        alg = cfg["algorithm"]
        # run_ensemble's inputs are set-up, built once outside the timed call
        self.ensemble_args = (
            cfg.build_combiner(), cfg.noise_variances(), cfg.build_profiles(),
            cfg.process_params(), alg["forgetting_factor"], alg["delta"],
            cfg.ensemble_spec())

    @contextlib.contextmanager
    def capturing(self):
        """Keep the Trajectory that run_experiment computes but does not return."""
        cli = self.drlsnet.cli
        run_ensemble = cli.run_ensemble

        def capture(*args, **kwargs):
            self.captured = run_ensemble(*args, **kwargs)
            return self.captured
        cli.run_ensemble = capture
        try:
            yield self
        finally:
            cli.run_ensemble = run_ensemble

    def __call__(self):
        """(wall seconds, trajectory, failure message or None); call it while capturing."""
        dn, cfg = self.drlsnet, self.cfg
        self.captured = None
        failure = None
        started = time.perf_counter()
        try:
            if self.workload.entry == "run_experiment":
                status = dn.cli.run_experiment(cfg, out_dir=self.out_dir)
                if status != 0:
                    failure = f"run_experiment exited {status}"
            else:
                self.captured = dn.harness.run_ensemble(
                    *self.ensemble_args, guard=cfg["algorithm"]["guard"],
                    include_theory=False)
        except Exception:  # a failed experiment is counted, not fatal
            failure = traceback.format_exc()
        wall = time.perf_counter() - started
        return wall, self.captured, failure


def digest(traj) -> bytes:
    h = hashlib.sha256()
    for algo in sorted(traj.msd_empirical):
        h.update(traj.msd_empirical[algo].tobytes())
    for curve in (traj.msd_theory, traj.mean_err_norm_theory):
        if curve is not None:
            h.update(curve.tobytes())
    return h.digest()


def repeat(experiment: Experiment, tracer, seconds: float, between=None) -> list[tuple]:
    """Run experiments for `seconds` of experiment time: [(traced, wall, trajectory, failure)].

    The next experiment starts only if it is expected to end in time. With a
    tracer, experiments alternate untraced and traced, and stop after
    spec.MAX_TRACED_REPS traced ones. `between(spent)` runs after each
    experiment with the experiment time spent so far.
    """
    reps = []
    spent = 0.0
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        with tracer.patch(experiment.drlsnet) if traced else contextlib.nullcontext():
            wall, traj, failure = experiment()
        if failure:
            print(f"experiment {len(reps) + 1} failed: {failure}", file=sys.stderr)
        reps.append((traced, wall, traj, failure))
        spent += wall
        if between is not None:
            between(spent)
        if len(reps) >= (1 if tracer is None else 2) and (
                spent + statistics.median(r[1] for r in reps) > seconds
                or sum(r[0] for r in reps) >= spec.MAX_TRACED_REPS):
            return reps


def load_package():
    """Pin BLAS threads, then import drlsnet from ./src; None if it is not there."""
    if not (SRC / "drlsnet" / "__init__.py").is_file():
        print(f"no package source at {SRC}/drlsnet", file=sys.stderr)
        return None
    for var in spec.THREAD_ENV_VARS:  # before numpy is imported
        os.environ[var] = str(spec.BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import drlsnet.cli
    import drlsnet.config
    import drlsnet.harness
    import drlsnet.theory
    if not drlsnet.cli.__file__.startswith(str(SRC)):
        print(f"drlsnet imported from {drlsnet.cli.__file__}, not {SRC}", file=sys.stderr)
        return None
    return drlsnet


def main(argv=None) -> int:
    args = parse_args(argv)
    drlsnet = load_package()
    if drlsnet is None:
        return 2
    import checks
    from spans import Tracer, layer_metrics

    workload = spec.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cfg_path = out_dir / f"{workload.name}.ini"
    cfg_path.write_text(workload.config_text(args.seed, str(out_dir)))
    context = machine_context()

    # Set-up: in-process spans when tracing. Otherwise fresh interpreters,
    # spread over the run so that their median does not hang on one moment
    # of the machine's load.
    setup, setup_spans = [], []
    if args.trace:
        for _ in range(spec.SETUP_REPEATS):
            tracer = Tracer()
            with tracer.patch(drlsnet):
                cfg = drlsnet.config.parse_config(cfg_path)
                cfg.build_combiner()
                cfg.noise_variances()
            setup_spans.append(tracer.spans)

    def interleave_setup(spent):
        due = len(setup) * args.seconds / spec.SETUP_REPEATS
        if len(setup) < spec.SETUP_REPEATS and spent >= due:
            setup.append(fresh_setup_seconds(cfg_path))

    cfg = drlsnet.config.parse_config(cfg_path)
    experiment = Experiment(drlsnet, workload, cfg, out_dir / "outputs")
    tracer = Tracer()
    with experiment.capturing():
        reps = repeat(experiment, tracer if args.trace else None, args.seconds,
                      None if args.trace else interleave_setup)
    while not args.trace and len(setup) < spec.SETUP_REPEATS:
        setup.append(fresh_setup_seconds(cfg_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first_traj = next((traj for _, _, traj, failure in reps if failure is None), None)

    # output check on the first good experiment; every other must repeat it bit for bit
    check_failures, check_info = (["no experiment completed"], {})
    if first_traj is not None:
        try:
            check_failures, check_info = checks.check_run(
                workload, cfg, first_traj, out_dir / "outputs", args.seed)
        except Exception:
            check_failures = [traceback.format_exc()]
    ref_digest = digest(first_traj) if first_traj is not None else None
    failed = workload.runs * sum(
        1 for _, _, traj, failure in reps
        if failure or check_failures or traj is None or digest(traj) != ref_digest)
    attempted = workload.runs * len(reps)
    for msg in check_failures:
        print(f"output check failed: {msg}", file=sys.stderr)

    untraced = [r[1] for r in reps if not r[0]]
    if args.trace:
        traced_walls = [r[1] for r in reps if r[0]]
        values = layer_metrics(tracer.spans, len(traced_walls), setup_spans)
        csv_path = out_dir / "outputs" / f"{workload.network}_trajectory.csv"
        values["cli.csv_bytes"] = csv_path.stat().st_size if csv_path.exists() else 0
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls)
                                                / statistics.median(untraced) - 1.0)
        defs = spec.PER_LAYER
    else:
        values = {"wall_s": statistics.median(untraced),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        defs = spec.END_TO_END
    metrics = {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in defs}

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "context": context, "experiments": [
                  {"traced": t, "wall_s": w, "failed": f is not None} for t, w, _, f in reps],
              "runs_per_experiment": workload.runs, "iterations": workload.iterations,
              "check": {"failures": check_failures, **check_info},
              "failed_fraction": failed / attempted, "metrics": metrics}
    if args.trace:
        record["setup_spans"] = setup_spans
        (out_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "counts"],
             "spans": tracer.spans}))
    else:
        record["setup_s_samples"] = setup
    (out_dir / "result.json").write_text(json.dumps(record, indent=2, default=str))

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} experiments x {workload.runs} runs x {workload.iterations} "
          f"iterations, failed_fraction {failed / attempted:.3g}", file=sys.stderr)
    if "theory_gap_db" in check_info:
        print(f"  theory/empirical DRLS deviation: steady {check_info['theory_gap_db']:.3f} dB, "
              f"transient {check_info['transient_gap_db']:.3f} dB", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print("context " + json.dumps(context))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
