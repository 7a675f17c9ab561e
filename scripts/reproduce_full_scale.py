#!/usr/bin/env python3
"""Full-scale reproduction: 20 nodes, 32 taps, pulsed periods 4/32/512.

Runs `drlsnet sweep --out` over signal.period (`drlsnet.cli.sweep_configs`,
then `run_experiment(cfg, out)` per period, so the same
`<prefix>_period=<T>_*` files) and prints qualitative checks:
the slow-period MSD curves fluctuate at 1/512, the moderate and fast
periods do not disturb convergence, and diffusion outperforms
non-cooperative RLS throughout.  The periodicity score is
`detect_periodicity` below; tests/test_acceptance.py gates criterion 3
with it.

The original experiment's topology, combination rule, per-node noise
variances, run count, and regularization are not published, so this
script substitutes seeded stand-ins (see the config file).  Curve shapes
and orderings are comparable; absolute dB levels are not, and no numeric
tolerance is asserted here -- the gating checks live in
tests/test_acceptance.py at desk scale.

Measured on a 2-core x86-64 host with one BLAS thread: one period takes
26-27 s at --runs 3 (1.3 min for all three periods).  Use --runs to
trade Monte Carlo noise for speed.  Every period's config is resolved
before any runs, so a bad value writes nothing and exits 1.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from drlsnet.cli import EXIT_VALIDATION, run_experiment, sweep_configs  # noqa: E402
from drlsnet.config import ConfigError, parse_config, with_overrides  # noqa: E402


def _linear_detrend(seg: np.ndarray) -> np.ndarray:
    """seg minus its least-squares line, fitted on the design [(1..S)/S, 1]
    with seg as one column."""
    S = seg.size
    design = np.ones((S, 2))
    design[:, 0] = np.arange(1, S + 1) / S
    col = seg[:, None]
    return (col - design @ np.linalg.lstsq(design, col, rcond=None)[0])[:, 0]


def detect_periodicity(curve: np.ndarray, T: int) -> float:
    """Fraction of steady-state fluctuation energy at period T and harmonics.

    Looks at the second half of the curve, cut to a whole number of periods
    (at least 3) so 1/T falls on an exact FFT bin, after a linear detrend
    removes residual convergence drift.
    """
    curve = np.asarray(curve, dtype=float)
    S = (curve.size // 2 // T) * T
    if S < 3 * T:
        raise ValueError(f"window must cover >= 3 periods of T={T}")
    seg = _linear_detrend(curve[-S:])
    spectrum = np.abs(np.fft.rfft(seg)) ** 2
    total = spectrum[1:].sum()
    # fluctuation at the level of float rounding is flat, not periodic
    floor = 1e-20 * S * max(1.0, float(np.mean(curve[-S:] ** 2)))
    if total <= floor:
        return 0.0
    k0 = S // T
    harmonics = np.arange(k0, spectrum.size, k0)
    return float(spectrum[harmonics].sum() / total)


def read_curves(csv_path: Path) -> dict[str, np.ndarray]:
    """The empirical MSD curves (dB) the CSV carries, by algorithm; a
    column is empty when the config did not select its algorithm."""
    import csv
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    return {algo: np.array([float(row[f"msd_{algo}_empirical_db"]) for row in rows])
            for algo in ("drls", "rls") if rows[0][f"msd_{algo}_empirical_db"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(ROOT / "configs" / "reproduction_T512.ini"))
    ap.add_argument("--out", default="results/reproduction")
    ap.add_argument("--runs", type=int, default=None,
                    help="override ensemble.runs (default: config value)")
    ap.add_argument("--periods", default="4,32,512")
    args = ap.parse_args(argv)

    # `drlsnet sweep` over signal.period: every period resolves before any runs
    try:
        cfg = parse_config(args.config)
        if args.runs is not None:
            cfg = with_overrides(cfg, {"ensemble.runs": str(args.runs)}, source=args.config)
        cfgs = sweep_configs(cfg, "signal.period", args.periods, args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    directory = args.out.strip()  # as output.directory, a config value, is stripped
    for cfg in cfgs:
        T = cfg["signal"]["period"]
        print(f"== period T={T} ==")
        started = time.perf_counter()
        run_experiment(cfg, directory)
        elapsed = time.perf_counter() - started

        curves = read_curves(Path(directory) / f"{cfg['output']['prefix']}_trajectory.csv")
        steady = {algo: curve[-500:].mean() for algo, curve in curves.items()}
        if steady:
            levels = ", ".join(f"{algo} {level:+.2f} dB" for algo, level in steady.items())
            gain = (f" (gain {steady['rls'] - steady['drls']:.2f} dB)"
                    if len(steady) == 2 else "")
            print(f"  steady-state MSD: {levels}{gain}")
        drls_db = curves.get("drls")
        if drls_db is not None and drls_db.size >= 6 * T and T >= 4:
            score = detect_periodicity(drls_db, T)
            print(f"  periodicity score at 1/{T}: {score:.3f} "
                  f"({'fluctuates' if score > 0.5 else 'no visible ripple'})")
        # ru_maxrss is the process's high-water mark so far, in KiB on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  outputs under {directory}/, {elapsed:.0f} s, peak memory {peak_mb:.0f} MB\n")
    print("Reminder: qualitative comparison only; absolute levels depend on "
          "unpublished topology and noise choices.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
