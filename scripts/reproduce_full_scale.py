#!/usr/bin/env python3
"""Full-scale reproduction: 20 nodes, 32 taps, pulsed periods 4/32/512.

Runs the configs/reproduction_T512.ini setup once per period and prints
qualitative checks: the slow-period MSD curves fluctuate at 1/512, the
moderate and fast periods do not disturb convergence, and diffusion
outperforms non-cooperative RLS throughout.

The original experiment's topology, combination rule, per-node noise
variances, run count, and regularization are not published, so this
script substitutes seeded stand-ins (see the config file).  Curve shapes
and orderings are comparable; absolute dB levels are not, and no numeric
tolerance is asserted here -- the gating checks live in
tests/test_acceptance.py at desk scale.

Measured on a 2-core x86-64 host with one BLAS thread: one period takes
63-68 s at --runs 3 and 77 s at --runs 12, of which the 6000-step theory
is 58 s.  Scaled linearly to the default 100 runs that is about 3.5
minutes per period, 11 minutes for all three.  Use --runs to trade Monte
Carlo noise for speed.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from drlsnet.cli import run_experiment  # noqa: E402
from drlsnet.config import parse_config, with_overrides  # noqa: E402
from drlsnet.harness import detect_periodicity  # noqa: E402


def read_column(csv_path: Path, name: str) -> np.ndarray:
    import csv
    with csv_path.open() as fh:
        return np.array([float(row[name]) for row in csv.DictReader(fh)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(ROOT / "configs" / "reproduction_T512.ini"))
    ap.add_argument("--out", default="results/reproduction")
    ap.add_argument("--runs", type=int, default=None,
                    help="override ensemble.runs (default: config value)")
    ap.add_argument("--periods", default="4,32,512")
    args = ap.parse_args(argv)

    base = parse_config(args.config)
    for T in (int(t) for t in args.periods.split(",")):
        overrides = {"signal.period": str(T)}
        if args.runs is not None:
            overrides["ensemble.runs"] = str(args.runs)
        cfg = with_overrides(base, overrides, source=f"{args.config} [period={T}]")

        print(f"== period T={T} ==")
        started = time.perf_counter()
        run_experiment(cfg, out_dir=args.out, label=f"T={T}")
        elapsed = time.perf_counter() - started

        prefix = cfg["output"]["prefix"]
        csv_path = Path(args.out) / f"{prefix}_T={T}_trajectory.csv"
        drls_db = read_column(csv_path, "msd_drls_empirical_db")
        rls_db = read_column(csv_path, "msd_rls_empirical_db")
        gain = rls_db[-500:].mean() - drls_db[-500:].mean()
        print(f"  steady-state MSD: drls {drls_db[-500:].mean():+.2f} dB, "
              f"rls {rls_db[-500:].mean():+.2f} dB (gain {gain:.2f} dB)")
        if drls_db.size >= 6 * T and T >= 4:
            score = detect_periodicity(drls_db, T)
            print(f"  periodicity score at 1/{T}: {score:.3f} "
                  f"({'fluctuates' if score > 0.5 else 'no visible ripple'})")
        print(f"  outputs under {args.out}/, {elapsed:.0f} s\n")
    print("Reminder: qualitative comparison only; absolute levels depend on "
          "unpublished topology and noise choices.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
