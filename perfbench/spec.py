"""What the benchmark runs and reports: workloads, metrics, thresholds.

Workload reasons, metric names, units and bounds, and the measuring time
are read from `BENCHMARK.json` at the root of the checkout; this module
adds what each workload runs.  It imports nothing outside the standard
library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# BLAS threads for the measured process and its set-up children (never
# more than nproc).  At this commit the hot loops are numpy einsums and
# tiny LAPACK solves, which a second BLAS thread does not speed up; one
# thread also keeps a run on one core of a shared machine.
BLAS_THREADS = 1
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                   "NUMEXPR_NUM_THREADS")

RUN_SECONDS = BENCHMARK["run_seconds"]   # default measuring time of one run
SETUP_REPEATS = 5       # fresh-interpreter set-ups per run; setup_s is their median
MAX_TRACED_REPS = 4     # traced experiments per trace run (spans stay in memory)

# Output-check tolerances (relative, per iteration, max over the curve).
THEORY_RTOL = 1e-12     # package theory vs the dense oracle
EMPIRICAL_RTOL = 1e-10  # package Monte Carlo MSD vs the oracle replay
INPUT_RTOL = 1e-12      # combiner, noise variances, w_star vs reference
CSV_ATOL_DB = 1e-9      # written dB columns vs the oracle curves
# Desk acceptance gate (README criteria 1 and 2).
STEADY_TOL_DB = 1.0
TRANSIENT_TOL_DB = 2.0
COOPERATION_GAIN_DB = 3.0

# The two experiment configs, copied from configs/ so that the benchmark
# generates its own inputs: only the ensemble size and the master seed
# (from --seed) are filled in.
DESK_INI = """\
[network]
nodes = 10
topology = random_geometric
radius = 0.45
topology_seed = 7
combination = uniform
noise_seed = 1234
noise_low = 0.01
noise_high = 0.1

[signal]
profile = pulsed
period = 32
duty_cycle = 0.5
v_low = 2e-3
v_high = 2.0
rho = 0.8
taps = 8

[algorithm]
forgetting_factor = 0.995
delta = 0.01
algorithms = rls, drls

[ensemble]
runs = {runs}
iterations = {iterations}
master_seed = {master_seed}

[output]
directory = {directory}
prefix = desk
"""

FULL_INI = """\
[network]
nodes = 20
topology = random_geometric
radius = 0.3
topology_seed = 1
combination = uniform
noise_seed = 1234
noise_low = 0.01
noise_high = 0.1

[signal]
profile = pulsed
period = 512
duty_cycle = 0.5
v_low = 2e-3
v_high = 2.0
rho = 0.8
taps = 32

[algorithm]
forgetting_factor = 0.995
delta = 0.01
algorithms = rls, drls

[ensemble]
runs = {runs}
iterations = {iterations}
master_seed = {master_seed}

[output]
directory = {directory}
prefix = full
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ini: str              # config template
    network: str          # key of the recorded combiner/noise reference
    runs: int
    iterations: int
    entry: str            # "run_experiment" (cli) or "run_ensemble" (harness only)
    gate: bool            # apply the desk acceptance gate

    def config_text(self, master_seed: int, directory: str) -> str:
        return self.ini.format(runs=self.runs, iterations=self.iterations,
                               master_seed=master_seed, directory=directory)


_WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}

# desk_T32: the desk config's batch (one chunk of 60 runs x 10 nodes; the
# config's 200 x 3000 runs chunks of 62) at a third of its iterations.
# full_T512: three theory steps, so that the per-step cost outweighs the
# R_x cache built once per experiment.
# mc_full_L32: one chunk of the full-scale run exactly, 3 runs x 6000
# iterations, which is what harness._default_chunk gives that config
# (100 runs x 6000 iterations).
WORKLOADS = {w.name: w for w in (
    Workload(name="desk_T32", why=_WHY["desk_T32"], ini=DESK_INI, network="desk",
             runs=60, iterations=1000, entry="run_experiment", gate=True),
    Workload(name="full_T512", why=_WHY["full_T512"], ini=FULL_INI, network="full",
             runs=10, iterations=3, entry="run_experiment", gate=False),
    Workload(name="mc_full_L32", why=_WHY["mc_full_L32"], ini=FULL_INI,
             network="full", runs=3, iterations=6000, entry="run_ensemble",
             gate=False),
)}


@dataclass(frozen=True)
class Metric:
    """A reported metric; README.md says what each one measures."""

    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None   # end-to-end only


END_TO_END = tuple(Metric(**m) for m in BENCHMARK["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in BENCHMARK["per_layer"])
