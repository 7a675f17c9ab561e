"""Monte Carlo ensemble execution and theory-vs-empirical comparison.

Runs are vectorized in chunks (leading batch axis) but reduced into the
averaged curves one run at a time, in run order, so the results do not
depend on the chunk size, nor on the length of the time blocks in which
a chunk's signals are generated.  Every random stream is derived from
the master seed through a fixed SeedSequence spawn layout:

    root -> [w_star, run_0, run_1, ...]
    run_r -> [node_0, ..., node_{K-1}]
    node_k -> [u innovations, observation noise]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import detrend

from .filters import (DrlsNetworkState, NodeFilterState, drls_iteration,
                      init_state, rls_iteration, update_inverse_correlation)
from .network import CombinationMatrix
from .signals import (ColoredProcessParams, CyclostationaryProfile,
                      generate_node_signals, make_ground_truth)
from .theory import theoretical_trajectory

ALGORITHMS = ("rls", "drls")


def to_db(values) -> np.ndarray:
    """10*log10 with a -inf sentinel for non-positive entries."""
    values = np.asarray(values, dtype=float)
    out = np.full(values.shape, -np.inf)
    np.log10(values, out=out, where=values > 0)
    return 10.0 * out


@dataclass(frozen=True)
class EnsembleSpec:
    runs: int
    iterations: int
    master_seed: int
    algorithms: tuple[str, ...] = ("rls", "drls")

    def __post_init__(self):
        if self.runs < 1 or self.iterations < 1:
            raise ValueError("runs and iterations must be >= 1")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")


@dataclass
class Trajectory:
    """Per-iteration curves (linear units) plus replay metadata."""

    iterations: int
    master_seed: int
    msd_empirical: dict[str, np.ndarray]
    msd_theory: np.ndarray | None
    mean_err_norm_theory: np.ndarray | None
    mean_err_norm_empirical: np.ndarray | None = None
    w_star: np.ndarray | None = None
    snapshots: dict[str, dict] = field(default_factory=dict)
    excluded_runs: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    runs_effective: dict[str, int] = field(default_factory=dict)


class ExcludedRunThresholdError(RuntimeError):
    """More than the allowed fraction of Monte Carlo runs blew up."""


def _default_chunk(K: int, N: int, L: int) -> int:
    # runs simulated together: bounds the chunk's (B, N) per-run curves
    # and, with collect_mean_error, its (B, N, K, L) error trajectory,
    # which stays around 100 MB; signals are held one time block at a time
    return max(1, int(1.5e7 / (K * N * L)))


# regressor elements per signal block (8 MB): a chunk's signals are
# generated this many elements at a time, into one reused buffer
_SIGNAL_BLOCK = 1_000_000
# runs simulated together; None sizes chunks with _default_chunk
_RUN_CHUNK: int | None = None
# the experiment fails when more than this share of runs is excluded
_MAX_EXCLUDED_FRACTION = 0.01


def run_ensemble(combiner: CombinationMatrix, noise_variances: np.ndarray,
                 profile, params: ColoredProcessParams, lam: float,
                 delta: float, spec: EnsembleSpec, *, guard: float = 1e12,
                 include_theory: bool = True, collect_mean_error: bool = False,
                 snapshot_every: int = 0) -> Trajectory:
    """Simulate the selected algorithms over R independent runs.

    Empirical MSD_n averages ||w_{k,n} - w_star||^2 over surviving runs
    and nodes; w_star is drawn once and shared by all runs.  The selected
    algorithms share one inverse correlation recursion per run, so a run
    whose P trips the magnitude guard is excluded for every algorithm at
    once, and reported; the experiment fails if more than 1% of runs
    (`_MAX_EXCLUDED_FRACTION`), or every run, are lost.  With
    `collect_mean_error`, the DRLS ensemble mean of w_{k,n} - w_star is
    kept too, as its norm per iteration (None when DRLS is not selected).

    Runs are simulated `_RUN_CHUNK` at a time (by default as many as
    `_default_chunk` allows), and each chunk's signals are generated in
    time blocks of about `_SIGNAL_BLOCK` regressor elements into one
    reused buffer, each node-run carrying its generators and filter state
    across blocks.  Neither size changes any result.
    """
    A = combiner.A
    K = A.shape[0]
    L = params.length
    N = spec.iterations
    R = spec.runs
    noise_variances = np.asarray(noise_variances, dtype=float)
    profiles = ([profile] * K if isinstance(profile, CyclostationaryProfile)
                else list(profile))
    if len(profiles) != K:
        raise ValueError(f"expected {K} node profiles, got {len(profiles)}")

    children = np.random.SeedSequence(spec.master_seed).spawn(1 + R)
    truth = make_ground_truth(L, children[0])
    sigma_z = np.sqrt(noise_variances)

    algos = [a for a in ALGORITHMS if a in spec.algorithms]
    dev_sq_sum = {a: np.zeros(N) for a in algos}
    # the ensemble mean error is kept for DRLS only, the theory's counterpart
    keep_err = collect_mean_error and "drls" in algos
    err_sum = np.zeros((N, K, L)) if keep_err else None
    excluded: list[tuple[int, int]] = []  # (run, iteration of its first trip)
    snapshots: dict[str, dict] = {}  # first run's per-node weights

    def simulate_chunk(run_ids: range) -> None:
        # adds the runs' curves to the sums above; a function of its own,
        # so the chunk's signals and work buffer are freed before the theory
        B = len(run_ids)
        nb = min(N, max(1, _SIGNAL_BLOCK // (B * K * L)))
        X = np.empty((nb, B, K, L))  # time-major, so X[j] is contiguous
        d = np.empty((nb, B, K))
        # each node-run keeps its node, its columns of the block, its two
        # generators and the carry its next block continues from (None
        # before its first block)
        streams = []
        for b, r in enumerate(run_ids):
            for k, node in enumerate(children[1 + r].spawn(K)):
                ss_u, ss_z = node.spawn(2)
                streams.append([k, X[:, b, k], d[:, b, k], np.random.default_rng(ss_u),
                                np.random.default_rng(ss_z), None])

        def next_block(n0: int) -> None:
            size = min(nb, N - n0)
            for s in streams:
                k, x_k, d_k, rng_u, rng_z, carry = s
                x_k[:size], d_k[:size], s[5] = generate_node_signals(
                    profiles[k], params, truth, sigma_z[k], size, rng_u, rng_z, carry)

        # P_{k,n} depends only on node k's regressors, lam and delta, so
        # the selected algorithms share one recursion and its gain
        P = init_state(L, delta, batch_shape=(B, K)).P
        work = np.empty_like(P)
        # looked up per chunk, not bound at import, so that an iteration
        # swapped by its name in this module is the one that runs
        iterate = {"rls": rls_iteration, "drls": drls_iteration}
        states = {"rls": NodeFilterState(np.zeros((B, K, L)), P),
                  "drls": DrlsNetworkState(NodeFilterState(np.zeros((B, K, L)), P), A)}
        bad_at = np.full(B, -1, dtype=int)  # iteration of a run's first trip
        dev_sq = {a: np.empty((B, N)) for a in algos}
        err_traj = np.empty((B, N, K, L)) if keep_err else None

        for n in range(N):
            j = n % nb
            if j == 0:
                next_block(n)
            gain = update_inverse_correlation(P, X[j], lam, work)
            # NaN and +-inf trip too: no comparison with NaN is true
            trip = ~(np.maximum(P.max(axis=(-3, -2, -1)),
                                -P.min(axis=(-3, -2, -1))) <= guard)
            bad_at[trip & (bad_at < 0)] = n + 1
            for a in algos:
                w = iterate[a](states[a], X[j], d[j], gain)
                dev = w - truth.w_star
                dev_sq[a][:, n] = np.einsum("bki,bki->b", dev, dev)
                if keep_err and a == "drls":
                    err_traj[:, n] = dev
                if snapshot_every and run_ids.start == 0 and (n + 1) % snapshot_every == 0:
                    snap = snapshots.setdefault(a, {"iteration": [], "weights": []})
                    snap["iteration"].append(n + 1)
                    snap["weights"].append(np.array(w[0]))

        # fixed-order (run-order) reduction, independent of chunk size
        for b, r in enumerate(run_ids):
            if bad_at[b] >= 0:
                excluded.append((r, int(bad_at[b])))
                continue
            for a in algos:
                dev_sq_sum[a] += dev_sq[a][b]
            if keep_err:
                err_sum[:] += err_traj[b]

    chunk = _RUN_CHUNK or _default_chunk(K, N, L)
    for start in range(0, R if algos else 0, chunk):
        simulate_chunk(range(start, min(start + chunk, R)))

    runs_effective = R - len(excluded)
    if len(excluded) > _MAX_EXCLUDED_FRACTION * R or runs_effective == 0:
        raise ExcludedRunThresholdError(
            f"{len(excluded)} of {R} runs excluded (allowed: at most "
            f"{_MAX_EXCLUDED_FRACTION:.0%}, and not all); first: {excluded[:5]}")

    msd_empirical = {a: dev_sq_sum[a] / (runs_effective * K) for a in algos}
    mean_err_norm_emp = (np.linalg.norm(err_sum / runs_effective, axis=(1, 2))
                         if keep_err else None)

    msd_theory = mean_err_norm_theory = None
    if include_theory:
        theory = theoretical_trajectory(profiles, params, A, noise_variances,
                                        truth.w_star, lam, delta, N)
        msd_theory = theory.msd
        mean_err_norm_theory = theory.mean_err_norm

    return Trajectory(
        iterations=N, master_seed=spec.master_seed,
        msd_empirical=msd_empirical, msd_theory=msd_theory,
        mean_err_norm_theory=mean_err_norm_theory,
        mean_err_norm_empirical=mean_err_norm_emp,
        w_star=truth.w_star.copy(), snapshots=snapshots,
        excluded_runs={a: list(excluded) for a in algos},
        runs_effective={a: runs_effective for a in algos})


def compare_theory_empirical(traj: Trajectory, *, algorithm: str = "drls",
                             transient_window: tuple[int, int] = (50, 500),
                             steady_window: int = 500) -> dict:
    """Absolute dB deviation between theory and empirical MSD curves.

    Windows are iteration indices (1-based, inclusive) and must lie
    within the N-iteration curves: 1 <= lo <= hi <= N for the transient
    window, and the steady-state window is the final `steady_window`
    iterations, 1 <= steady_window <= N.
    """
    if traj.msd_theory is None or algorithm not in traj.msd_empirical:
        raise ValueError("trajectory must carry both curves")
    emp_db = to_db(traj.msd_empirical[algorithm])
    th_db = to_db(traj.msd_theory)
    dev = np.abs(emp_db - th_db)
    N = dev.size
    lo, hi = transient_window
    if not (1 <= lo <= hi <= N and 1 <= steady_window <= N):
        raise ValueError(f"comparison windows (transient {lo}..{hi}, steady last "
                         f"{steady_window}) fall outside iterations 1..{N}")
    transient = dev[lo - 1:hi]
    steady = dev[-steady_window:]
    return {
        "transient_mean_abs_db": float(transient.mean()),
        "transient_max_abs_db": float(transient.max()),
        "steady_mean_abs_db": float(steady.mean()),
        "steady_max_abs_db": float(steady.max()),
    }


def detect_periodicity(curve: np.ndarray, T: int, *,
                       steady_window: int | None = None) -> float:
    """Fraction of steady-state fluctuation energy at period T and harmonics.

    Looks at the last `steady_window` samples (default: half the curve),
    truncated to a whole number of periods so 1/T falls on an exact FFT
    bin; the window must cover at least 3 periods.  A linear detrend
    removes residual convergence drift before the spectrum is taken.
    """
    curve = np.asarray(curve, dtype=float)
    window = steady_window if steady_window is not None else curve.size // 2
    if window > curve.size:
        raise ValueError("steady-state window longer than the curve")
    S = (window // T) * T
    if S < 3 * T:
        raise ValueError(f"window must cover >= 3 periods of T={T}")
    seg = detrend(curve[-S:], type="linear")
    spectrum = np.abs(np.fft.rfft(seg)) ** 2
    total = spectrum[1:].sum()
    # fluctuation at the level of float rounding is flat, not periodic
    floor = 1e-20 * S * max(1.0, float(np.mean(curve[-S:] ** 2)))
    if total <= floor:
        return 0.0
    k0 = S // T
    harmonics = np.arange(k0, spectrum.size, k0)
    return float(spectrum[harmonics].sum() / total)
