"""Monte Carlo ensemble execution and theory-vs-empirical comparison.

Runs are vectorized in chunks (leading batch axis) but reduced into the
averaged curves one run at a time, in run order, so the results do not
depend on the chunk size, nor on the length of the time blocks in which
a chunk's signals are generated.  Every random stream is the master
seed's SeedSequence with a fixed spawn key, the one `spawn` would give it:

    w_star                                   (0,)
    run r, node k: u innovations             (1 + r, k, 0)
                   observation noise         (1 + r, k, 1)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filters import (DrlsNetworkState, NodeFilterState, drls_iteration,
                      init_state, rls_iteration, update_inverse_correlation)
from .network import CombinationMatrix
from .signals import ColoredProcessParams, generate_node_signals, make_ground_truth
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
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")


@dataclass
class Trajectory:
    """Empirical MSD per algorithm, theory MSD and mean-error norm (linear units),
    w_star, snapshots and excluded runs; the MSD averages the other runs."""

    iterations: int
    msd_empirical: dict[str, np.ndarray]
    msd_theory: np.ndarray | None
    mean_err_norm_theory: np.ndarray | None
    w_star: np.ndarray | None = None
    snapshots: dict[str, dict] = field(default_factory=dict)
    excluded_runs: dict[str, list[tuple[int, int]]] = field(default_factory=dict)


class ExcludedRunThresholdError(RuntimeError):
    """More than the allowed fraction of Monte Carlo runs blew up."""


def _default_chunk(K: int, N: int, L: int) -> int:
    # runs simulated together: 1.5e7 is the element budget of the (N, B, K, L)
    # regressor array a chunk once held; none is held now, but larger chunks
    # measured slower, and perfbench/selftest.py pins the full-scale 3 runs
    return max(1, int(1.5e7 / (K * N * L)))


# sets a chunk's signal block length nb: at most this many regressor
# elements nb*B*K*L, counted as windows though none are allocated; what a
# chunk holds is the block's (nb+L-1, B, K) input samples and (nb, B, K) d
_SIGNAL_BLOCK = 1_000_000
# the experiment fails when more than this share of runs is excluded
_MAX_EXCLUDED_FRACTION = 0.01


def run_ensemble(combiner: CombinationMatrix, noise_variances: np.ndarray,
                 amplitude: np.ndarray, params: ColoredProcessParams, lam: float,
                 delta: float, spec: EnsembleSpec, *, guard: float = 1e12,
                 include_theory: bool = True, snapshot_every: int = 0) -> Trajectory:
    """Simulate the selected algorithms over R independent runs.

    Empirical MSD_n averages ||w_{k,n} - w_star||^2 over surviving runs
    and nodes; w_star is drawn once and shared by all runs.  The selected
    algorithms share one inverse correlation recursion per run, so a run
    whose P trips the magnitude guard is excluded for every algorithm at
    once, and reported; the experiment fails if more than 1% of runs
    (`_MAX_EXCLUDED_FRACTION`), or every run, are lost.  `include_theory`
    adds the theory's MSD and mean-error norm; `snapshot_every` > 0 keeps
    the first run's per-node weights at its multiples.
    `amplitude` is the (K, T) table of sigma_x(n), n = 0..T-1, per node.

    Runs are simulated `_default_chunk(K, N, L)` at a time, looked up at
    each call, and a chunk's signals in time blocks of nb iterations,
    nb*B*K*L at most `_SIGNAL_BLOCK` regressor elements, each node-run
    carrying its generators and filter state across blocks.  A block is
    held as its (nb+L-1)*B*K scaled input samples, from the generator's
    window view: the L-1 older taps of its first window, then each
    window's newest.  Each step copies the regressors x_{k,n}, a tapped
    delay line over those samples, out of them.  No size changes a result.
    """
    A = combiner.A
    K = A.shape[0]
    L = params.length
    N = spec.iterations
    R = spec.runs
    noise_variances = np.asarray(noise_variances, dtype=float)
    if np.ndim(amplitude) != 2 or len(amplitude) != K:
        raise ValueError(f"expected a ({K}, T) amplitude table, got {np.shape(amplitude)}")

    w_star = make_ground_truth(L, np.random.SeedSequence(spec.master_seed, spawn_key=(0,)))
    sigma_z = np.sqrt(noise_variances)

    algos = [a for a in ALGORITHMS if a in spec.algorithms]
    dev_sq_sum = {a: np.zeros(N) for a in algos}
    excluded: list[tuple[int, int]] = []  # (run, iteration of its first trip)
    snapshots: dict[str, dict] = {}  # first run's per-node weights

    def simulate_chunk(run_ids: range) -> None:
        # adds the runs' curves to the sums above; a function of its own,
        # so the chunk's signals and work buffer are freed before the theory
        B = len(run_ids)
        nb = min(N, max(1, _SIGNAL_BLOCK // (B * K * L)))
        # scaled input samples, time-major: row L-1+j is the block's j-th
        # iteration and rows 0..L-2 the L-1 samples before it
        U = np.empty((nb + L - 1, B, K))
        d = np.empty((nb, B, K))
        x = np.empty((B, K, L))  # the step's regressors, newest tap first
        # each node-run: its column (b, k) of the block and its two generators,
        # with the generator's carry (None before its first block) alongside
        node_runs = [(b, k, *(np.random.default_rng(np.random.SeedSequence(
                         spec.master_seed, spawn_key=(1 + r, k, j))) for j in (0, 1)))
                     for b, r in enumerate(run_ids) for k in range(K)]
        carries = [None] * len(node_runs)

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
        # entrywise |P_n| <= |P_{n-1}| / lam + max_i u_i^2, so each run keeps
        # a bound on max |P| and P is scanned only once a live run's bound
        # passes guard/2 (the 2 covers the bound's own rounding)
        bound = np.full(B, 1.0 / delta)
        dev_sq = {a: np.empty((B, N)) for a in algos}

        for n in range(N):
            j = n % nb
            if j == 0:
                size = min(nb, N - n)
                for i, (b, k, rng_u, rng_z) in enumerate(node_runs):
                    X_blk, d[:size, b, k], carries[i] = generate_node_signals(
                        amplitude[k], params, w_star, sigma_z[k], size, rng_u, rng_z,
                        carries[i])
                    # row 0's older taps, oldest first, then each row's newest
                    U[:L - 1, b, k] = X_blk[0, :0:-1]
                    U[L - 1:L - 1 + size, b, k] = X_blk[:, 0]
            x[...] = U[j:j + L][::-1].transpose(1, 2, 0)
            gain = update_inverse_correlation(P, x, lam, work)
            # work holds u u^T; NaN and +-inf fail every comparison, so a
            # non-finite bound or P trips at the iteration it appears
            bound = bound / lam + work.diagonal(0, -2, -1).max(axis=(-2, -1))
            if not (bound[bad_at < 0] <= guard / 2).all():
                bound = np.maximum(P.max(axis=(-3, -2, -1)), -P.min(axis=(-3, -2, -1)))
                bad_at[~(bound <= guard) & (bad_at < 0)] = n + 1
            for a in algos:
                w = iterate[a](states[a], x, d[j], gain)
                dev = w - w_star
                dev_sq[a][:, n] = np.einsum("bki,bki->b", dev, dev)
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

    chunk = _default_chunk(K, N, L)
    for start in range(0, R if algos else 0, chunk):
        simulate_chunk(range(start, min(start + chunk, R)))

    runs_effective = R - len(excluded)
    if len(excluded) > _MAX_EXCLUDED_FRACTION * R or runs_effective == 0:
        raise ExcludedRunThresholdError(
            f"{len(excluded)} of {R} runs excluded (allowed: at most "
            f"{_MAX_EXCLUDED_FRACTION:.0%}, and not all); first: {excluded[:5]}")

    msd_empirical = {a: dev_sq_sum[a] / (runs_effective * K) for a in algos}
    msd_theory = mean_err_norm_theory = None
    if include_theory:
        msd_theory, mean_err_norm_theory = theoretical_trajectory(
            amplitude, params, A, noise_variances, w_star, lam, delta, N)

    return Trajectory(
        iterations=N, msd_empirical=msd_empirical, msd_theory=msd_theory,
        mean_err_norm_theory=mean_err_norm_theory,
        w_star=w_star.copy(), snapshots=snapshots,
        excluded_runs={a: list(excluded) for a in algos})


def compare_theory_empirical(traj: Trajectory) -> dict | None:
    """Absolute dB deviation between the theory and empirical DRLS MSD curves,
    or None when the trajectory lacks either curve.

    The windows are fixed and clamped to the N-iteration curves: transient
    iterations min(50, N)..min(500, N) (1-based, inclusive) and steady state
    the last min(500, max(1, N // 4)), so 50..500 and the last 500 at N = 3000.
    """
    if traj.msd_theory is None or "drls" not in traj.msd_empirical:
        return None
    dev = np.abs(to_db(traj.msd_empirical["drls"]) - to_db(traj.msd_theory))
    N = dev.size
    transient = dev[min(50, N) - 1:min(500, N)]
    steady = dev[-min(500, max(1, N // 4)):]
    return {
        "transient_mean_abs_db": float(transient.mean()),
        "transient_max_abs_db": float(transient.max()),
        "steady_mean_abs_db": float(steady.mean()),
        "steady_max_abs_db": float(steady.max()),
    }
