from pathlib import Path
import re
import tracemalloc
import types

import numpy as np
import pytest

import drlsnet.cli
import drlsnet.harness
from drlsnet.harness import (EnsembleSpec, ExcludedRunThresholdError,
                             compare_theory_empirical, run_ensemble, to_db)
from drlsnet.network import (CombinationMatrix, build_combination_matrix,
                             build_topology, draw_noise_variances)
from drlsnet.signals import ColoredProcessParams
from oracles import (Profile, amplitude_table, blas_combine, blas_step,
                     drls_mean_error_norm, ensemble_signals, every_step_trips,
                     independent_states_msd, linear_detrend)
from reproduce_full_scale import _linear_detrend, detect_periodicity

CONST = Profile(kind="constant", level=1.0)
FAINT = amplitude_table(Profile(kind="constant", level=0.003), nodes=3)
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def desk_network(K=10):
    topo = build_topology("ring", K)
    return (build_combination_matrix(topo),
            draw_noise_variances(K, 0.01, 0.1, 1234))


def identity_combiner(K):
    return CombinationMatrix(np.eye(K), adjacency=np.eye(K, dtype=bool))


def line_network(K=4):
    """Path graph with uniform weights: end nodes have fewer neighbours, so A != A^T."""
    topo = build_topology("explicit", K, edges=[(k, k + 1) for k in range(K - 1)])
    return (build_combination_matrix(topo),
            draw_noise_variances(K, 0.01, 0.1, 1234))


def symmetrized_update(P, x, lam):
    """Oracle: the inverse-correlation update as one algorithm's own step,
    with fresh arrays and an explicit 0.5 (P + P^T) pass."""
    Px = np.einsum("...ij,...j->...i", P, x)
    denom = lam + np.einsum("...i,...i->...", x, Px)
    Pnew = (P - np.einsum("...i,...j->...ij", Px, Px) / denom[..., None, None]) / lam
    return 0.5 * (Pnew + np.swapaxes(Pnew, -1, -2))


def einsum_step(P, x, lam):
    """Oracle: (P_n, gain) from the symmetrized update, the gain an einsum over P_n."""
    P = symmetrized_update(P, x, lam)
    return P, np.einsum("...ij,...j->...i", P, x)


def einsum_combine(A, psi):
    return np.einsum("lk,...li->...ki", A, psi)


def chunk_runs(monkeypatch, B):
    """Simulate B runs per chunk: run_ensemble looks `_default_chunk` up at each call."""
    monkeypatch.setattr(drlsnet.harness, "_default_chunk", lambda K, N, L: B)


def load_spans():
    """perfbench/spans.py as a module, executed from its source (nothing written)."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def inject_bad_regressor(monkeypatch, R, K, L, bad_value, bad_iteration,
                         block_iterations=None, runs=(1,)) -> list:
    """Replace the regressor of node 0 at `bad_iteration` by `bad_value`,
    in each of `runs`, where the harness receives it: in the result of its
    per-block generate_node_signals call, with all R runs in one chunk and
    signal blocks of `block_iterations` (default: one block).  The
    generator's X is a read-only view, so the hook corrupts a copy, which
    the harness reads as it reads X.  The harness keeps each row's newest
    sample and row 0's L-1 older taps, so the corrupted row reaches the
    filters through its newest sample: in the regressor at `bad_iteration`
    first, then in the L-1 after it.  A corrupted row 0 also supplies the
    older taps, which enter only windows that already hold that newest
    sample.  Returns the list that gets one entry per call."""
    if block_iterations is not None:
        monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", block_iterations * R * K * L)
    generate = drlsnet.harness.generate_node_signals
    bad_node_runs = {r * K + 0 for r in runs}
    calls = []

    def corrupted(*args):
        # one call per node-run and block, (run, node) in order
        X, d, carry = generate(*args)
        block, node_run = divmod(len(calls), R * K)
        first = 1 + block * (block_iterations or 0)  # iteration of X[0]
        if node_run in bad_node_runs and first <= bad_iteration < first + len(X):
            X = X.copy()
            X[bad_iteration - first] = bad_value
        calls.append(None)
        return X, d, carry

    monkeypatch.setattr(drlsnet.harness, "generate_node_signals", corrupted)
    return calls


def run_with_bad_regressor(monkeypatch, bad_value, bad_iteration, block_iterations=None):
    """3 runs x 20 iterations on 3 nodes, L=2, with the regressor of run 1,
    node 0 at `bad_iteration` replaced by `bad_value` (inject_bad_regressor)."""
    K, R, L = 3, 3, 2
    calls = inject_bad_regressor(monkeypatch, R, K, L, bad_value, bad_iteration,
                                 block_iterations)
    monkeypatch.setattr(drlsnet.harness, "_MAX_EXCLUDED_FRACTION", 1.0)
    comb, nv = desk_network(K)
    spec = EnsembleSpec(runs=R, iterations=20, master_seed=5)
    with np.errstate(invalid="ignore"):
        traj = run_ensemble(comb, nv, amplitude_table(CONST, nodes=K),
                            ColoredProcessParams(rho=0.5, length=L),
                            0.995, 0.01, spec, include_theory=False)
    blocks = 1 if block_iterations is None else -(-20 // block_iterations)
    assert len(calls) == R * K * blocks
    return traj


def assert_blocks_match_one_block(monkeypatch, L, N, block_iterations, excluded):
    """8 runs of the faint 3-node case, 3 per chunk, in signal blocks of
    `block_iterations`: curves, exclusions (with the iteration of their
    first trip; `excluded` runs are lost) and snapshots match one
    whole-run block exactly."""
    comb, nv = desk_network(3)
    params = ColoredProcessParams(rho=0.8, length=L)
    spec = EnsembleSpec(runs=8, iterations=N, master_seed=21)

    def run():
        return run_ensemble(comb, nv, FAINT,
                            params, 0.995, 0.01, spec, guard=440.0,
                            include_theory=False, snapshot_every=50)

    monkeypatch.setattr(drlsnet.harness, "_MAX_EXCLUDED_FRACTION", 1.0)
    chunk_runs(monkeypatch, 3)
    monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", 10 ** 9)
    want = run()
    # 3 runs x 3 nodes x L taps per iteration in each chunk
    monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", block_iterations * 9 * L)
    got = run()
    assert got.excluded_runs == want.excluded_runs
    assert len(want.excluded_runs["drls"]) == excluded
    for algo in ("rls", "drls"):
        assert np.array_equal(got.msd_empirical[algo], want.msd_empirical[algo])
        assert got.snapshots[algo]["iteration"] == want.snapshots[algo]["iteration"]
        assert np.array_equal(got.snapshots[algo]["weights"],
                              want.snapshots[algo]["weights"])


class TestRunEnsemble:
    def test_noiseless_single_run_decays(self):
        K = 4
        comb = identity_combiner(K)
        spec = EnsembleSpec(runs=1, iterations=1000, master_seed=3,
                            algorithms=("rls",))
        traj = run_ensemble(comb, np.full(K, 1e-12), amplitude_table(CONST, nodes=K),
                            ColoredProcessParams(rho=0.8, length=8),
                            0.995, 0.01, spec, include_theory=False)
        emp = to_db(traj.msd_empirical["rls"])
        assert emp[999] < -60
        # monotone decay up to numerical wiggle
        assert emp[999] < emp[99] < emp[9]

    def test_bit_identical_rerun(self):
        comb, nv = desk_network(5)
        spec = EnsembleSpec(runs=5, iterations=100, master_seed=11)
        kwargs = dict(amplitude=amplitude_table(CONST, nodes=5),
                      params=ColoredProcessParams(rho=0.8, length=3),
                      lam=0.995, delta=0.01, spec=spec)
        a = run_ensemble(comb, nv, **kwargs)
        b = run_ensemble(comb, nv, **kwargs)
        for algo in ("rls", "drls"):
            assert np.array_equal(a.msd_empirical[algo], b.msd_empirical[algo])
        assert np.array_equal(a.msd_theory, b.msd_theory)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        comb, nv = desk_network(4)
        spec = EnsembleSpec(runs=7, iterations=80, master_seed=13)

        def run(chunk):
            chunk_runs(monkeypatch, chunk)
            return run_ensemble(comb, nv, amplitude_table(CONST, nodes=4),
                                ColoredProcessParams(rho=0.8, length=3),
                                0.995, 0.01, spec, include_theory=False)

        a, b, c = run(1), run(7), run(3)
        for algo in ("rls", "drls"):
            assert np.array_equal(a.msd_empirical[algo], b.msd_empirical[algo])
            assert np.array_equal(a.msd_empirical[algo], c.msd_empirical[algo])

    @pytest.mark.parametrize("block_iterations", [1, 7, 400])
    def test_signal_block_length_does_not_change_results(self, monkeypatch,
                                                          block_iterations):
        assert_blocks_match_one_block(monkeypatch, 2, 400, block_iterations, excluded=5)

    def test_results_do_not_depend_on_run_length(self, monkeypatch):
        # a run's first N iterations equal an N-iteration run bit for bit
        # (no run trips here): one run per chunk in 4-iteration signal
        # blocks over 60 iterations against all runs in one block over 150
        K, L, R = 4, 3, 5
        comb, nv = desk_network(K)
        amplitude = amplitude_table(Profile(kind="pulsed", period=4, duty_cycle=0.5,
                                            v_low=0.1, v_high=1.5), nodes=K)

        def run(N):
            return run_ensemble(comb, nv, amplitude, ColoredProcessParams(rho=0.8, length=L),
                                0.995, 0.01, EnsembleSpec(runs=R, iterations=N, master_seed=9),
                                snapshot_every=20)

        chunk_runs(monkeypatch, 1)
        monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", 4 * K * L)
        short = run(60)
        chunk_runs(monkeypatch, R)
        monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", 10 ** 9)
        long = run(150)
        assert long.excluded_runs == {"rls": [], "drls": []}
        for algo in ("rls", "drls"):
            assert np.array_equal(short.msd_empirical[algo], long.msd_empirical[algo][:60])
            assert short.snapshots[algo]["iteration"] == [20, 40, 60]
            assert long.snapshots[algo]["iteration"][:3] == [20, 40, 60]
            assert np.array_equal(short.snapshots[algo]["weights"],
                                  long.snapshots[algo]["weights"][:3])
        assert np.array_equal(short.msd_theory, long.msd_theory[:60])
        assert np.array_equal(short.mean_err_norm_theory, long.mean_err_norm_theory[:60])

    def test_signals_held_one_block_at_a_time(self, monkeypatch):
        # a chunk must not hold its whole run's (N, B, K, L) signals: the
        # traced peak stays well below that block (8.2 MB here)
        K, L, R, N = 4, 8, 2, 16000
        whole_run = N * R * K * L * 8
        monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", 100 * R * K * L)
        comb = identity_combiner(K)
        spec = EnsembleSpec(runs=R, iterations=N, master_seed=3)
        tracemalloc.start()
        try:
            run_ensemble(comb, np.full(K, 0.01), amplitude_table(CONST, nodes=K),
                         ColoredProcessParams(rho=0.8, length=L), 0.995, 0.01, spec,
                         include_theory=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole_run / 4

    @pytest.mark.parametrize("L, block_iterations", [
        (L, blk) for L in (8, 32) for blk in (1, 3, L - 1, L)],
        ids=lambda v: str(v))
    def test_signal_blocks_shorter_than_the_tail(self, monkeypatch, L, block_iterations):
        # blocks of fewer than L-1 iterations carry samples from several
        # blocks back into one regressor
        assert_blocks_match_one_block(monkeypatch, L, 358, block_iterations,
                                      excluded={8: 2, 32: 6}[L])

    def test_signal_block_holds_samples_not_windows(self):
        # one block (nb = 976 >= N at the default _SIGNAL_BLOCK) is held
        # as its (N+L-1, R, K) input samples, not as the (N, R, K, L)
        # regressor windows (7.8 MB here): the traced peak stays well below.
        # The generator's X is a view over its N+L-1 samples, so no call
        # allocates a node-run's (N, L) windows either
        K, L, R, N = 8, 32, 4, 950
        windows = N * R * K * L * 8
        comb = identity_combiner(K)

        def run(iterations):
            run_ensemble(comb, np.full(K, 0.01), amplitude_table(CONST, nodes=K),
                         ColoredProcessParams(rho=0.8, length=L), 0.995, 0.01,
                         EnsembleSpec(runs=R, iterations=iterations, master_seed=3),
                         include_theory=False)

        run(1)  # a first call's lazy imports are not the block's memory
        tracemalloc.start()
        try:
            run(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < windows / 4

    def test_drls_mean_error_helper_matches_replay(self, monkeypatch):
        # criterion 4's ensemble mean error, summed per chunk through the
        # wrapped iteration over two chunks of 2 runs, against every run
        # replayed from its own signals in the package's arithmetic
        chunk_runs(monkeypatch, 2)
        K, L, R, N = 3, 2, 4, 60
        comb, nv = desk_network(K)
        amplitude = amplitude_table(Profile(kind="pulsed", period=8, duty_cycle=0.5,
                                            v_low=0.1, v_high=1.5), nodes=K)
        params = ColoredProcessParams(rho=0.8, length=L)
        spec = EnsembleSpec(runs=R, iterations=N, master_seed=17, algorithms=("drls",))
        traj, got = drls_mean_error_norm(monkeypatch, lambda: run_ensemble(
            comb, nv, amplitude, params, 0.995, 0.01, spec, include_theory=False), N)
        w_star, X, d = ensemble_signals(comb, nv, amplitude, params, spec)
        P = np.broadcast_to(np.eye(L) / 0.01, (R, K, L, L)).copy()
        w = np.zeros((R, K, L))
        want = np.empty(N)
        for n in range(N):
            e = d[n] - np.einsum("rki,rki->rk", X[n], w)
            P, gain = blas_step(P, X[n], 0.995)
            w = blas_combine(comb.A, w + gain * e[..., None])
            want[n] = np.linalg.norm(w.mean(axis=0) - w_star)
        assert np.array_equal(traj.w_star, w_star)
        assert (np.abs(got - want) <= 1e-12 * want).all()

    def test_initial_msd_anchor(self):
        # w_0 = 0 and ||w_star||^2 = 1: MSD at n=0 is 0 dB by construction
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=2, iterations=10, master_seed=5)
        traj = run_ensemble(comb, nv, amplitude_table(CONST, nodes=3),
                            ColoredProcessParams(rho=0.0, length=2),
                            0.995, 0.01, spec)
        assert abs(traj.w_star @ traj.w_star - 1.0) < 1e-12
        # theory initial condition: K_0 trace / K = ||w_star||^2 = 1 -> 0 dB

    def test_excluded_run_threshold(self):
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=2, iterations=50, master_seed=5)
        with pytest.raises(ExcludedRunThresholdError):
            # absurdly low guard forces exclusion of every run
            run_ensemble(comb, nv, amplitude_table(CONST, nodes=3),
                         ColoredProcessParams(rho=0.0, length=2),
                         0.995, 0.01, spec, guard=1e-6, include_theory=False)

    def test_mid_run_guard_trips_pinned(self, monkeypatch):
        # faint input lets P grow for a few hundred steps; 5 of 8 runs pass
        # the guard between iterations 389 and 400, each algorithm loses
        # the same runs, and the survivors' curves stay finite
        monkeypatch.setattr(drlsnet.harness, "_MAX_EXCLUDED_FRACTION", 1.0)
        chunk_runs(monkeypatch, 3)
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=8, iterations=400, master_seed=21)
        traj = run_ensemble(comb, nv, FAINT,
                            ColoredProcessParams(rho=0.8, length=2), 0.995, 0.01,
                            spec, guard=440.0, include_theory=False)
        pinned = [(1, 394), (2, 389), (3, 389), (4, 400), (7, 397)]
        assert traj.excluded_runs == {"rls": pinned, "drls": pinned}
        for algo in ("rls", "drls"):
            assert np.isfinite(traj.msd_empirical[algo]).all()

    def test_more_than_one_percent_excluded_is_an_error(self):
        # the pinned case above at the fixed limit: 5 of 8 runs lost fails
        # the experiment, though some runs survive
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=8, iterations=400, master_seed=21)
        with pytest.raises(ExcludedRunThresholdError,
                           match=r"5 of 8 runs excluded \(allowed: at most 1%"):
            run_ensemble(comb, nv, FAINT,
                         ColoredProcessParams(rho=0.8, length=2), 0.995, 0.01,
                         spec, guard=440.0, include_theory=False)

    def test_one_percent_excluded_is_allowed(self, monkeypatch):
        # the limit is "more than 1%": at R = 100, one run lost to a NaN
        # regressor passes and two fail the experiment
        K, R, L = 3, 100, 2
        comb, nv = desk_network(K)
        spec = EnsembleSpec(runs=R, iterations=20, master_seed=5)

        def run(bad_runs):
            monkeypatch.undo()  # the previous injection
            inject_bad_regressor(monkeypatch, R, K, L, np.nan, 5, runs=bad_runs)
            with np.errstate(invalid="ignore"):
                return run_ensemble(comb, nv, amplitude_table(CONST, nodes=K),
                                    ColoredProcessParams(rho=0.5, length=L),
                                    0.995, 0.01, spec, include_theory=False)

        traj = run({1})
        assert traj.excluded_runs == {"rls": [(1, 5)], "drls": [(1, 5)]}
        with pytest.raises(ExcludedRunThresholdError,
                           match=r"2 of 100 runs excluded \(allowed: at most 1%"):
            run({1, 2})

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_trips_guard(self, monkeypatch, bad_value):
        # a non-finite regressor at run 1, node 0, iteration 5 makes that
        # run's P non-finite; the trip check must catch NaN as well as inf
        traj = run_with_bad_regressor(monkeypatch, bad_value, 5)
        assert traj.excluded_runs == {"rls": [(1, 5)], "drls": [(1, 5)]}
        for algo in ("rls", "drls"):
            assert np.isfinite(traj.msd_empirical[algo]).all()

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_after_first_block_trips_guard(self, monkeypatch, bad_value):
        # in 4-iteration signal blocks, iteration 10 is row 1 of the third
        # block; the trip is reported at that exact iteration
        traj = run_with_bad_regressor(monkeypatch, bad_value, 10, block_iterations=4)
        assert traj.excluded_runs == {"rls": [(1, 10)], "drls": [(1, 10)]}
        for algo in ("rls", "drls"):
            assert np.isfinite(traj.msd_empirical[algo]).all()

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_at_a_block_start_trips_guard(self, monkeypatch, bad_value):
        # in 4-iteration signal blocks, iteration 9 is row 0 of the third
        # block, whose older taps come from that row too; the trip is
        # reported at that exact iteration
        traj = run_with_bad_regressor(monkeypatch, bad_value, 9, block_iterations=4)
        assert traj.excluded_runs == {"rls": [(1, 9)], "drls": [(1, 9)]}
        for algo in ("rls", "drls"):
            assert np.isfinite(traj.msd_empirical[algo]).all()

    @pytest.mark.parametrize("guard, delta, N", [
        (50.0, 0.05, 192), (200.0, 0.01, 170), (440.0, 0.01, 400), (1e12, 0.01, 400)])
    def test_bounded_trip_check_matches_every_step_check(self, monkeypatch, guard, delta, N):
        # P is scanned only when its running bound nears the guard; the runs
        # lost and the iterations they are lost at are those of a scan at
        # every step (each case but the last cuts off some runs mid-climb)
        monkeypatch.setattr(drlsnet.harness, "_MAX_EXCLUDED_FRACTION", 1.0)
        chunk_runs(monkeypatch, 3)
        monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", 3 * 3 * 2 * 64)
        comb, nv = desk_network(3)
        params = ColoredProcessParams(rho=0.8, length=2)
        spec = EnsembleSpec(runs=8, iterations=N, master_seed=21)
        want = every_step_trips(ensemble_signals(comb, nv, FAINT, params, spec)[1],
                                0.995, delta, guard)
        assert (len(want) == 0) == (guard == 1e12) and len(want) < 8
        traj = run_ensemble(comb, nv, FAINT, params, 0.995, delta, spec, guard=guard,
                            include_theory=False)
        assert traj.excluded_runs == {"rls": want, "drls": want}

    def test_bounded_trip_check_catches_nan_mid_block(self, monkeypatch):
        # the pinned mid-run case with a NaN regressor at run 1, node 0,
        # iteration 150, row 21 of the third 64-iteration block: run 1 is
        # lost there, the other runs where the every-step scan loses them
        K, R, L, N = 3, 8, 2, 400
        inject_bad_regressor(monkeypatch, R, K, L, np.nan, 150, block_iterations=64)
        monkeypatch.setattr(drlsnet.harness, "_MAX_EXCLUDED_FRACTION", 1.0)
        comb, nv = desk_network(K)
        params = ColoredProcessParams(rho=0.8, length=L)
        spec = EnsembleSpec(runs=R, iterations=N, master_seed=21)
        X = ensemble_signals(comb, nv, FAINT, params, spec)[1]
        X[150 - 1, 1, 0] = np.nan
        want = every_step_trips(X, 0.995, 0.01, 440.0)
        assert (1, 150) in want
        with np.errstate(invalid="ignore"):
            traj = run_ensemble(comb, nv, FAINT, params, 0.995, 0.01, spec, guard=440.0,
                                include_theory=False)
        assert traj.excluded_runs == {"rls": want, "drls": want}

    @pytest.mark.parametrize("guard_at", ["between", "equal", "far"])
    def test_zero_input_trips_where_an_every_step_scan_does(self, guard_at):
        # with zero input the gain is 0, P_n = P_{n-1} * fl(1/lam) and the
        # bound is fl(bound / lam): the bound follows P's growth by 1/lam
        # alone ("far": a guard 3x above P_0).  It can round below P, and P
        # passes a guard set between the two a step before the bound does
        # ("between"; the factor 2 in guard/2 covers this).  Only passing
        # the guard trips ("equal": a guard equal to P_2 trips at 3).
        # Every run trips, so the error names the first trip
        K, L, N, lam, delta = 2, 2, 120, 0.99, 0.1
        chain, P, bound = [], 1.0 / delta, 1.0 / delta  # (P_n, bound_n), n >= 1
        for _ in range(N):
            P, bound = P * (1.0 / lam), bound / lam
            chain.append((P, bound))
        guard = {"between": next(b for p, b in chain if b < p), "equal": chain[1][0],
                 "far": 3.0 / delta}[guard_at]
        want = every_step_trips(np.zeros((N, 1, K, L)), lam, delta, guard)
        assert len(want) == 1 and (guard_at != "equal" or want == [(0, 3)])
        with pytest.raises(ExcludedRunThresholdError, match=re.escape(f"first: {want}")):
            run_ensemble(identity_combiner(K), np.full(K, 0.01), np.zeros((K, 1)),
                         ColoredProcessParams(rho=0.5, length=L), lam, delta,
                         EnsembleSpec(runs=1, iterations=N, master_seed=3), guard=guard,
                         include_theory=False)

    def test_negative_entry_past_the_guard_trips(self, monkeypatch):
        # the scan reads max |P|, so a P whose largest entry in magnitude is
        # negative, as in a P that rounding has left indefinite, trips:
        # -1e3 is written off the diagonal of run 1, node 0 by the first
        # update, whose bound (about 1/delta) is past guard/2, so it scans
        update, calls = drlsnet.harness.update_inverse_correlation, []

        def corrupting(P, x, lam, work):
            gain = update(P, x, lam, work)
            calls.append(None)
            if len(calls) == 1:
                P[1, 0, 0, 1] = P[1, 0, 1, 0] = -1e3
            return gain

        monkeypatch.setattr(drlsnet.harness, "update_inverse_correlation", corrupting)
        monkeypatch.setattr(drlsnet.harness, "_MAX_EXCLUDED_FRACTION", 1.0)
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=3, iterations=20, master_seed=5)
        with np.errstate(invalid="ignore"):
            traj = run_ensemble(comb, nv, amplitude_table(CONST, nodes=3),
                                ColoredProcessParams(rho=0.5, length=2), 0.995, 0.01,
                                spec, guard=150.0, include_theory=False)
        assert traj.excluded_runs == {"rls": [(1, 1)], "drls": [(1, 1)]}

    def test_msd_averages_the_surviving_runs(self, monkeypatch):
        # the pinned mid-run case: each curve averages runs 0, 5 and 6
        # alone, bit for bit as a replay of those runs in run order
        monkeypatch.setattr(drlsnet.harness, "_MAX_EXCLUDED_FRACTION", 1.0)
        chunk_runs(monkeypatch, 3)
        comb, nv = desk_network(3)
        params = ColoredProcessParams(rho=0.8, length=2)
        spec = EnsembleSpec(runs=8, iterations=400, master_seed=21)
        traj = run_ensemble(comb, nv, FAINT, params, 0.995, 0.01, spec, guard=440.0,
                            include_theory=False)
        lost = {r for r, _ in traj.excluded_runs["drls"]}
        assert lost == {1, 2, 3, 4, 7}
        want = independent_states_msd(comb, nv, FAINT, params, 0.995, 0.01, spec, skip=lost)
        for algo in ("rls", "drls"):
            assert np.array_equal(traj.msd_empirical[algo], want[algo])

    @pytest.mark.parametrize("algorithms", [("rls", "drls"), ("rls",), ("drls",)])
    def test_shared_recursion_matches_independent_states(self, monkeypatch, algorithms):
        chunk_runs(monkeypatch, 2)
        comb, nv = desk_network(4)
        amplitude = amplitude_table(Profile(
            kind="pulsed", period=8, duty_cycle=0.5, v_low=2e-3, v_high=2.0), nodes=4)
        params = ColoredProcessParams(rho=0.8, length=3)
        spec = EnsembleSpec(runs=5, iterations=150, master_seed=17,
                            algorithms=algorithms)
        traj = run_ensemble(comb, nv, amplitude, params, 0.995, 0.01, spec,
                            include_theory=False)
        want = independent_states_msd(comb, nv, amplitude, params, 0.995, 0.01, spec)
        assert traj.msd_empirical.keys() == want.keys()
        for algo in algorithms:
            assert np.array_equal(traj.msd_empirical[algo], want[algo])

    def test_blas_step_pinned_to_einsum_oracle(self, monkeypatch):
        # the einsum oracle (symmetrized update, einsum gain and combine)
        # rounds differently from the package; over a long pulsed run with
        # faint segments the curves agree to 1e-10 relative at every iteration
        chunk_runs(monkeypatch, 3)
        comb, nv = line_network(4)
        amplitude = amplitude_table(Profile(
            kind="pulsed", period=32, duty_cycle=0.5, v_low=2e-3, v_high=2.0), nodes=4)
        params = ColoredProcessParams(rho=0.8, length=3)
        spec = EnsembleSpec(runs=4, iterations=2500, master_seed=23)
        traj = run_ensemble(comb, nv, amplitude, params, 0.995, 0.01, spec,
                            include_theory=False)
        want = independent_states_msd(comb, nv, amplitude, params, 0.995, 0.01, spec,
                                      step=einsum_step, mix=einsum_combine)
        assert traj.msd_empirical.keys() == want.keys() == {"rls", "drls"}
        for algo in ("rls", "drls"):
            rel = np.abs(traj.msd_empirical[algo] - want[algo]) / want[algo]
            assert rel.max() <= 1e-10

    def test_every_run_excluded_is_an_error(self, monkeypatch):
        # with no surviving run there is nothing to average, whatever the
        # allowed fraction
        monkeypatch.setattr(drlsnet.harness, "_MAX_EXCLUDED_FRACTION", 1.0)
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=8, iterations=400, master_seed=21)
        with pytest.raises(ExcludedRunThresholdError, match="8 of 8 runs excluded"):
            run_ensemble(comb, nv, FAINT,
                         ColoredProcessParams(rho=0.8, length=2), 0.995, 0.01,
                         spec, guard=200.0, include_theory=False)

    def test_amplitude_rows_must_match_nodes(self):
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=1, iterations=5, master_seed=5)
        for amplitude in (amplitude_table(CONST, nodes=2), amplitude_table(CONST, nodes=3)[0]):
            with pytest.raises(ValueError, match=r"expected a \(3, T\) amplitude table"):
                run_ensemble(comb, nv, amplitude, ColoredProcessParams(rho=0.5, length=2),
                             0.995, 0.01, spec, include_theory=False)

    def test_theory_only(self):
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=1, iterations=50, master_seed=5, algorithms=())
        traj = run_ensemble(comb, nv, amplitude_table(CONST, nodes=3),
                            ColoredProcessParams(rho=0.5, length=2),
                            0.995, 0.01, spec)
        assert traj.msd_empirical == {}
        assert traj.msd_theory.shape == (50,)

    def test_snapshots_collected(self):
        comb, nv = desk_network(3)
        spec = EnsembleSpec(runs=2, iterations=40, master_seed=5)
        traj = run_ensemble(comb, nv, amplitude_table(CONST, nodes=3),
                            ColoredProcessParams(rho=0.5, length=2),
                            0.995, 0.01, spec, snapshot_every=10,
                            include_theory=False)
        assert traj.snapshots["drls"]["iteration"] == [10, 20, 30, 40]
        assert traj.snapshots["drls"]["weights"][0].shape == (3, 2)


class TestCompare:
    def _traj(self, emp, th):
        from drlsnet.harness import Trajectory
        return Trajectory(iterations=len(emp), msd_empirical={"drls": np.asarray(emp)},
                          msd_theory=None if th is None else np.asarray(th),
                          mean_err_norm_theory=None)

    def test_identical_curves_zero_deviation(self):
        curve = np.geomspace(1.0, 1e-4, 1000)
        rep = compare_theory_empirical(self._traj(curve, curve))
        assert rep["steady_mean_abs_db"] == 0.0
        assert rep["transient_max_abs_db"] == 0.0

    def test_constant_offset(self):
        curve = np.geomspace(1.0, 1e-4, 1000)
        rep = compare_theory_empirical(self._traj(curve, 10 ** 0.1 * curve))
        assert rep["steady_mean_abs_db"] == pytest.approx(1.0, abs=1e-9)

    def test_missing_curve_rejected(self):
        # no report without both curves: no theory, or no empirical DRLS curve
        assert compare_theory_empirical(self._traj([1.0], None)) is None
        rls_only = self._traj([1.0], [1.0])
        rls_only.msd_empirical = {"rls": rls_only.msd_empirical["drls"]}
        assert compare_theory_empirical(rls_only) is None

    def test_windows_at_curve_bounds(self):
        # the windows are derived from N and clamped to 1..N: transient
        # min(50, N)..min(500, N), steady the last min(500, max(1, N // 4));
        # a gap of n/1000 dB at iteration n gives each window's mean and max
        for N, (lo, hi, steady) in {1: (1, 1, 1), 3: (3, 3, 1), 60: (50, 60, 15),
                                    1000: (50, 500, 250), 3000: (50, 500, 500)}.items():
            curve = np.geomspace(1.0, 1e-4, N)
            n = np.arange(1, N + 1)
            rep = compare_theory_empirical(self._traj(curve * 10 ** (n / 10000), curve))
            assert rep["transient_mean_abs_db"] == pytest.approx((lo + hi) / 2000, rel=1e-9)
            assert rep["transient_max_abs_db"] == pytest.approx(hi / 1000, rel=1e-9)
            assert rep["steady_mean_abs_db"] == pytest.approx((2 * N - steady + 1) / 2000,
                                                              rel=1e-9)
            assert rep["steady_max_abs_db"] == pytest.approx(N / 1000, rel=1e-9)


def centred_cosines(S, amplitudes):
    """The sum of a * cos(2 pi k (n - c) / S) over {k: a}, n = 0..S-1, with c
    the window's centre: each term is symmetric about c, so orthogonal to a
    line and kept whole by the detrend, and its rfft is a * S / 2 in bin k."""
    m = np.arange(S) - (S - 1) / 2
    return sum(a * np.cos(2 * np.pi * k * m / S) for k, a in amplitudes.items())


class TestDetectPeriodicity:
    def test_pure_sinusoid(self):
        n = np.arange(4096)
        curve = 1.0 + 0.5 * np.sin(2 * np.pi * n / 512)
        # the detrend line fitted to a finite window leaks a few percent
        # of broadband energy, so a perfect sinusoid lands just below 1
        assert detect_periodicity(curve, 512) > 0.95

    def test_constant_curve(self):
        assert detect_periodicity(np.ones(4096), 512) == 0.0

    def test_rounding_noise_far_from_unit_scale_scores_zero(self):
        # a flat curve at 1e6 with a few ulps of noise: its detrended energy
        # (~4e-15) is over an unscaled floor (~1e-18) but under the floor
        # scaled by the curve's mean square (~1e-6), so it is not periodic;
        # at -1e6 too, as dB curves are negative
        z = np.random.default_rng(0).standard_normal(6 * 32)
        for level in (1e6, -1e6):
            assert detect_periodicity(level * (1 + 1e-15 * z), 32) == 0.0

    def test_white_noise_scores_low(self):
        rng = np.random.default_rng(0)
        curve = rng.standard_normal(8192)
        assert detect_periodicity(curve, 4) < 0.05

    def test_window_too_short(self):
        # the window is 3 whole periods at the least: 6T samples give 3T,
        # 6T - 1 only 2T
        with pytest.raises(ValueError):
            detect_periodicity(np.ones(100), 512)
        assert detect_periodicity(np.ones(6 * 32), 32) == 0.0
        with pytest.raises(ValueError, match="3 periods"):
            detect_periodicity(np.ones(6 * 32 - 1), 32)

    def test_harmonics_counted(self):
        # square-ish wave: most energy in the fundamental plus odd harmonics
        n = np.arange(4096)
        curve = np.where((n % 64) < 32, 1.0, -1.0)
        assert detect_periodicity(curve, 64) > 0.95

    def test_reads_the_last_whole_periods_of_the_second_half(self):
        # 4T + 20 samples at 1e9 before 4T samples of faint ripple: the
        # window is the last 4T samples, and its floor comes from them alone
        T = 32
        tail = 1 + 1e-3 * np.sin(2 * np.pi * np.arange(4 * T) / T)
        curve = np.concatenate([np.full(4 * T + 20, 1e9), tail])
        assert detect_periodicity(curve, T) == detect_periodicity(np.tile(tail, 2), T) > 0.95

    def test_score_is_the_harmonic_share_of_the_detrended_energy(self):
        # on a line, tones at bins 1, 8 and 16 of a 256-sample window, where
        # at T=32 bins 8 and 16 are the harmonics; a list reads as an array
        T, S = 32, 256
        curve = np.zeros(2 * S)
        curve[S:] = centred_cosines(S, {1: 2.0, 8: 1.0, 16: 0.5}) + 3 + 0.01 * np.arange(S)
        assert detect_periodicity(curve, T) == pytest.approx(1.25 / 5.25, rel=1e-9)
        assert detect_periodicity(curve.tolist(), T) == detect_periodicity(curve, T)

    def test_floor_below_unit_mean_square_is_absolute(self):
        # under a unit mean square the floor is 1e-20 * S: a harmonic tone
        # holding 1.5 times that energy (a^2 S^2 / 4) scores, 0.5 times not
        T, S = 32, 256
        for ratio, score in ((1.5, 1.0), (0.5, 0.0)):
            tone = centred_cosines(S, {S // T: np.sqrt(ratio * 4e-20 / S)})
            assert detect_periodicity(np.concatenate([np.zeros(S), tone]), T) == \
                pytest.approx(score, abs=1e-9)

    def test_detrend_matches_scipy(self):
        # random walks at scales 1e-5..1e5 with offsets, and dB curves that
        # decay into a periodic ripple, as the detector gets them
        rng = np.random.default_rng(0)
        n = np.arange(3000)
        for _ in range(50):
            S = int(rng.integers(12, 5000))
            walk = (rng.standard_normal(S).cumsum() * 10 ** rng.uniform(-5, 5)
                    + rng.uniform(-100, 100))
            msd = to_db(np.exp(-n / rng.uniform(50, 500)) + 1e-3
                        * (1 + 0.5 * np.sin(2 * np.pi * n / 32)) + 1e-4 * rng.random(n.size))
            for seg in (walk, msd[-S:]):
                assert np.array_equal(_linear_detrend(seg), linear_detrend(seg))


def test_benchmark_tracer_records_both_filter_spans():
    # perfbench/spans.py wraps harness.drls_iteration and harness.rls_iteration
    # by name and reads the state's P and x from their arguments
    spans = load_spans()
    comb, nv = desk_network(3)
    spec = EnsembleSpec(runs=2, iterations=5, master_seed=5)
    with spans.Tracer().patch(drlsnet) as tracer:
        drlsnet.harness.run_ensemble(comb, nv, amplitude_table(CONST, nodes=3),
                                     ColoredProcessParams(rho=0.5, length=2),
                                     0.995, 0.01, spec, include_theory=False)
    assert drlsnet.harness.drls_iteration.__module__ == "drlsnet.filters"
    want = {"filters": 6, "p_bytes": 2 * 3 * 2 * 2 * 8, "runs": 2}
    for name in ("filters.drls_iteration", "filters.rls_iteration"):
        assert [span[4] for span in tracer.spans if span[0] == name] == [want] * 5
    metrics = spans.layer_metrics(tracer.spans, 1, [[]])
    assert metrics["filters.calls"] == 10
    assert metrics["filters.batch_width"] == 6
    assert metrics["harness.chunk_runs"] == 2
    assert metrics["harness.runs_attempted"] == 2
    assert metrics["filters.total_s"] > 0


def test_benchmark_tracer_counts_every_signal_block(monkeypatch):
    # perfbench/spans.py wraps harness.generate_node_signals by name and
    # takes X and d from the first two items of its result: one span per
    # node-run and block, and each computed byte counted once
    spans = load_spans()
    K, L, R, N = 3, 2, 2, 10
    monkeypatch.setattr(drlsnet.harness, "_SIGNAL_BLOCK", 4 * R * K * L)
    comb, nv = desk_network(K)
    spec = EnsembleSpec(runs=R, iterations=N, master_seed=5)
    with spans.Tracer().patch(drlsnet) as tracer:
        drlsnet.harness.run_ensemble(comb, nv, amplitude_table(CONST, nodes=3),
                                     ColoredProcessParams(rho=0.5, length=L),
                                     0.995, 0.01, spec, include_theory=False)
    metrics = spans.layer_metrics(tracer.spans, 1, [[]])
    assert metrics["signals.calls"] == 3 * R * K  # blocks of 4, 4 and 2 iterations
    assert metrics["signals.bytes_computed"] == R * K * N * (L + 1) * 8
