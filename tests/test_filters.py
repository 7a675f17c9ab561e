import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drlsnet.filters import (DrlsNetworkState, adapt, combine, drls_iteration,
                             init_state, rls_iteration, update_inverse_correlation)
from drlsnet.network import build_combination_matrix, build_topology
from drlsnet.signals import ColoredProcessParams, generate_node_signals, make_ground_truth
from oracles import Profile, amplitude_table

LAM = 0.995


def update(P, x, lam):
    """update_inverse_correlation with a fresh work buffer; returns the gain."""
    return update_inverse_correlation(P, x, lam, np.empty_like(P))


def rls_step(state, x, d, lam):
    """Standalone RLS: advance the state's own P, then its estimate."""
    return rls_iteration(state, x, d, update(state.P, x, lam))


def drls_step(net, x, d, lam):
    """Standalone DRLS: advance the network's own P, then adapt and combine."""
    return drls_iteration(net, x, d, update(net.nodes.P, x, lam))


class TestInitState:
    def test_p_is_inverse_delta(self):
        state = init_state(2, delta=0.01)
        assert np.allclose(state.P, 100 * np.eye(2))
        assert np.allclose(state.P @ (0.01 * np.eye(2)), np.eye(2))
        assert np.array_equal(state.w, np.zeros(2))

    def test_first_error_equals_d(self):
        # w_0 = 0, so the prior error d - x^T w is d and psi = g d
        state = init_state(3, delta=0.1)
        x, d = np.ones(3), 4.2
        gain = update(state.P, x, LAM)
        assert d - x @ state.w == pytest.approx(4.2)
        assert np.allclose(adapt(state, x, d, gain), gain * 4.2)


class TestInverseCorrelationUpdate:
    def test_zero_regressor(self):
        P = np.array([[2.0, 0.5], [0.5, 1.0]])
        Pn = P.copy()
        gain = update(Pn, np.zeros(2), 0.9)
        assert np.allclose(Pn, P / 0.9)
        assert np.array_equal(gain, np.zeros(2))

    def test_scalar_oracle(self):
        # Phi' = lam*Phi + x^2 inverted directly
        Pn = np.array([[100.0]])
        update(Pn, np.array([1.0]), 0.995)
        assert Pn[0, 0] == pytest.approx(1.0 / (0.995 * 0.01 + 1.0))

    def test_gain_is_updated_p_times_x(self):
        # the returned Px / denom equals P' x in exact arithmetic
        rng = np.random.default_rng(3)
        L = 6
        M = rng.standard_normal((4, 5, L, L))
        P = M @ np.swapaxes(M, -1, -2) + np.eye(L)
        x = rng.standard_normal((4, 5, L))
        for lam in (0.9, 0.995):
            Pn = P.copy()
            gain = update(Pn, x, lam)
            want = np.einsum("...ij,...j->...i", Pn, x)
            assert np.abs(gain - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(0)
        L = 5
        M = rng.standard_normal((L, L))
        P = M @ M.T + np.eye(L)
        Phi = np.linalg.inv(P)
        for _ in range(50):
            x = rng.standard_normal(L)
            update(P, x, LAM)
            Phi = LAM * Phi + np.outer(x, x)
            direct = np.linalg.inv(Phi)
            assert np.linalg.norm(P - direct) / np.linalg.norm(direct) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.floats(0.9, 0.999))
    def test_shadow_recursion_property(self, seed, lam):
        rng = np.random.default_rng(seed)
        L = 3
        delta = 0.05
        P = np.eye(L) / delta
        Phi = delta * np.eye(L)
        for _ in range(30):
            x = rng.standard_normal(L)
            update(P, x, lam)
            Phi = lam * Phi + np.outer(x, x)
            assert np.linalg.norm(P @ Phi - np.eye(L)) < 1e-8


class TestAdapt:
    def test_zero_error_no_movement(self):
        state = init_state(2, delta=0.01)
        state.w = np.array([1.0, -1.0])
        x = np.array([1.0, 1.0])
        d = float(x @ state.w)  # e = 0
        psi = adapt(state, x, d, update(state.P, x, LAM))
        assert np.allclose(psi, state.w)

    def test_scalar_noiseless_convergence(self):
        # the delta-induced bias decays like lam**n; lam=0.95 puts it far
        # below the tolerance within 500 steps
        state = init_state(1, delta=0.01)
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = rng.standard_normal(1)
            rls_step(state, x, float(x[0] * 0.7), 0.95)
        assert state.w[0] == pytest.approx(0.7, abs=1e-6)

    def test_single_step_small_delta_is_ls(self):
        # delta small enough to be negligible, large enough to avoid
        # catastrophic cancellation in the rank-one update
        state = init_state(1, delta=1e-8)
        x, d = np.array([2.0]), 3.0
        psi = adapt(state, x, d, update(state.P, x, LAM))
        assert psi[0] == pytest.approx(d / x[0], rel=1e-6)


class TestCombine:
    def test_identity_keeps_psi(self):
        w = combine(np.eye(3), np.arange(6.0).reshape(3, 2))
        assert np.array_equal(w, np.arange(6.0).reshape(3, 2))

    def test_consensus_fixed_point(self):
        A = build_combination_matrix(build_topology("ring", 5)).A
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(combine(A, np.tile(v, (5, 1))), np.tile(v, (5, 1)),
                           atol=1e-15)

    def test_two_node_average(self):
        # psi_1 = e1, psi_2 = e2
        assert np.allclose(combine(np.full((2, 2), 0.5), np.eye(2)), np.full((2, 2), 0.5))

    def test_left_stochastic_weights_combine_by_column(self):
        # w_k = sum_l a_{lk} psi_l: node k reads column k of A, and psi is
        # left as it was
        A = np.array([[1.0, 0.25], [0.0, 0.75]])
        psi = np.array([[4.0], [8.0]])
        assert np.array_equal(combine(A, psi), np.array([[4.0], [7.0]]))
        assert np.array_equal(psi, np.array([[4.0], [8.0]]))


def make_node_data(K, L, N, sigma_z, seed, period=1, kind="constant"):
    profile = (Profile(kind="constant", level=1.0) if kind == "constant"
               else Profile(kind="pulsed", period=period,
                            duty_cycle=0.5, v_low=2e-3, v_high=2.0))
    amplitude = amplitude_table(profile)[0]
    params = ColoredProcessParams(rho=0.8, length=L)
    w_star = make_ground_truth(L, seed)
    X = np.empty((K, N, L))
    d = np.empty((K, N))
    for k, ss in enumerate(np.random.SeedSequence(seed).spawn(K)):
        su, sz = ss.spawn(2)
        X[k], d[k], _ = generate_node_signals(amplitude, params, w_star, sigma_z, N,
                                              np.random.default_rng(su),
                                              np.random.default_rng(sz))
    return X, d, w_star


class TestIterations:
    def test_identity_network_equals_independent_rls(self):
        K, L, N = 4, 3, 1000
        X, d, _ = make_node_data(K, L, N, 0.1, seed=5)
        net = DrlsNetworkState(init_state(L, 0.01, (K,)), np.eye(K))
        rls_states = [init_state(L, 0.01) for _ in range(K)]
        for n in range(N):
            drls_step(net, X[:, n, :], d[:, n], LAM)
            for k in range(K):
                rls_step(rls_states[k], X[k, n], d[k, n], LAM)
        for k in range(K):
            assert np.abs(net.nodes.w[k] - rls_states[k].w).max() < 1e-12

    def test_noiseless_network_convergence(self):
        K, L, N = 5, 8, 1000
        X, d, w_star = make_node_data(K, L, N, 0.0, seed=6)
        topo = build_topology("ring", K)
        net = DrlsNetworkState(init_state(L, 0.01, (K,)), build_combination_matrix(topo).A)
        for n in range(N):
            drls_step(net, X[:, n, :], d[:, n], 0.95)
        assert np.linalg.norm(net.nodes.w - w_star, axis=1).max() < 1e-6

    def test_iterations_return_the_updated_estimate(self):
        X, d, _ = make_node_data(3, 2, 5, 0.1, seed=4)
        A = build_combination_matrix(build_topology("ring", 3)).A
        net = DrlsNetworkState(init_state(2, 0.01, (3,)), A)
        solo = init_state(2, 0.01, batch_shape=(3,))
        for n in range(5):
            w = drls_step(net, X[:, n, :], d[:, n], LAM)
            assert w is net.nodes.w and w.shape == (3, 2)
            assert rls_step(solo, X[:, n, :], d[:, n], LAM) is solo.w

    def test_sample_count_must_match(self):
        net = DrlsNetworkState(init_state(2, 0.01, (3,)), np.eye(3))
        with pytest.raises(ValueError):
            drls_iteration(net, np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))

    def test_lambda_one_matches_normal_equations(self):
        # growing window: Phi = delta*I + sum x x^T, w = Phi^-1 sum x d
        L, N, delta = 4, 200, 0.5
        rng = np.random.default_rng(7)
        state = init_state(L, delta)
        Phi = delta * np.eye(L)
        b = np.zeros(L)
        w_true = rng.standard_normal(L)
        for _ in range(N):
            x = rng.standard_normal(L)
            d = float(x @ w_true) + 0.1 * rng.standard_normal()
            rls_step(state, x, d, 1.0)
            Phi += np.outer(x, x)
            b += x * d
        w_ls = np.linalg.solve(Phi, b)
        assert np.linalg.norm(state.w - w_ls) / np.linalg.norm(w_ls) < 1e-8

    def test_cooperation_beats_noncooperation_stationary(self):
        K, L, N = 10, 4, 2500
        X, d, w_star = make_node_data(K, L, N, np.sqrt(0.05), seed=8)
        topo = build_topology("random_geometric", K, radius=0.45, seed=7)
        net = DrlsNetworkState(init_state(L, 0.01, (K,)), build_combination_matrix(topo).A)
        solo = init_state(L, 0.01, batch_shape=(K,))
        msd_net = msd_solo = 0.0
        for n in range(N):
            drls_step(net, X[:, n, :], d[:, n], LAM)
            rls_step(solo, X[:, n, :], d[:, n], LAM)
            if n >= N - 500:
                msd_net += np.sum((net.nodes.w - w_star) ** 2)
                msd_solo += np.sum((solo.w - w_star) ** 2)
        assert msd_net < msd_solo

    def test_long_pulsed_run_keeps_P_symmetric_pd(self):
        # conditioning stress: 1e5 iterations with V_l = 2e-3 low segments
        L, N = 2, 100_000
        amplitude = amplitude_table(Profile(
            kind="pulsed", period=64, duty_cycle=0.5, v_low=2e-3, v_high=2.0))[0]
        params = ColoredProcessParams(rho=0.8, length=L)
        w_star = make_ground_truth(L, 9)
        X, d, _ = generate_node_signals(amplitude, params, w_star, 0.1, N,
                                        np.random.default_rng(10),
                                        np.random.default_rng(11))
        state = init_state(L, 0.01)
        for n in range(N):
            rls_step(state, X[n], d[n], LAM)
            if n % 5000 == 0:
                assert np.array_equal(state.P, state.P.T)
                assert np.linalg.eigvalsh(state.P).min() > 0
        assert np.isfinite(state.P).all()

