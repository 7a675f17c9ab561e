from pathlib import Path

import numpy as np
import pytest

from drlsnet import theory
from drlsnet.config import parse_config
from drlsnet.filters import init_state, rls_iteration
from drlsnet.network import build_combination_matrix, build_topology
from drlsnet.signals import (ColoredProcessParams, CyclostationaryProfile,
                             generate_node_signals, input_covariance,
                             make_ground_truth)
from drlsnet.theory import (TheoryTrajectory, expand_blocks,
                            expected_phi_step, initial_theory_state,
                            k_matrix_step, mean_error_step, network_msd,
                            theoretical_trajectory)

LAM = 0.995
PULSED4 = CyclostationaryProfile(kind="pulsed", period=4, duty_cycle=0.5,
                                 v_low=2e-3, v_high=2.0)
CONST = CyclostationaryProfile(kind="constant", level=1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def einsum_k_matrix_step(Kmat_prev, EPhi_n, EPhi_prev, A, lam,
                         noise_variances, R_x_n):
    """Reference second-moment step: the contractions written as einsum."""
    B = np.linalg.solve(EPhi_n, EPhi_prev)
    inner = lam ** 2 * np.einsum("pab,pqbc,qdc->pqad", B, Kmat_prev, B)
    noise = np.linalg.solve(EPhi_n, R_x_n)
    noise = np.linalg.solve(EPhi_n, np.swapaxes(noise, -1, -2))
    idx = np.arange(EPhi_n.shape[0])
    inner[idx, idx] += noise_variances[:, None, None] * noise
    out = np.einsum("pk,ql,pqab->klab", A, A, inner)
    return 0.5 * (out + np.swapaxes(np.swapaxes(out, 0, 1), -1, -2))


def _rel_dev(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestExpectedPhi:
    def test_one_step(self):
        delta = 0.01
        R1 = input_covariance(PULSED4, ColoredProcessParams(0.8, 2), 1)
        EPhi0 = np.array([delta * np.eye(2)])
        EPhi1 = expected_phi_step(EPhi0, R1[None], LAM)
        assert np.allclose(EPhi1[0], LAM * delta * np.eye(2) + R1)

    def test_geometric_limit(self):
        C = np.array([[[2.0, 0.3], [0.3, 1.0]]])
        EPhi = np.array([0.01 * np.eye(2)])
        for _ in range(5000):
            EPhi = expected_phi_step(EPhi, C, LAM)
        assert np.allclose(EPhi, C / (1 - LAM), rtol=1e-8)

    def test_block_diagonality_preserved(self):
        # the recursion never mixes node blocks; trivially structural
        K, L = 3, 2
        EPhi = np.stack([0.01 * np.eye(L)] * K)
        R = np.stack([np.eye(L) * (k + 1) for k in range(K)])
        out = expected_phi_step(EPhi, R, LAM)
        assert out.shape == (K, L, L)
        for k in range(K):
            assert np.allclose(out[k], LAM * 0.01 * np.eye(L) + R[k])

    def test_matches_monte_carlo_phi_mean(self):
        # E{Phi_n} vs sample mean of the simulated shadow recursion
        params = ColoredProcessParams(rho=0.8, length=2)
        truth = make_ground_truth(2, 0)
        runs, n_check = 2000, 100
        acc = np.zeros((2, 2))
        for r, ss in enumerate(np.random.SeedSequence(77).spawn(runs)):
            su, sz = ss.spawn(2)
            X, _ = generate_node_signals(PULSED4, params, truth, 0.0, n_check,
                                         np.random.default_rng(su),
                                         np.random.default_rng(sz))
            Phi = 0.01 * np.eye(2)
            for n in range(n_check):
                Phi = LAM * Phi + np.outer(X[n], X[n])
            acc += Phi
        acc /= runs
        EPhi = np.array([0.01 * np.eye(2)])
        for n in range(1, n_check + 1):
            EPhi = expected_phi_step(
                EPhi, input_covariance(PULSED4, params, n)[None], LAM)
        dev = np.linalg.norm(acc - EPhi[0]) / np.linalg.norm(EPhi[0])
        assert dev < 0.03


class TestMeanError:
    def test_zero_fixed_point(self):
        K, L = 2, 3
        EPhi = np.stack([np.eye(L)] * K)
        A = np.full((K, K), 0.5)
        out = mean_error_step(np.zeros((K, L)), EPhi, EPhi, A, LAM)
        assert np.array_equal(out, np.zeros((K, L)))

    def test_scalar_hand_iteration(self):
        # K=1, L=1, constant input power r: hand-iterable recursion
        r, delta = 1.7, 0.01
        phi_prev = delta
        m_hand = -1.0
        mean = np.array([[-1.0]])
        EPhi = np.array([[[delta]]])
        A = np.array([[1.0]])
        for n in range(1000):
            phi = LAM * phi_prev + r
            m_hand = LAM * (phi_prev / phi) * m_hand
            R = np.array([[[r]]])
            EPhi_n = expected_phi_step(EPhi, R, LAM)
            mean = mean_error_step(mean, EPhi_n, EPhi, A, LAM)
            assert abs(mean[0, 0] - m_hand) < 1e-12
            EPhi = EPhi_n
            phi_prev = phi

    def test_stationary_decay_bound(self):
        # E{Phi_n}^-1 E{Phi_{n-1}} -> I so the decay approaches lam^n
        topo = build_topology("ring", 4)
        A = build_combination_matrix(topo).A
        params = ColoredProcessParams(rho=0.8, length=3)
        w = make_ground_truth(3, 1).w_star
        traj = theoretical_trajectory(CONST, params, A,
                                      np.full(4, 0.05), w, LAM, 0.01, 3000)
        n0 = 500
        ratio = traj.mean_err_norm[2999] / traj.mean_err_norm[n0 - 1]
        assert ratio <= LAM ** (3000 - n0) * 1.01

    def test_iteration_map_contracts_after_burn_in(self):
        # spectral norm of lam * calA * EPhi_n^-1 EPhi_{n-1} drops below 1
        topo = build_topology("ring", 3)
        A = build_combination_matrix(topo).A
        params = ColoredProcessParams(rho=0.8, length=2)
        R = input_covariance(CONST, params, 0)
        K, L = 3, 2
        EPhi = np.stack([0.01 * np.eye(L)] * K)
        calA = np.kron(A.T, np.eye(L))
        for n in range(1, 200):
            EPhi_n = expected_phi_step(EPhi, np.stack([R] * K), LAM)
            B = np.linalg.solve(EPhi_n, EPhi)
            dense_B = np.zeros((K * L, K * L))
            for k in range(K):
                dense_B[k * L:(k + 1) * L, k * L:(k + 1) * L] = B[k]
            spectral = np.linalg.norm(LAM * calA @ dense_B, 2)
            if n > 20:
                assert spectral < 1
            EPhi = EPhi_n


class TestKMatrix:
    def test_noiseless_stationary_vanishes(self):
        topo = build_topology("ring", 3)
        A = build_combination_matrix(topo).A
        params = ColoredProcessParams(rho=0.5, length=2)
        w = make_ground_truth(2, 2).w_star
        traj = theoretical_trajectory(CONST, params, A, np.zeros(3),
                                      w, LAM, 0.01, 4000)
        assert traj.msd[-1] < 1e-12

    def test_scalar_hand_iteration(self):
        # k_n = lam^2 (phi_{n-1}/phi_n)^2 k_{n-1} + sz2 * r / phi_n^2
        r, delta, sz2 = 1.3, 0.01, 0.05
        phi_prev, k_hand = delta, 1.0
        A = np.array([[1.0]])
        EPhi = np.array([[[delta]]])
        Kmat = np.array([[[[1.0]]]])
        for n in range(1000):
            phi = LAM * phi_prev + r
            k_hand = LAM ** 2 * (phi_prev / phi) ** 2 * k_hand + sz2 * r / phi ** 2
            R = np.array([[[r]]])
            EPhi_n = expected_phi_step(EPhi, R, LAM)
            Kmat = k_matrix_step(Kmat, EPhi_n, EPhi, A, LAM,
                                 np.array([sz2]), R)
            assert abs(Kmat[0, 0, 0, 0] - k_hand) < 1e-12 * max(1.0, k_hand)
            EPhi, phi_prev = EPhi_n, phi

    def test_blockwise_equals_dense(self):
        # contract: block application of A^T (x) I matches the dense product
        rng = np.random.default_rng(3)
        K, L = 3, 2
        topo = build_topology("ring", K)
        A = build_combination_matrix(topo).A
        M = rng.standard_normal((K * L, K * L))
        Kprev_dense = M @ M.T
        Kprev = Kprev_dense.reshape(K, L, K, L).transpose(0, 2, 1, 3).copy()
        EPhi_prev = np.stack([np.eye(L) * (k + 2) for k in range(K)])
        R = np.stack([input_covariance(CONST, ColoredProcessParams(0.5, L), 0)] * K)
        EPhi_n = expected_phi_step(EPhi_prev, R, LAM)
        sz = np.array([0.1, 0.2, 0.3])
        out = k_matrix_step(Kprev, EPhi_n, EPhi_prev, A, LAM, sz, R)

        calA = np.kron(A.T, np.eye(L))
        EPhi_n_d = np.zeros((K * L, K * L))
        EPhi_p_d = np.zeros((K * L, K * L))
        Sz = np.zeros((K * L, K * L))
        Rd = np.zeros((K * L, K * L))
        for k in range(K):
            sl = slice(k * L, (k + 1) * L)
            EPhi_n_d[sl, sl] = EPhi_n[k]
            EPhi_p_d[sl, sl] = EPhi_prev[k]
            Sz[sl, sl] = sz[k] * np.eye(L)
            Rd[sl, sl] = R[k]
        inv = np.linalg.inv(EPhi_n_d)
        dense = calA @ (LAM ** 2 * inv @ EPhi_p_d @ Kprev_dense @ EPhi_p_d @ inv
                        + inv @ Sz @ Rd @ inv) @ calA.T
        dense = 0.5 * (dense + dense.T)
        assert np.abs(expand_blocks(out) - dense).max() < 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("K, L", [(1, 1), (1, 4), (4, 1), (2, 5), (5, 2),
                                      (4, 4), (7, 3)])
    def test_matches_einsum_oracle(self, K, L):
        # random SPD blocks and a non-symmetric column-stochastic A
        rng = np.random.default_rng(100 * K + L)

        def spd_blocks():
            M = rng.standard_normal((K, L, L))
            return M @ np.swapaxes(M, -1, -2) + 0.1 * np.eye(L)

        M = rng.standard_normal((K * L, K * L))
        Kprev = (M @ M.T).reshape(K, L, K, L).transpose(0, 2, 1, 3).copy()
        EPhi_prev, R = spd_blocks(), spd_blocks()
        EPhi_n = expected_phi_step(EPhi_prev, R, LAM)
        A = rng.random((K, K))
        A /= A.sum(axis=0)
        if K > 1:
            assert not np.allclose(A, A.T)
        sz = rng.uniform(0.01, 0.1, K)
        out = k_matrix_step(Kprev, EPhi_n, EPhi_prev, A, LAM, sz, R)
        want = einsum_k_matrix_step(Kprev, EPhi_n, EPhi_prev, A, LAM, sz, R)
        assert out.shape == (K, K, L, L)
        assert _rel_dev(out, want) <= 1e-12

    def test_symmetry_and_psd_over_many_steps(self):
        topo = build_topology("random_geometric", 5, radius=0.6, seed=2)
        A = build_combination_matrix(topo).A
        params = ColoredProcessParams(rho=0.8, length=2)
        w = make_ground_truth(2, 4).w_star
        profile = CyclostationaryProfile(kind="pulsed", period=16,
                                         duty_cycle=0.5, v_low=2e-3, v_high=2.0)
        K, L = 5, 2
        state = initial_theory_state(K, L, 0.01, w)
        EPhi = state.EPhi
        Kmat = state.Kmat
        sz = np.full(K, 0.05)
        for n in range(1, 10_001):
            R = np.broadcast_to(input_covariance(profile, params, n), (K, L, L))
            EPhi_n = expected_phi_step(EPhi, R, LAM)
            Kmat = k_matrix_step(Kmat, EPhi_n, EPhi, A, LAM, sz, R)
            EPhi = EPhi_n
            if n % 500 == 0:
                dense = expand_blocks(Kmat)
                scale = np.abs(dense).max()
                assert np.abs(dense - dense.T).max() < 1e-9 * scale
                assert np.linalg.eigvalsh(dense).min() > -1e-9 * np.linalg.norm(dense)


class TestNetworkMsd:
    def test_identity_blocks(self):
        K, L = 4, 3
        Kmat = np.zeros((K, K, L, L))
        for k in range(K):
            Kmat[k, k] = np.eye(L)
        assert network_msd(Kmat) == pytest.approx(L)  # trace = K*L

    def test_initial_msd_is_one(self):
        w = make_ground_truth(6, 5).w_star
        state = initial_theory_state(3, 6, 0.01, w)
        assert network_msd(state.Kmat) == pytest.approx(1.0, abs=1e-12)


class TestTrajectory:
    def test_scalar_full_pipeline_matches_simple_loop(self):
        params = ColoredProcessParams(rho=0.0, length=1)
        A = np.array([[1.0]])
        traj = theoretical_trajectory(CONST, params, A, np.array([0.02]),
                                      np.array([1.0]), LAM, 0.01, 300)
        assert isinstance(traj, TheoryTrajectory)
        # independent scalar re-iteration
        phi, m, k = 0.01, -1.0, 1.0
        for n in range(300):
            phi_n = LAM * phi + 1.0
            m = LAM * (phi / phi_n) * m
            k = LAM ** 2 * (phi / phi_n) ** 2 * k + 0.02 * 1.0 / phi_n ** 2
            phi = phi_n
            assert abs(traj.msd[n] - k) < 1e-12 * max(1.0, k)
            assert abs(traj.mean_err_norm[n] - abs(m)) < 1e-12

    def test_monotone_after_transient_stationary(self):
        params = ColoredProcessParams(rho=0.8, length=2)
        A = np.array([[1.0]])
        traj = theoretical_trajectory(CONST, params, A, np.array([0.05]),
                                      make_ground_truth(2, 6).w_star,
                                      LAM, 0.01, 2000)
        tail = traj.msd[100:]
        assert (np.diff(tail) <= 1e-15).all()

    def test_slow_pulsed_oscillates_fast_does_not(self):
        topo = build_topology("ring", 4)
        A = build_combination_matrix(topo).A
        params = ColoredProcessParams(rho=0.8, length=4)
        w = make_ground_truth(4, 7).w_star
        sz = np.full(4, 0.05)
        curves = {}
        for T in (4, 512):
            prof = CyclostationaryProfile(kind="pulsed", period=T,
                                          duty_cycle=0.5, v_low=2e-3, v_high=2.0)
            curves[T] = theoretical_trajectory(prof, params, A, sz, w,
                                               LAM, 0.01, 4000).msd
        db = {T: 10 * np.log10(c[-2048:]) for T, c in curves.items()}
        swing = {T: db[T].max() - db[T].min() for T in db}
        assert swing[512] > 2.0       # visible period-512 fluctuation
        assert swing[4] < 0.5         # fast variation averaged away

    def test_per_node_profiles_supported(self):
        params = ColoredProcessParams(rho=0.5, length=2)
        topo = build_topology("ring", 3)
        A = build_combination_matrix(topo).A
        profs = [CyclostationaryProfile(kind="pulsed", period=8, duty_cycle=0.5,
                                        v_low=2e-3, v_high=2.0, phase=p)
                 for p in (0, 2, 4)]
        traj = theoretical_trajectory(profs, params, A, np.full(3, 0.05),
                                      make_ground_truth(2, 8).w_star,
                                      LAM, 0.01, 100)
        assert np.isfinite(traj.msd).all()

    @pytest.mark.parametrize("period, taps", [(8, 5), (3, 7)])
    def test_per_step_input_covariance_is_input_covariance(self, monkeypatch,
                                                           period, taps):
        # every R_x(n) the trajectory feeds its steps, n = 1..2T
        params = ColoredProcessParams(rho=0.7, length=taps)
        profs = [CyclostationaryProfile(kind="pulsed", period=period, duty_cycle=0.5,
                                        v_low=2e-3, v_high=2.0, phase=p)
                 for p in (0, 2, 5)]
        A = build_combination_matrix(build_topology("ring", 3)).A
        seen = []
        step = theory.expected_phi_step

        def recording(EPhi_prev, R_x_n, lam):
            seen.append(R_x_n.copy())
            return step(EPhi_prev, R_x_n, lam)

        monkeypatch.setattr(theory, "expected_phi_step", recording)
        theoretical_trajectory(profs, params, A, np.full(3, 0.05),
                               make_ground_truth(taps, 3).w_star,
                               LAM, 0.01, 2 * period)
        assert len(seen) == 2 * period
        for n, R in enumerate(seen, start=1):
            want = np.stack([input_covariance(p, params, n) for p in profs])
            assert np.array_equal(R, want), n

    def test_profile_count_mismatch_rejected(self):
        params = ColoredProcessParams(rho=0.5, length=2)
        with pytest.raises(ValueError):
            theoretical_trajectory([CONST], params, np.eye(2), np.full(2, 0.05),
                                   make_ground_truth(2, 9).w_star, LAM, 0.01, 10)


class TestFullScale:
    def test_reproduction_network_theory_smoke(self, monkeypatch):
        # configs/reproduction_T512.ini network (K=20, L=32, T=512), 200 steps
        cfg = parse_config(CONFIGS / "reproduction_T512.ini")
        L = cfg["signal"]["taps"]
        oracle_dev = []
        step = theory.k_matrix_step

        def checked(*args):
            out = step(*args)
            assert np.array_equal(out, np.swapaxes(np.swapaxes(out, 0, 1), -1, -2))
            if len(oracle_dev) < 3:
                oracle_dev.append(_rel_dev(out, einsum_k_matrix_step(*args)))
            return out

        monkeypatch.setattr(theory, "k_matrix_step", checked)
        traj = theoretical_trajectory(
            cfg.build_profiles(), cfg.process_params(), cfg.build_combiner().A,
            cfg.noise_variances(), make_ground_truth(L, 0).w_star,
            cfg["algorithm"]["forgetting_factor"], cfg["algorithm"]["delta"], 200)
        assert traj.msd.shape == (200,)
        assert np.isfinite(traj.msd).all() and (traj.msd > 0).all()
        assert len(oracle_dev) == 3
        assert max(oracle_dev) <= 1e-12
