import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from drlsnet import theory
from drlsnet.config import parse_config
from drlsnet.network import build_combination_matrix, build_topology
from drlsnet.signals import ColoredProcessParams, make_ground_truth
from drlsnet.theory import (TheoryError, expected_phi_step,
                            initial_theory_state, k_matrix_step,
                            mean_error_step, network_msd,
                            theoretical_trajectory, transition_blocks)
from oracles import Profile, amplitude_table, input_covariance, noise_term, per_node_theory

LAM = 0.995
PULSED4 = Profile(kind="pulsed", period=4, duty_cycle=0.5,
                  v_low=2e-3, v_high=2.0)
CONST = Profile(kind="constant", level=1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def expand_blocks(Kmat: np.ndarray) -> np.ndarray:
    """Dense KL x KL view of a (K, K, L, L) block grid (small sizes)."""
    K, _, L, _ = Kmat.shape
    return Kmat.transpose(0, 2, 1, 3).reshape(K * L, K * L)


def einsum_k_matrix_step(Kmat_prev, B, noise, A, lam, noise_variances):
    """Reference second-moment step: the contractions written as einsum."""
    inner = lam ** 2 * np.einsum("pab,pqbc,qdc->pqad", B, Kmat_prev, B)
    idx = np.arange(len(B))
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


class TestMeanError:
    def test_zero_fixed_point(self):
        K, L = 2, 3
        EPhi = np.stack([np.eye(L)] * K)
        A = np.full((K, K), 0.5)
        out = mean_error_step(np.zeros((K, L)), transition_blocks(EPhi, EPhi), A, LAM)
        assert np.array_equal(out, np.zeros((K, L)))

    def test_combines_by_a_transpose(self):
        # ATC: w_k = sum_l a_{lk} psi_l, so the mean error mixes by
        # cA = A^T (x) I_L; a non-symmetric A tells A^T from A
        K, L = 3, 2
        A = np.array([[0.5, 0.2, 0.0], [0.5, 0.3, 0.4], [0.0, 0.5, 0.6]])
        rng = np.random.default_rng(3)
        B, prev = rng.standard_normal((K, L, L)), rng.standard_normal((K, L))
        blockdiag = np.zeros((K * L, K * L))
        for k in range(K):
            blockdiag[k * L:(k + 1) * L, k * L:(k + 1) * L] = B[k]
        want = LAM * np.kron(A.T, np.eye(L)) @ blockdiag @ prev.ravel()
        got = mean_error_step(prev, B, A, LAM)
        assert np.allclose(got.ravel(), want, rtol=1e-13, atol=0)

    def test_stationary_decay_bound(self):
        # E{Phi_n}^-1 E{Phi_{n-1}} -> I so the decay approaches lam^n
        topo = build_topology("ring", 4)
        A = build_combination_matrix(topo).A
        params = ColoredProcessParams(rho=0.8, length=3)
        w = make_ground_truth(3, 1)
        _, err_norm = theoretical_trajectory(amplitude_table(CONST, nodes=4), params, A,
                                             np.full(4, 0.05), w, LAM, 0.01, 3000)
        n0 = 500
        ratio = err_norm[2999] / err_norm[n0 - 1]
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
        w = make_ground_truth(2, 2)
        msd, _ = theoretical_trajectory(amplitude_table(CONST, nodes=3), params, A,
                                        np.zeros(3), w, LAM, 0.01, 4000)
        assert msd[-1] < 1e-12

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
        out = k_matrix_step(Kprev, transition_blocks(EPhi_n, EPhi_prev),
                            noise_term(EPhi_n, R), A, LAM, sz, np.empty_like(Kprev))

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
        B = np.linalg.solve(EPhi_n, EPhi_prev)
        noise = noise_term(EPhi_n, R)
        want = einsum_k_matrix_step(Kprev, B, noise, A, LAM, sz)
        # K_n overwrites K_{n-1}; what `work` held before is never read
        out = k_matrix_step(Kprev, B, noise, A, LAM, sz, np.full_like(Kprev, np.nan))
        assert out is Kprev
        assert out.shape == (K, K, L, L)
        assert _rel_dev(out, want) <= 1e-12

    def test_symmetry_and_psd_over_many_steps(self):
        topo = build_topology("random_geometric", 5, radius=0.6, seed=2)
        A = build_combination_matrix(topo).A
        params = ColoredProcessParams(rho=0.8, length=2)
        w = make_ground_truth(2, 4)
        profile = Profile(kind="pulsed", period=16,
                          duty_cycle=0.5, v_low=2e-3, v_high=2.0)
        K, L = 5, 2
        EPhi, _, Kmat = initial_theory_state(K, L, 0.01, w)
        sz = np.full(K, 0.05)
        work = np.empty_like(Kmat)
        for n in range(1, 10_001):
            R = np.broadcast_to(input_covariance(profile, params, n), (K, L, L))
            EPhi_n = expected_phi_step(EPhi, R, LAM)
            Kmat = k_matrix_step(Kmat, transition_blocks(EPhi_n, EPhi), noise_term(EPhi_n, R),
                                 A, LAM, sz, work)
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
        w = make_ground_truth(6, 5)
        _, _, Kmat = initial_theory_state(3, 6, 0.01, w)
        assert network_msd(Kmat) == pytest.approx(1.0, abs=1e-12)

    def test_initial_state_starts_from_zero_weights(self):
        # w_0 = 0: every node's mean error is -w_star, every K_0 block is
        # w_star w_star^T, and E{Phi_0} = delta I per node
        w = make_ground_truth(4, 2)
        EPhi, mean_err, Kmat = initial_theory_state(3, 4, 0.01, w)
        assert np.array_equal(mean_err, np.tile(-w, (3, 1)))
        assert np.array_equal(Kmat, np.broadcast_to(np.outer(w, w), (3, 3, 4, 4)))
        assert np.array_equal(EPhi, np.broadcast_to(0.01 * np.eye(4), (3, 4, 4)))


class TestTrajectory:
    def test_scalar_full_pipeline_matches_simple_loop(self):
        params = ColoredProcessParams(rho=0.0, length=1)
        A = np.array([[1.0]])
        msd, err_norm = theoretical_trajectory(amplitude_table(CONST), params, A,
                                               np.array([0.02]), np.array([1.0]),
                                               LAM, 0.01, 300)
        assert msd.shape == err_norm.shape == (300,)
        # independent scalar re-iteration
        phi, m, k = 0.01, -1.0, 1.0
        for n in range(300):
            phi_n = LAM * phi + 1.0
            m = LAM * (phi / phi_n) * m
            k = LAM ** 2 * (phi / phi_n) ** 2 * k + 0.02 * 1.0 / phi_n ** 2
            phi = phi_n
            assert abs(msd[n] - k) < 1e-12 * max(1.0, k)
            assert abs(err_norm[n] - abs(m)) < 1e-12

    def test_monotone_after_transient_stationary(self):
        params = ColoredProcessParams(rho=0.8, length=2)
        A = np.array([[1.0]])
        msd, _ = theoretical_trajectory(amplitude_table(CONST), params, A, np.array([0.05]),
                                        make_ground_truth(2, 6), LAM, 0.01, 2000)
        tail = msd[100:]
        assert (np.diff(tail) <= 1e-15).all()

    def test_slow_pulsed_oscillates_fast_does_not(self):
        topo = build_topology("ring", 4)
        A = build_combination_matrix(topo).A
        params = ColoredProcessParams(rho=0.8, length=4)
        w = make_ground_truth(4, 7)
        sz = np.full(4, 0.05)
        curves = {}
        for T in (4, 512):
            amplitude = amplitude_table(Profile(
                kind="pulsed", period=T, duty_cycle=0.5, v_low=2e-3, v_high=2.0), nodes=4)
            curves[T], _ = theoretical_trajectory(amplitude, params, A, sz, w,
                                                  LAM, 0.01, 4000)
        db = {T: 10 * np.log10(c[-2048:]) for T, c in curves.items()}
        swing = {T: db[T].max() - db[T].min() for T in db}
        assert swing[512] > 2.0       # visible period-512 fluctuation
        assert swing[4] < 0.5         # fast variation averaged away

    def test_per_node_profiles_supported(self):
        params = ColoredProcessParams(rho=0.5, length=2)
        topo = build_topology("ring", 3)
        A = build_combination_matrix(topo).A
        profs = [Profile(kind="pulsed", period=8, duty_cycle=0.5,
                         v_low=2e-3, v_high=2.0, phase=p)
                 for p in (0, 2, 4)]
        msd, _ = theoretical_trajectory(amplitude_table(*profs), params, A, np.full(3, 0.05),
                                        make_ground_truth(2, 8), LAM, 0.01, 100)
        assert np.isfinite(msd).all()

    def test_one_transition_solve_per_step(self, monkeypatch):
        # B is solved once per step and distinct sigma_x row (one row here),
        # and the same per-node gather of it reaches both steps; each step
        # function is still called once per step
        calls = {name: [] for name in ("transition_blocks", "expected_phi_step",
                                       "mean_error_step", "k_matrix_step")}
        for name, record in calls.items():
            def spy(*args, _fn=getattr(theory, name), _record=record,
                    _keep_out=name == "transition_blocks"):
                out = _fn(*args)
                _record.append(out if _keep_out else args)
                return out
            monkeypatch.setattr(theory, name, spy)
        A = build_combination_matrix(build_topology("ring", 3)).A
        amplitude = amplitude_table(PULSED4, nodes=3)
        group = np.unique(amplitude, axis=0, return_inverse=True)[1]
        theoretical_trajectory(amplitude, ColoredProcessParams(rho=0.5, length=2), A,
                               np.full(3, 0.05), make_ground_truth(2, 1),
                               LAM, 0.01, 9)
        assert [len(v) for v in calls.values()] == [9] * 4
        for B, mean_args, k_args in zip(calls["transition_blocks"],
                                        calls["mean_error_step"], calls["k_matrix_step"]):
            assert B.shape == (1, 2, 2)
            assert k_args[1] is mean_args[1]
            assert np.array_equal(mean_args[1], B[group])

    @pytest.mark.parametrize("period, taps", [(8, 5), (3, 7)])
    def test_per_step_input_covariance_is_input_covariance(self, monkeypatch,
                                                           period, taps):
        # every R_x(n) the trajectory feeds its steps, n = 1..2T, one per
        # distinct sigma_x row and gathered back per node
        params = ColoredProcessParams(rho=0.7, length=taps)
        profs = [Profile(kind="pulsed", period=period, duty_cycle=0.5,
                         v_low=2e-3, v_high=2.0, phase=p)
                 for p in (0, 2, 5)]
        A = build_combination_matrix(build_topology("ring", 3)).A
        seen = []
        step = theory.expected_phi_step

        def recording(EPhi_prev, R_x_n, lam):
            seen.append(R_x_n.copy())
            return step(EPhi_prev, R_x_n, lam)

        monkeypatch.setattr(theory, "expected_phi_step", recording)
        amplitude = amplitude_table(*profs)
        group = np.unique(amplitude, axis=0, return_inverse=True)[1]
        theoretical_trajectory(amplitude, params, A, np.full(3, 0.05),
                               make_ground_truth(taps, 3),
                               LAM, 0.01, 2 * period)
        assert len(seen) == 2 * period
        for n, R in enumerate(seen, start=1):
            want = np.stack([input_covariance(p, params, n) for p in profs])
            assert np.array_equal(R[group], want), n

    @pytest.mark.parametrize("scale, breaks", [(0.5, False), (2.0, True), (1.0, False),
                                               (2e9, True)])
    def test_negative_trace_tolerance(self, monkeypatch, scale, breaks):
        # every K_n has tr/K = -scale * PSD_TOL: within the tolerance, its
        # bound included, it is rounding noise and kept, beyond it the
        # trajectory stops at n=1; the tolerance is absolute, not scaled by
        # |tr/K|, so 2e9 (tr/K = -2) stops it too
        K, L = 3, 2
        A = build_combination_matrix(build_topology("ring", K)).A

        def dipping(Kmat_prev, *args):
            out = np.zeros_like(Kmat_prev)
            out[np.arange(K), np.arange(K)] = -scale * theory.PSD_TOL / L * np.eye(L)
            return out

        monkeypatch.setattr(theory, "k_matrix_step", dipping)
        args = (amplitude_table(PULSED4, nodes=K), ColoredProcessParams(rho=0.5, length=L),
                A, np.full(K, 0.05),
                make_ground_truth(L, 1), LAM, 0.01, 5)
        if breaks:
            with pytest.raises(TheoryError, match="semidefiniteness at n=1"):
                theoretical_trajectory(*args)
        else:
            msd, _ = theoretical_trajectory(*args)
            assert np.allclose(msd, -scale * theory.PSD_TOL, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("step", ["k_matrix_step", "mean_error_step"])
    def test_non_finite_recursion_is_an_error(self, monkeypatch, step):
        # a NaN K_n gives a NaN tr/K, which no comparison rejects, and a
        # NaN mean error a NaN norm: both stop the trajectory at n=1
        K, L = 3, 2
        A = build_combination_matrix(build_topology("ring", K)).A
        monkeypatch.setattr(theory, step, lambda prev, *args: np.full_like(prev, np.nan))
        with pytest.raises(TheoryError, match="not finite at n=1"):
            theoretical_trajectory(amplitude_table(PULSED4, nodes=K),
                                   ColoredProcessParams(rho=0.5, length=L), A,
                                   np.full(K, 0.05), make_ground_truth(L, 1),
                                   LAM, 0.01, 5)

    def test_profile_count_mismatch_rejected(self):
        # the table needs one row per node, and a single row is not a table
        params = ColoredProcessParams(rho=0.5, length=2)
        for amplitude in (amplitude_table(CONST), amplitude_table(CONST, nodes=3),
                          amplitude_table(CONST, nodes=2)[0]):
            with pytest.raises(ValueError, match=r"expected a \(2, T\) amplitude table"):
                theoretical_trajectory(amplitude, params, np.eye(2), np.full(2, 0.05),
                                       make_ground_truth(2, 9), LAM, 0.01, 10)


class TestFullScale:
    def test_reproduction_network_theory_smoke(self, monkeypatch):
        # configs/reproduction_T512.ini network (K=20, L=32, T=512), 200 steps
        cfg = parse_config(CONFIGS / "reproduction_T512.ini")
        L = cfg["signal"]["taps"]
        oracle_dev = []
        step = theory.k_matrix_step

        def checked(Kmat_prev, B, noise, A, lam, sz, work):
            prev = Kmat_prev.copy()
            out = step(Kmat_prev, B, noise, A, lam, sz, work)
            assert out is Kmat_prev
            assert np.array_equal(out, np.swapaxes(np.swapaxes(out, 0, 1), -1, -2))
            if len(oracle_dev) < 3:
                oracle_dev.append(_rel_dev(out, einsum_k_matrix_step(prev, B, noise, A,
                                                                     lam, sz)))
            return out

        monkeypatch.setattr(theory, "k_matrix_step", checked)
        msd, _ = theoretical_trajectory(
            cfg.build_profiles(), cfg.process_params(), cfg.build_combiner().A,
            cfg.noise_variances(), make_ground_truth(L, 0),
            cfg["algorithm"]["forgetting_factor"], cfg["algorithm"]["delta"], 200)
        assert msd.shape == (200,)
        assert np.isfinite(msd).all() and (msd > 0).all()
        assert len(oracle_dev) == 3
        assert max(oracle_dev) <= 1e-12


class TestGroupedStatistics:
    """R_x(n), E{Phi_n}, B and the noise term solved once per distinct sigma_x
    row and gathered per node give the per-node theory bit for bit."""

    @staticmethod
    def assert_matches_per_node(amplitude, params, A, sz, w_star, lam, delta, N):
        got = theoretical_trajectory(amplitude, params, A, sz, w_star, lam, delta, N)
        want = per_node_theory(amplitude, params, A, sz, w_star, lam, delta, N)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("name", ["desk_pulsed_T32", "reproduction_T512"])
    def test_shipped_config(self, name):
        cfg = parse_config(CONFIGS / f"{name}.ini")
        amplitude = cfg.build_profiles()
        assert len(np.unique(amplitude, axis=0)) == 1
        self.assert_matches_per_node(
            amplitude, cfg.process_params(), cfg.build_combiner().A, cfg.noise_variances(),
            make_ground_truth(cfg["signal"]["taps"], 0),
            cfg["algorithm"]["forgetting_factor"], cfg["algorithm"]["delta"], 50)

    def test_mixed_phases(self):
        # phases 0, 0, 3, 3, 5: three groups, gathered out of sorted order
        profs = [Profile(kind="pulsed", period=8, duty_cycle=0.5, v_low=2e-3,
                         v_high=2.0, phase=p) for p in (0, 0, 3, 3, 5)]
        amplitude = amplitude_table(*profs)
        assert len(np.unique(amplitude, axis=0)) == 3
        A = build_combination_matrix(build_topology("ring", 5), "metropolis").A
        self.assert_matches_per_node(amplitude, ColoredProcessParams(rho=0.8, length=3), A,
                                     np.linspace(0.01, 0.1, 5), make_ground_truth(3, 2),
                                     LAM, 0.01, 100)

    def test_full_scale_keeps_two_grids(self):
        # K=20, L=32: K_{n-1}'s grid and one work grid, 3.3 MB each, plus
        # (K, L, L) stacks; the peak counts what the trajectory allocates
        K, L = 20, 32
        A = build_combination_matrix(build_topology("ring", K)).A
        args = (amplitude_table(PULSED4, nodes=K), ColoredProcessParams(rho=0.8, length=L),
                A, np.full(K, 0.05), make_ground_truth(L, 0), LAM, 0.01, 3)
        tracemalloc.start()
        try:
            theoretical_trajectory(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * K * K * L * L * 8
