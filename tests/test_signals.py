import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drlsnet.signals import (ColoredProcessParams, _ar1, colored_autocorrelation,
                             generate_node_signals, make_ground_truth, sigma_table)
from oracles import (Profile, amplitude_table, input_covariance, lfilter_raw_samples,
                     sigma_at, toeplitz_autocorrelation)

PULSED = Profile(kind="pulsed", period=4, duty_cycle=0.5,
                 v_low=2e-3, v_high=2.0)
# one node's sigma_x rows, as the generator takes them
PULSED_ROW = amplitude_table(PULSED)[0]
UNIT = amplitude_table(Profile(kind="constant", level=1.0))[0]


# Streaming generator: the oracle that generate_node_signals must match
# sample for sample.


class NodeSignalState:
    """One node's colored sequence and the ring buffer forming regressors.

    The buffer is warmed with L stationary samples at times n0-L+1 .. n0
    so the first regressor (at n0, default 0) is already valid.
    """

    def __init__(self, params: ColoredProcessParams, rng: np.random.Generator,
                 start: int = 0):
        self.params = params
        L = params.length
        self.n = start
        # oldest-to-newest raw samples at times start-L+1 .. start
        self._u = np.empty(L)
        self._u[0] = rng.standard_normal()
        c = math.sqrt(1.0 - params.rho ** 2)
        for i in range(1, L):
            self._u[i] = params.rho * self._u[i - 1] + c * rng.standard_normal()
        self._times = np.arange(start - L + 1, start + 1)

    @property
    def last_sample(self) -> float:
        return float(self._u[-1])

    def advance(self, rng: np.random.Generator) -> float:
        """Generate u at time n+1 and push it into the buffer."""
        c = math.sqrt(1.0 - self.params.rho ** 2)
        u_next = self.params.rho * self._u[-1] + c * rng.standard_normal()
        self._u = np.roll(self._u, -1)
        self._u[-1] = u_next
        self._times = np.roll(self._times, -1)
        self._times[-1] = self.n + 1
        self.n += 1
        return u_next

    def regressor(self, profile: Profile) -> np.ndarray:
        """x_n = [sigma_x(n)u_n, ..., sigma_x(n-L+1)u_{n-L+1}]."""
        scaled = sigma_at(profile, self._times) * self._u
        return scaled[::-1].copy()


def step_colored(state: NodeSignalState, rng: np.random.Generator) -> float:
    """Advance the AR(1) recursion one sample; returns u at the new time."""
    return state.advance(rng)


def emit_regressor(state: NodeSignalState, profile: Profile) -> np.ndarray:
    return state.regressor(profile)


def emit_desired(x: np.ndarray, w_star: np.ndarray, sigma_z: float,
                 rng: np.random.Generator) -> float:
    """d = x^T w_star + z with z ~ N(0, sigma_z^2) from the node's own stream."""
    return float(x @ w_star) + sigma_z * rng.standard_normal()


def table_row(profile: Profile) -> np.ndarray:
    """The package's sigma_x row for one node, at the record's phase."""
    return sigma_table(profile.kind, profile.period, [profile.phase],
                       duty_cycle=profile.duty_cycle, v_low=profile.v_low,
                       v_high=profile.v_high, level=profile.level,
                       mod_depth=profile.mod_depth)[0]


def sigma(profile: Profile, n):
    """sigma_x(n) as the engines read the package's table: row[n % T]."""
    return table_row(profile)[np.asarray(n) % profile.period]


class TestSigmaAt:
    def test_pulsed_levels(self):
        assert sigma(PULSED, 0) == 2.0
        assert sigma(PULSED, 1) == 2.0
        assert sigma(PULSED, 2) == 0.002
        assert sigma(PULSED, 3) == 0.002

    def test_periodicity(self):
        assert sigma(PULSED, 5) == sigma(PULSED, 1)
        n = np.arange(-50, 100)
        assert np.array_equal(sigma(PULSED, n), sigma(PULSED, n + 4))

    def test_constant(self):
        prof = Profile(kind="constant", level=1.0)
        assert sigma(prof, 12345) == 1.0

    def test_sinusoidal_positive_and_periodic(self):
        prof = Profile(kind="sinusoidal", period=16,
                       level=1.5, mod_depth=0.9)
        n = np.arange(64)
        vals = sigma(prof, n)
        assert (vals > 0).all()
        assert vals.min() == pytest.approx(0.15) and vals.max() == pytest.approx(2.85)
        assert np.array_equal(vals[:16], vals[16:32])

    def test_phase_offset(self):
        shifted = Profile(kind="pulsed", period=4,
                          duty_cycle=0.5, v_low=2e-3,
                          v_high=2.0, phase=1)
        assert sigma(shifted, 1) == 2.0
        assert sigma(shifted, 0) == 0.002

    @pytest.mark.parametrize("phase", [1, 3, -2])
    def test_sinusoidal_phase_shifts_the_profile(self, phase):
        kw = dict(kind="sinusoidal", period=7, level=1.0, mod_depth=0.5)
        n = np.arange(-10, 30)
        shifted = sigma(Profile(phase=phase, **kw), n)
        assert np.array_equal(shifted, sigma(Profile(**kw), n - phase))
        assert not np.array_equal(shifted, sigma(Profile(**kw), n))

    @pytest.mark.parametrize("kwargs", [
        dict(kind="pulsed", period=4, duty_cycle=0.5, v_low=0.0, v_high=2.0),
        dict(kind="pulsed", period=4, duty_cycle=1.5, v_low=0.1, v_high=2.0),
        dict(kind="pulsed", period=4, duty_cycle=0.5, v_low=2.0, v_high=0.1),
        dict(kind="constant", level=-1.0),
        dict(kind="sinusoidal", period=8, level=1.0, mod_depth=1.0),
        dict(kind="triangular", period=4),
        # the open ends of the duty cycle's (0, 1), and a sinusoid's level 0
        dict(kind="pulsed", period=4, duty_cycle=0.0, v_low=0.1, v_high=2.0),
        dict(kind="pulsed", period=4, duty_cycle=1.0, v_low=0.1, v_high=2.0),
        dict(kind="sinusoidal", period=8, level=0.0, mod_depth=0.5),
    ])
    def test_bad_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            table_row(Profile(**kwargs))

    def test_zero_mod_depth_is_a_constant_sinusoid(self):
        row = table_row(Profile(kind="sinusoidal", period=8, level=1.5, mod_depth=0.0))
        assert np.array_equal(row, np.full(8, 1.5))


class TestColoredProcess:
    def test_rho_zero_is_white(self):
        params = ColoredProcessParams(rho=0.0, length=1)
        rng = np.random.default_rng(0)
        state = NodeSignalState(params, rng)
        samples = np.array([step_colored(state, rng) for _ in range(20_000)])
        ref = np.random.default_rng(0).standard_normal(20_001)[1:]
        assert np.array_equal(samples, ref)  # rho=0 passes innovations through

    def test_stateful_variance(self):
        params = ColoredProcessParams(rho=0.8, length=1)
        rng = np.random.default_rng(3)
        state = NodeSignalState(params, rng)
        samples = np.array([step_colored(state, rng) for _ in range(100_000)])
        assert samples.var() == pytest.approx(1.0, rel=0.02)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            ColoredProcessParams(rho=1.0, length=4)


class TestRegressor:
    def test_constant_profile_scales(self):
        params = ColoredProcessParams(rho=0.5, length=3)
        prof = Profile(kind="constant", level=2.5)
        rng = np.random.default_rng(4)
        state = NodeSignalState(params, rng)
        raw = state._u[::-1].copy()
        x = emit_regressor(state, prof)
        assert np.allclose(x, 2.5 * raw)

    def test_each_tap_uses_its_own_amplitude(self):
        # direct construction of Sigma_x(n) . u as the oracle
        params = ColoredProcessParams(rho=0.5, length=4)
        rng = np.random.default_rng(5)
        state = NodeSignalState(params, rng, start=2)  # straddles the pulse edge
        u_newest_first = state._u[::-1].copy()
        sig = np.array([sigma_at(PULSED, 2 - i) for i in range(4)])
        assert np.allclose(emit_regressor(state, PULSED), sig * u_newest_first)
        assert sig[0] == 0.002 and sig[1] == 2.0  # mixed amplitudes

    def test_scalar_case(self):
        params = ColoredProcessParams(rho=0.0, length=1)
        rng = np.random.default_rng(6)
        state = NodeSignalState(params, rng, start=0)
        x = emit_regressor(state, PULSED)
        assert x.shape == (1,)
        assert x[0] == pytest.approx(sigma_at(PULSED, 0) * state.last_sample)


class TestAutocorrelation:
    def test_white_identity(self):
        assert np.array_equal(
            colored_autocorrelation(ColoredProcessParams(rho=0.0, length=3)),
            np.eye(3))

    def test_rho08_L2(self):
        R = colored_autocorrelation(ColoredProcessParams(rho=0.8, length=2))
        assert np.allclose(R, [[1.0, 0.8], [0.8, 1.0]])

    def test_matches_toeplitz(self):
        for rho in (0.0, 0.3, 0.8, 0.99):
            for L in range(1, 65):
                assert np.array_equal(
                    colored_autocorrelation(ColoredProcessParams(rho=rho, length=L)),
                    toeplitz_autocorrelation(rho, L))

    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(0.0, 0.99), L=st.integers(1, 64))
    def test_positive_definite(self, rho, L):
        R = colored_autocorrelation(ColoredProcessParams(rho=rho, length=L))
        np.linalg.cholesky(R)  # raises if not PD


class TestInputCovariance:
    def test_constant_level_one_is_Ru(self):
        params = ColoredProcessParams(rho=0.6, length=3)
        prof = Profile(kind="constant", level=1.0)
        assert np.allclose(input_covariance(prof, params, 10),
                           colored_autocorrelation(params))

    def test_all_taps_high(self):
        params = ColoredProcessParams(rho=0.6, length=2)
        # taps at n=1 and n=0 both sit in the high segment
        R = input_covariance(PULSED, params, 1)
        assert np.allclose(R, 4.0 * colored_autocorrelation(params))

    def test_periodicity_exact(self):
        params = ColoredProcessParams(rho=0.8, length=5)
        for n in range(8):
            assert np.array_equal(input_covariance(PULSED, params, n),
                                  input_covariance(PULSED, params, n + 4))

    def test_boundary_monte_carlo(self):
        # covariance of regressors emitted at a fixed phase straddling the edge
        params = ColoredProcessParams(rho=0.8, length=3)
        w_star = make_ground_truth(3, 0)
        N = 800_000
        X, _, _ = generate_node_signals(PULSED_ROW, params, w_star, 0.0, N,
                                        np.random.default_rng(9),
                                        np.random.default_rng(10))
        phase = 2  # regressor at times n = 2 mod 4: taps straddle segments
        Xp = X[phase - 1::4]
        sample_cov = Xp.T @ Xp / Xp.shape[0]
        R = input_covariance(PULSED, params, phase)
        scale = np.sqrt(np.outer(np.diag(R), np.diag(R)))
        assert np.abs((sample_cov - R) / scale).max() < 0.02


class TestDesired:
    def test_noiseless(self):
        w_star = make_ground_truth(4, 11)
        x = np.arange(4.0)
        rng = np.random.default_rng(0)
        assert emit_desired(x, w_star, 0.0, rng) == pytest.approx(x @ w_star)

    def test_zero_regressor_noise_variance(self):
        w_star = make_ground_truth(3, 12)
        rng = np.random.default_rng(1)
        d = np.array([emit_desired(np.zeros(3), w_star, 0.5, rng)
                      for _ in range(100_000)])
        assert d.var() == pytest.approx(0.25, rel=0.02)

    def test_basis_projection(self):
        w_star = np.array([1.0, 0.0, 0.0])
        x = np.array([3.0, -1.0, 7.0])
        assert emit_desired(x, w_star, 0.0, np.random.default_rng(2)) == pytest.approx(3.0)


class TestGroundTruth:
    def test_unit_norm(self):
        for seed in range(5):
            w = make_ground_truth(32, seed)
            assert abs(w @ w - 1.0) < 1e-12

    def test_scalar_case(self):
        assert abs(make_ground_truth(1, 0)[0]) == pytest.approx(1.0)

    def test_read_only(self):
        # every run shares one w_star
        w = make_ground_truth(4, 0)
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_deterministic(self):
        assert np.array_equal(make_ground_truth(16, 7),
                              make_ground_truth(16, 7))

    def test_exponential_damping(self):
        # damping by 0.5**i makes later taps small on average
        tails = [abs(make_ground_truth(12, s)[-1]) for s in range(30)]
        assert np.median(tails) < 0.01


def test_cross_node_independence():
    # two nodes driven from sibling streams: sample cross-correlation of
    # their scalar inputs stays below 3/sqrt(samples)
    params = ColoredProcessParams(rho=0.8, length=1)
    w_star = make_ground_truth(1, 0)
    n = 100_000
    node_a, node_b = np.random.SeedSequence(123).spawn(2)
    Xa, _, _ = generate_node_signals(UNIT, params, w_star, 0.0, n,
                                     np.random.default_rng(node_a),
                                     np.random.default_rng(0))
    Xb, _, _ = generate_node_signals(UNIT, params, w_star, 0.0, n,
                                     np.random.default_rng(node_b),
                                     np.random.default_rng(1))
    corr = np.mean(Xa[:, 0] * Xb[:, 0])
    assert abs(corr) < 3 / math.sqrt(n)


def test_batch_generator_matches_stateful_path():
    params = ColoredProcessParams(rho=0.8, length=4)
    w_star = make_ground_truth(4, 3)
    ss_u, ss_z = np.random.SeedSequence(9).spawn(2)
    X, _, _ = generate_node_signals(PULSED_ROW, params, w_star, 0.0, 50,
                                    np.random.default_rng(ss_u),
                                    np.random.default_rng(ss_z))
    rng = np.random.default_rng(ss_u)
    state = NodeSignalState(params, rng, start=1)
    xs = [emit_regressor(state, PULSED)]
    for _ in range(49):
        step_colored(state, rng)
        xs.append(emit_regressor(state, PULSED))
    assert np.array_equal(X, np.array(xs))


def test_regressor_block_is_read_only():
    # consecutive windows share L-1 samples in memory, so a write through
    # one row would change the rows beside it
    params = ColoredProcessParams(rho=0.8, length=4)
    X, _, _ = generate_node_signals(PULSED_ROW, params, make_ground_truth(4, 3), 0.0, 10,
                                    np.random.default_rng(1), np.random.default_rng(2))
    with pytest.raises(ValueError):
        X[2] = 0.0


def test_desired_response_adds_scaled_noise_from_its_own_stream():
    # d = X w_star + sigma_z z, z the next n draws of rng_z and nothing else
    params = ColoredProcessParams(rho=0.8, length=4)
    w_star = make_ground_truth(4, 3)
    X, d, _ = generate_node_signals(PULSED_ROW, params, w_star, 0.3, 10,
                                    np.random.default_rng(1), np.random.default_rng(2))
    z = np.random.default_rng(2).standard_normal(10)
    assert np.array_equal(d, X @ w_star + 0.3 * z)


def test_carry_owns_its_tail():
    # the carry outlives the block, so it must not hold the block's samples
    params = ColoredProcessParams(rho=0.8, length=4)
    X, _, carry = generate_node_signals(PULSED_ROW, params, make_ground_truth(4, 3), 0.0,
                                        10, np.random.default_rng(1), np.random.default_rng(2))
    assert np.array_equal(carry.tail, X[-1, -2::-1])
    assert not np.shares_memory(carry.tail, X)


def generate_in_blocks(amplitude, params, w_star, sigma_z, N, block, seeds):
    """generate_node_signals over N iterations, `block` iterations per call."""
    rng_u, rng_z = (np.random.default_rng(s) for s in seeds)
    carry, Xs, ds = None, [], []
    for n0 in range(0, N, block):
        X, d, carry = generate_node_signals(amplitude, params, w_star, sigma_z,
                                            min(block, N - n0), rng_u, rng_z, carry)
        Xs.append(X)
        ds.append(d)
    return np.concatenate(Xs), np.concatenate(ds), carry


SHIFTED = Profile(kind="pulsed", period=6, duty_cycle=0.4,
                  v_low=0.1, v_high=2.0, phase=3)
WAVY = Profile(kind="sinusoidal", period=7, level=1.0, mod_depth=0.5)
N_GEN = 40


@pytest.mark.parametrize("profile", [SHIFTED, WAVY], ids=["pulsed", "sinusoidal"])
@pytest.mark.parametrize("L", [1, 2, 8, 32])
@pytest.mark.parametrize("block", [1, 7, N_GEN - 1, N_GEN, N_GEN + 5])
def test_blockwise_generation_is_bit_identical(profile, L, block):
    # chained blocks reproduce the one-shot draws, filter state and
    # desired responses exactly, whatever the block length
    N = N_GEN
    params = ColoredProcessParams(rho=0.8, length=L)
    w_star = make_ground_truth(L, 4)
    amplitude = amplitude_table(profile)[0]
    want_X, want_d, want_carry = generate_node_signals(
        amplitude, params, w_star, 0.3, N, np.random.default_rng(1),
        np.random.default_rng(2))
    X, d, carry = generate_in_blocks(amplitude, params, w_star, 0.3, N, block, (1, 2))
    assert np.array_equal(X, want_X)
    assert np.array_equal(d, want_d)
    assert carry.next_time == want_carry.next_time == N + 1
    assert np.array_equal(carry.tail, want_carry.tail)
    assert carry.tail.shape == (L - 1,)
    assert carry.last_u == want_carry.last_u


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
@pytest.mark.parametrize("L, blocks", [
    (1, [1, 1, 5]),                  # one-iteration first block at L=1
    (1, list(range(1, 601))),        # every block length from 1 to 600
    (3, [1, 2, 3]),
    (8, [201, 600, 520, 7]),
], ids=["L1-first1", "L1-1to600", "L3-short", "L8-long"])
def test_ar1_matches_lfilter_over_chained_blocks(rho, L, blocks):
    # the recursion written out rounds every sample as the first-order IIR
    # filter did, and its carried state continues it exactly
    params = ColoredProcessParams(rho=rho, length=L)
    w_star = make_ground_truth(L, 1)
    rng_u, rng_z = np.random.default_rng(3), np.random.default_rng(4)
    carry, rows = None, []
    for size in blocks:
        X, _, carry = generate_node_signals(np.ones(1), params, w_star, 0.0, size,
                                            rng_u, rng_z, carry)
        rows.append(X)
    X = np.concatenate(rows)
    # with sigma_x = 1 the regressors hold the raw samples: the first row
    # times 2-L .. 1, newest first, and each later row one new sample
    raw = np.concatenate((X[0, ::-1], X[1:, 0]))
    want = lfilter_raw_samples(np.random.default_rng(3), rho, L, blocks)
    assert np.array_equal(raw, want)
    assert carry.last_u == want[-1]



@pytest.mark.parametrize("L", [1, 2, 3, 8])
def test_each_sample_scaled_at_its_own_time(L):
    # every sample at times 2-L .. N, the first block's primed one
    # included, is scaled by sigma_x of its own time: the filter oracle's
    # raw samples times WAVY's formula rebuild every window
    params = ColoredProcessParams(rho=0.8, length=L)
    w_star = make_ground_truth(L, 1)
    rng_u, rng_z = np.random.default_rng(3), np.random.default_rng(4)
    blocks, carry, rows = [5, 1, 9], None, []
    for size in blocks:
        X, _, carry = generate_node_signals(amplitude_table(WAVY)[0], params, w_star, 0.0,
                                            size, rng_u, rng_z, carry)
        rows.append(X)
    N = sum(blocks)
    scaled = sigma_at(WAVY, np.arange(2 - L, N + 1)) * lfilter_raw_samples(
        np.random.default_rng(3), 0.8, L, blocks)
    assert np.array_equal(np.concatenate(rows),
                          [scaled[j:j + L][::-1] for j in range(N)])

def test_ar1_builds_no_per_sample_python_objects():
    # the recursion reads c*w through a memoryview, so its peak is the c*w
    # array and the output, 8 + 8 bytes per sample; a Python list of the
    # block (an 8-byte pointer to a 24-byte float each) would add 32 more
    n = 200_000
    innov = np.random.default_rng(0).standard_normal(n)
    tracemalloc.start()
    try:
        u = _ar1(innov, 0.8, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n
    assert u.shape == (n + 1,) and u[0] == 0.5
