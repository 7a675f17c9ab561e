"""Cyclostationary colored input generation and exact second-order statistics.

The raw colored sequence u_n is AR(1) with unit stationary variance,

    u_n = rho * u_{n-1} + sqrt(1 - rho^2) * w_n,    w_n ~ N(0, 1),

and the regressor tap at lag i is the raw sample scaled by the periodic
amplitude of its own time index, x_{n-i} = sigma_x(n-i) * u_{n-i}, read
from the (K, T) table `sigma_table` builds once: sigma_x(n) = row[n % T].
The desired response is d_n = x_n^T w_star + z_n, w_star a read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def sigma_table(kind: str, period: int, phases, *, duty_cycle: float, v_low: float,
                v_high: float, level: float, mod_depth: float) -> np.ndarray:
    """(K, T) table of sigma_x(n), n = 0..T-1: row k is node k's, shifted by `phases[k]`.

    kinds:
      - "constant": sigma_x(n) = level
      - "pulsed": v_high for the first ceil(duty_cycle*T) samples of each
        period (shifted by the phase), v_low for the rest
      - "sinusoidal": level * (1 + mod_depth * sin(2*pi*(n - phase)/T))

    The phase-0 row is evaluated once; row k is it read at (n - phases[k]) mod T.
    """
    if period < 1:
        raise ValueError("period must be a positive integer")
    n = np.arange(period)
    if kind == "constant":
        if level <= 0:
            raise ValueError("constant level must be positive")
        row = np.full(period, level)
    elif kind == "pulsed":
        if not 0 < duty_cycle < 1:
            raise ValueError("duty cycle must lie in (0, 1)")
        if not 0 < v_low < v_high:
            raise ValueError("need 0 < v_low < v_high")
        row = np.where(n < math.ceil(duty_cycle * period), v_high, v_low)
    elif kind == "sinusoidal":
        if level <= 0 or not 0 <= mod_depth < 1:
            raise ValueError("need level > 0 and 0 <= mod_depth < 1")
        row = level * (1.0 + mod_depth * np.sin(2.0 * np.pi * n / period))
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return row[(n - np.asarray(phases)[:, None]) % period]


@dataclass(frozen=True)
class ColoredProcessParams:
    """AR(1) correlation factor; the stationary variance is fixed at 1."""

    rho: float
    length: int  # filter length L

    def __post_init__(self):
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        if self.length < 1:
            raise ValueError("taps (filter length L) must be >= 1")


def make_ground_truth(L: int, seed) -> np.ndarray:
    """Read-only w_star: standard-normal entries damped by 0.5**i, unit ||.||^2."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(L) * 0.5 ** np.arange(L)
    w /= np.linalg.norm(w)
    w.setflags(write=False)
    return w


def colored_autocorrelation(params: ColoredProcessParams) -> np.ndarray:
    """R_u with entries rho**|i-j| (unit-variance AR(1)); Toeplitz SPD."""
    lags = np.arange(params.length)
    return (params.rho ** lags)[np.abs(lags[:, None] - lags[None, :])]


class SignalCarry(NamedTuple):
    """What a node-run's next block of signals continues from."""

    last_u: float       # the last raw AR(1) sample u
    tail: np.ndarray    # the last L-1 scaled samples, oldest first (1 before the first block)
    next_time: int      # time index of the next sample to generate


def _ar1(innov: np.ndarray, rho: float, u: float) -> np.ndarray:
    """[u, u_1, .., u_m]: u_n = rho u_{n-1} + sqrt(1-rho^2) w_n continued from u.

    Each sample is rounded as fl(fl(rho u_{n-1}) + fl(c w_n)), the way a
    first-order IIR filter section rounds it, in one pass over the block.
    """
    cw = memoryview(math.sqrt(1.0 - rho ** 2) * innov)

    def recursion(u):
        yield u
        for v in cw:
            u = rho * u + v
            yield u
    return np.fromiter(recursion(u), float, len(cw) + 1)


def generate_node_signals(amplitude: np.ndarray,
                          params: ColoredProcessParams,
                          w_star: np.ndarray, sigma_z: float,
                          n_iters: int,
                          rng_u: np.random.Generator,
                          rng_z: np.random.Generator,
                          carry: SignalCarry | None = None,
                          ) -> tuple[np.ndarray, np.ndarray, SignalCarry]:
    """One node's signals for the next `n_iters` iterations, as one block.

    `amplitude` is the node's sigma_x(n) for n = 0..T-1, one period.
    Returns (X, d, carry): X[j] is the regressor at the block's j-th
    iteration, shape (n_iters, L), d = X w_star + sigma_z * z, shape
    (n_iters,), and carry what the next block continues from.  X is a
    read-only window view over the block's n_iters+L-1 scaled samples,
    so consecutive rows share L-1 entries: X[0, :0:-1] is the L-1
    samples before the block, oldest first, and X[:, 0] the block's own
    samples.  Callers copy X before writing to it.  `carry=None` starts
    at iteration 1 from a carry primed with one stationary N(0, 1) draw at
    time 2-L, so warm-up covers times 2-L .. 0.  Feeding each block's
    carry, with the same two generators, into the next call yields
    exactly the samples of one call over all the iterations.
    """
    L, T = params.length, amplitude.size
    if carry is None:
        u0 = rng_u.standard_normal()
        carry = SignalCarry(u0, amplitude[[(2 - L) % T]] * u0, 3 - L)
    last_u, tail, start = carry
    u = _ar1(rng_u.standard_normal(n_iters + L - 1 - tail.size), params.rho, last_u)
    times = np.arange(start, start + u.size - 1)
    scaled = np.concatenate((tail, amplitude[times % T] * u[1:]))
    # row j: the window ending at the block's j-th iteration, newest tap first.
    # d is taken on this view: a contiguous copy rounds differently in the last bit.
    s = scaled.strides[0]
    X = np.lib.stride_tricks.as_strided(scaled[L - 1:], (n_iters, L), (s, -s),
                                        writeable=False)
    d = X @ w_star + sigma_z * rng_z.standard_normal(n_iters)
    return X, d, SignalCarry(float(u[-1]), scaled[n_iters:].copy(), start + times.size)
