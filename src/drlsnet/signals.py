"""Cyclostationary colored input generation and exact second-order statistics.

The raw colored sequence u_n is AR(1) with unit stationary variance,

    u_n = rho * u_{n-1} + sqrt(1 - rho^2) * w_n,    w_n ~ N(0, 1),

and the regressor tap at lag i is the raw sample scaled by the periodic
amplitude of its own time index, x_{n-i} = sigma_x(n-i) * u_{n-i}, read
from one period of sigma_x evaluated once: sigma_x(n) = row[n % T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class CyclostationaryProfile:
    """Deterministic periodic amplitude sequence sigma_x(n) with period T.

    kinds:
      - "constant": sigma_x(n) = level
      - "pulsed": v_high for the first ceil(duty_cycle*T) samples of each
        period (shifted by `phase`), v_low for the rest
      - "sinusoidal": level * (1 + mod_depth * sin(2*pi*(n - phase)/T))
    """

    kind: str = "constant"
    period: int = 1
    duty_cycle: float = 0.5
    v_low: float = 1.0
    v_high: float = 1.0
    level: float = 1.0
    mod_depth: float = 0.0
    phase: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "pulsed", "sinusoidal"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.period < 1:
            raise ValueError("period must be a positive integer")
        if self.kind == "constant" and self.level <= 0:
            raise ValueError("constant level must be positive")
        if self.kind == "pulsed":
            if not 0 < self.duty_cycle < 1:
                raise ValueError("duty cycle must lie in (0, 1)")
            if not 0 < self.v_low < self.v_high:
                raise ValueError("need 0 < v_low < v_high")
        if self.kind == "sinusoidal":
            if self.level <= 0 or not 0 <= self.mod_depth < 1:
                raise ValueError("need level > 0 and 0 <= mod_depth < 1")


def sigma_at(profile: CyclostationaryProfile, n) -> np.ndarray | float:
    """Amplitude sigma_x(n); exactly period-T periodic, vectorized over n.

    Negative n is extended periodically so regressor taps before the
    first iteration are well defined.
    """
    n = np.asarray(n)
    if profile.kind == "constant":
        out = np.full(n.shape, profile.level)
    elif profile.kind == "pulsed":
        pos = (n - profile.phase) % profile.period
        high = pos < math.ceil(profile.duty_cycle * profile.period)
        out = np.where(high, profile.v_high, profile.v_low)
    else:
        out = profile.level * (1.0 + profile.mod_depth
                               * np.sin(2.0 * np.pi * ((n - profile.phase) % profile.period)
                                        / profile.period))
    return out if out.ndim else float(out)


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


@dataclass(frozen=True)
class GroundTruth:
    """Target weight vector with unit squared norm."""

    w_star: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w_star, dtype=float)
        if abs(w @ w - 1.0) > 1e-12:
            raise ValueError("ground truth must have unit squared norm")
        object.__setattr__(self, "w_star", w)
        self.w_star.setflags(write=False)


def make_ground_truth(L: int, seed) -> GroundTruth:
    """Standard-normal entries damped by 0.5**i, normalized to unit ||.||^2."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(L) * 0.5 ** np.arange(L)
    return GroundTruth(w / np.linalg.norm(w))


def colored_autocorrelation(params: ColoredProcessParams) -> np.ndarray:
    """R_u with entries rho**|i-j| (unit-variance AR(1)); Toeplitz SPD."""
    lags = np.arange(params.length)
    return (params.rho ** lags)[np.abs(lags[:, None] - lags[None, :])]


class SignalCarry(NamedTuple):
    """What a node-run's next block of signals continues from."""

    last_u: float       # the last raw AR(1) sample u
    tail: np.ndarray    # the last L-1 scaled samples, oldest first
    next_time: int      # time index of the next sample to generate


def _ar1(innov: np.ndarray, rho: float, u: float) -> np.ndarray:
    """Continue u_n = rho u_{n-1} + sqrt(1-rho^2) w_n from the raw sample u.

    Each sample is rounded as fl(fl(rho u_{n-1}) + fl(c w_n)), the way a
    first-order IIR filter section rounds it, in one pass over the block.
    """
    cw = (math.sqrt(1.0 - rho ** 2) * innov).tolist()

    def recursion(u):
        for v in cw:
            u = rho * u + v
            yield u
    return np.fromiter(recursion(u), float, len(cw))


def generate_node_signals(amplitude: np.ndarray,
                          params: ColoredProcessParams,
                          truth: GroundTruth, sigma_z: float,
                          n_iters: int,
                          rng_u: np.random.Generator,
                          rng_z: np.random.Generator,
                          carry: SignalCarry | None = None,
                          ) -> tuple[np.ndarray, np.ndarray, SignalCarry]:
    """One node's signals for the next `n_iters` iterations, as one block.

    `amplitude` is the node's sigma_x(n) for n = 0..T-1, one period.
    Returns (X, d, carry): X[j] is the regressor at the block's j-th
    iteration, shape (n_iters, L), d the desired responses, shape
    (n_iters,), and carry what the next block continues from.  With
    `carry=None` the block starts at iteration 1: the AR recursion runs
    from one stationary N(0, 1) draw, and warm-up covers times 2-L .. 0
    so X[0] is fully formed.  Feeding each block's carry, with the same
    two generators, into the next call yields exactly the samples of one
    call over all the iterations: the draws and the AR state chain.
    """
    L, rho = params.length, params.rho
    if carry is None:
        start, tail = 2 - L, np.empty(0)
        innov = rng_u.standard_normal(n_iters + L - 1)
        u = np.concatenate((innov[:1], _ar1(innov[1:], rho, float(innov[0]))))
    else:
        start, tail = carry.next_time, carry.tail
        u = _ar1(rng_u.standard_normal(n_iters), rho, carry.last_u)
    times = np.arange(start, start + u.size)
    scaled = np.concatenate((tail, amplitude[times % amplitude.size] * u))
    # row j is the window ending at the block's j-th iteration, newest tap
    # first: a reversed sliding-window view.  d is taken on this view: a
    # contiguous copy would round differently in the last bit.
    step = scaled.itemsize
    X = np.ndarray((n_iters, L), buffer=scaled, offset=(L - 1) * step,
                   strides=(step, -step))
    d = X @ truth.w_star + sigma_z * rng_z.standard_normal(n_iters)
    return (np.ascontiguousarray(X), d,
            SignalCarry(float(u[-1]), scaled[scaled.size - L + 1:].copy(), start + u.size))
