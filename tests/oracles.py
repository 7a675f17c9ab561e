"""Reference computations that the package does not need but the tests check it against.

The scipy-based ones are the calls the package made before it depended
on numpy alone; its own versions must match them bit for bit.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import detrend, lfilter
from scipy.sparse.csgraph import connected_components

from drlsnet.filters import init_state, update_inverse_correlation
from drlsnet.signals import colored_autocorrelation


class Profile(NamedTuple):
    """One node's sigma_x: the config's signal keys and the node's phase.

    The record is not validated; `drlsnet.signals.sigma_table` owns the rules.
    """

    kind: str = "constant"
    period: int = 1
    duty_cycle: float = 0.5
    v_low: float = 1.0
    v_high: float = 1.0
    level: float = 1.0
    mod_depth: float = 0.0
    phase: int = 0


def sigma_at(profile: Profile, n) -> np.ndarray | float:
    """sigma_x(n) at any integer n, scalar or array, from the formula of its kind.

      - "constant": level
      - "pulsed": v_high where (n - phase) mod T < ceil(duty_cycle*T), else v_low
      - "sinusoidal": level * (1 + mod_depth * sin(2*pi*((n - phase) mod T)/T))
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


def amplitude_table(*profiles, nodes: int = 1) -> np.ndarray:
    """The (K, T) sigma_x table the engines take: one row per profile over
    n = 0..T-1, or one profile's row repeated for `nodes` nodes."""
    rows = [sigma_at(p, np.arange(p.period)) for p in profiles]
    return np.stack(rows * nodes if len(rows) == 1 else rows)


def input_covariance(profile, params, n: int) -> np.ndarray:
    """R_x(n) = Sigma_x(n) R_u Sigma_x(n), Sigma_x(n) = diag(sigma_x(n-i)), for one n."""
    s = sigma_at(profile, n - np.arange(params.length))
    return colored_autocorrelation(params) * np.outer(s, s)


def dense_theory(profiles, rho: float, A: np.ndarray, noise_variances: np.ndarray,
                 w_star: np.ndarray, lam: float, delta: float, N: int) -> np.ndarray:
    """Theory MSD tr(K_n)/K for n = 1..N, iterated on the dense KL x KL
    matrices: E{Phi_n} block diagonal and inverted outright, the combiner
    expanded to A^T (x) I_L, and sigma_x from `sigma_at`, one profile per node."""
    K, L = len(profiles), len(w_star)
    R_u = toeplitz_autocorrelation(rho, L)
    cA = np.kron(A.T, np.eye(L))
    Sz = np.kron(np.diag(noise_variances), np.eye(L))
    phi = delta * np.eye(K * L)
    err = np.tile(-np.asarray(w_star, dtype=float), K)
    kmat = np.outer(err, err)
    msd = np.empty(N)
    for n in range(1, N + 1):
        R = np.zeros((K * L, K * L))
        for k, profile in enumerate(profiles):
            s = sigma_at(profile, n - np.arange(L))
            R[k * L:(k + 1) * L, k * L:(k + 1) * L] = R_u * np.outer(s, s)
        phi_new = lam * phi + R
        inv = np.linalg.inv(phi_new)
        B = inv @ phi
        kmat = cA @ (lam ** 2 * (B @ kmat @ B.T) + inv @ Sz @ R @ inv) @ cA.T
        kmat = 0.5 * (kmat + kmat.T)
        phi = phi_new
        msd[n - 1] = np.trace(kmat) / K
    return msd


def lfilter_ar1(innov: np.ndarray, rho: float, zi) -> tuple[np.ndarray, np.ndarray]:
    """u_n = rho u_{n-1} + sqrt(1-rho^2) w_n as a first-order IIR filter,
    continued from the filter state zi = [rho u_prev]; returns (u, final state)."""
    if innov.size == 0:  # lfilter's final state is undefined on empty input
        return innov, np.asarray(zi, dtype=float)
    return lfilter([math.sqrt(1.0 - rho ** 2)], [1.0, -rho], innov, zi=zi)


def lfilter_raw_samples(rng: np.random.Generator, rho: float, L: int,
                        blocks: list[int]) -> np.ndarray:
    """One node's raw AR(1) samples at times 2-L .. N, drawn from `rng` as
    the generator draws them for blocks of the given iteration counts: the
    first block's first draw is the stationary start, and the filter state
    chains from block to block."""
    innov = rng.standard_normal(blocks[0] + L - 1)
    rest, zf = lfilter_ar1(innov[1:], rho, [rho * innov[0]])
    parts = [innov[:1], rest]
    for size in blocks[1:]:
        u, zf = lfilter_ar1(rng.standard_normal(size), rho, zf)
        parts.append(u)
    return np.concatenate(parts)


def toeplitz_autocorrelation(rho: float, L: int) -> np.ndarray:
    """R_u as the symmetric Toeplitz matrix of rho**(0..L-1)."""
    return toeplitz(rho ** np.arange(L))


def linear_detrend(seg: np.ndarray) -> np.ndarray:
    """seg minus its least-squares line."""
    return detrend(seg, type="linear")


def unreachable_from_0(adj: np.ndarray) -> list[int]:
    """Nodes outside node 0's connected component, in index order."""
    _, labels = connected_components(adj, directed=False)
    return np.flatnonzero(labels != labels[0]).tolist()


def every_step_trips(X: np.ndarray, lam: float, delta: float,
                     guard: float) -> list[tuple[int, int]]:
    """(run, iteration of its first trip) for every run whose P passes the
    guard, checking max |P| at every step; X has shape (N, R, K, L)."""
    N, R, K, L = X.shape
    P = init_state(L, delta, batch_shape=(R, K)).P
    work = np.empty_like(P)
    bad_at = np.full(R, -1)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(N):
            update_inverse_correlation(P, X[n], lam, work)
            trip = ~(np.maximum(P.max(axis=(-3, -2, -1)),
                                -P.min(axis=(-3, -2, -1))) <= guard)
            bad_at[trip & (bad_at < 0)] = n + 1
    return [(r, int(bad_at[r])) for r in range(R) if bad_at[r] >= 0]
