"""Independent reference computations for the benchmark's output check.

Written from the model's equations, not from the package's code, so a
change to the package's numerics is compared against something it does
not share:

* `dense_theory` iterates the three theory recursions on the dense
  KL x KL matrices (E{Phi} inverted outright, the combiner expanded
  with a Kronecker product) instead of the package's block form.
* `empirical_msd` replays every Monte Carlo run of an ensemble with a
  plain AR(1) loop and a textbook RLS update. It draws from the same
  SeedSequence spawn layout as the harness, so the averaged MSD agrees up
  to rounding.

Only the pulsed amplitude profile is implemented: it is the only one the
benchmark's workloads use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Model:
    """Everything the recursions need, taken from the resolved config."""

    A: np.ndarray            # (K, K) left-stochastic combiner
    noise_var: np.ndarray    # (K,) observation-noise variances
    period: int
    duty_cycle: float
    v_low: float
    v_high: float
    rho: float
    taps: int
    lam: float
    delta: float

    @property
    def nodes(self) -> int:
        return self.A.shape[0]

    def sigma(self, times) -> np.ndarray:
        """Pulsed amplitude: v_high on the first ceil(duty*T) samples of a period."""
        pos = np.mod(np.asarray(times), self.period)
        return np.where(pos < math.ceil(self.duty_cycle * self.period),
                        self.v_high, self.v_low)

    def input_cov(self, n: int) -> np.ndarray:
        """R_x(n)[i, j] = sigma(n-i) sigma(n-j) rho^|i-j|."""
        lags = np.arange(self.taps)
        s = self.sigma(n - lags)
        return np.outer(s, s) * self.rho ** np.abs(lags[:, None] - lags[None, :])


def ground_truth(master_seed: int, runs: int, taps: int) -> np.ndarray:
    """w_star from the first child of the master seed, unit squared norm."""
    ss = np.random.SeedSequence(master_seed).spawn(1 + runs)[0]
    w = np.random.default_rng(ss).standard_normal(taps) * 0.5 ** np.arange(taps)
    return w / np.sqrt(w @ w)


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    K, L, _ = blocks.shape
    out = np.zeros((K * L, K * L))
    for k in range(K):
        out[k * L:(k + 1) * L, k * L:(k + 1) * L] = blocks[k]
    return out


def dense_theory(m: Model, w_star: np.ndarray, iterations: int):
    """Theory MSD and mean-error norm for n = 1..iterations, dense form."""
    K, L = m.nodes, m.taps
    cA = np.kron(m.A.T, np.eye(L))
    phi = np.stack([m.delta * np.eye(L)] * K)
    err = np.tile(-w_star, K)
    kmat = np.outer(err, err)
    msd = np.empty(iterations)
    err_norm = np.empty(iterations)
    for n in range(1, iterations + 1):
        R = m.input_cov(n)
        phi_new = m.lam * phi + R
        inv = np.linalg.inv(phi_new)
        B = _block_diag(inv @ phi)
        noise = _block_diag(m.noise_var[:, None, None] * (inv @ R @ inv))
        err = m.lam * (cA @ (B @ err))
        kmat = cA @ (m.lam ** 2 * (B @ kmat @ B.T) + noise) @ cA.T
        kmat = 0.5 * (kmat + kmat.T)
        phi = phi_new
        msd[n - 1] = np.trace(kmat) / K
        err_norm[n - 1] = np.sqrt(err @ err)
    return msd, err_norm


def empirical_msd(m: Model, master_seed: int, runs: int, iterations: int,
                  algorithms=("rls", "drls")) -> dict[str, np.ndarray]:
    """Run-averaged MSD of every run for n = 1..iterations."""
    K, L = m.nodes, m.taps
    children = np.random.SeedSequence(master_seed).spawn(1 + runs)
    w_star = ground_truth(master_seed, runs, L)
    samples = iterations + L - 1           # times 2-L .. iterations
    innov = np.empty((runs, K, samples))
    z = np.empty((runs, K, iterations))
    for r in range(runs):
        for k, node in enumerate(children[1 + r].spawn(K)):
            ss_u, ss_z = node.spawn(2)
            innov[r, k] = np.random.default_rng(ss_u).standard_normal(samples)
            z[r, k] = np.random.default_rng(ss_z).standard_normal(iterations)
    u = np.empty_like(innov)
    u[..., 0] = innov[..., 0]
    c = math.sqrt(1.0 - m.rho ** 2)
    for j in range(1, samples):
        u[..., j] = m.rho * u[..., j - 1] + c * innov[..., j]
    scaled = m.sigma(np.arange(2 - L, iterations + 1)) * u
    noise_sd = np.sqrt(m.noise_var)[None, :]

    out = {}
    for algo in algorithms:
        w = np.zeros((runs, K, L))
        P = np.broadcast_to(np.eye(L) / m.delta, (runs, K, L, L)).copy()
        msd = np.empty(iterations)
        for n in range(1, iterations + 1):
            x = scaled[..., n - 1:n + L - 1][..., ::-1]    # newest tap first
            d = x @ w_star + noise_sd * z[..., n - 1]
            e = d - np.sum(x * w, axis=-1)
            Px = np.matmul(P, x[..., None])[..., 0]
            g = Px / (m.lam + np.sum(x * Px, axis=-1))[..., None]
            P = (P - g[..., :, None] * Px[..., None, :]) / m.lam
            P = 0.5 * (P + np.swapaxes(P, -1, -2))
            psi = w + g * e[..., None]
            w = np.matmul(m.A.T, psi) if algo == "drls" else psi
            dev = w - w_star
            msd[n - 1] = np.sum(dev * dev) / (runs * K)
        out[algo] = msd
    return out
