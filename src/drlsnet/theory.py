"""Deterministic transient models for the diffusion RLS network.

Three coupled recursions are iterated per time step n:

  expected correlation   E{Phi_n} = lam * E{Phi_{n-1}} + R_x(n)        (block diagonal)
  mean weight error      E{werr_n} = lam * cA * E{Phi_n}^-1 E{Phi_{n-1}} * E{werr_{n-1}}
  second moment          K_n = cA (lam^2 B K_{n-1} B^T
                                   + E{Phi_n}^-1 Sigma_z R_x(n) E{Phi_n}^-1) cA^T

with B = E{Phi_n}^-1 E{Phi_{n-1}} and cA = A^T (x) I_L.  Everything is
kept in block form: E{Phi} as (K, L, L) diagonal blocks, the mean error
as (K, L), and K_n as a (K, K, L, L) block grid, so the expanded KL x KL
matrices are never formed.  The network MSD is tr(K_n)/K.

The K_n contractions run on BLAS: B K_{n-1} B^T is one batched matmul
over the (K, K) grid of blocks, and applying cA on both sides is two
GEMMs of A^T against (K, K*L*L) reshapes of the grid.  R_x(n) is built
per step from R_u and a one-period table of sigma_x per node, so memory
does not grow with the period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (ColoredProcessParams, CyclostationaryProfile,
                      colored_autocorrelation, sigma_at)


class TheoryError(RuntimeError):
    """The theory recursions broke down numerically (singular E{Phi}, K_n not PSD)."""


@dataclass
class TheoryState:
    """Carriers of the three recursions at step n."""

    EPhi: np.ndarray        # (K, L, L) diagonal blocks of E{Phi_n}
    mean_err: np.ndarray    # (K, L)
    Kmat: np.ndarray        # (K, K, L, L) block grid, symmetric PSD
    n: int = 0


def initial_theory_state(K: int, L: int, delta: float, w_star: np.ndarray,
                         inverse_delta_init: bool = False) -> TheoryState:
    """Deterministic start: w_0 = 0 so werr_0 = -w_star at every node.

    E{Phi_0} defaults to delta*I per block, tracking the simulated filter's
    Phi_{k,0} = delta*I; `inverse_delta_init` switches to delta^-1*I for
    sensitivity checks.
    """
    scale = 1.0 / delta if inverse_delta_init else delta
    EPhi = np.broadcast_to(scale * np.eye(L), (K, L, L)).copy()
    mean_err = np.tile(-np.asarray(w_star, dtype=float), (K, 1))
    Kmat = np.einsum("ka,lb->klab", mean_err, mean_err)
    return TheoryState(EPhi=EPhi, mean_err=mean_err, Kmat=Kmat)


def expected_phi_step(EPhi_prev: np.ndarray, R_x_n: np.ndarray,
                      lam: float) -> np.ndarray:
    """Blockwise E{Phi_n} = lam * E{Phi_{n-1}} + R_{x,k}(n)."""
    return lam * EPhi_prev + R_x_n


def _transition_blocks(EPhi_n: np.ndarray, EPhi_prev: np.ndarray) -> np.ndarray:
    """B_k = E{Phi_{k,n}}^-1 E{Phi_{k,n-1}} via per-block solves."""
    try:
        return np.linalg.solve(EPhi_n, EPhi_prev)
    except np.linalg.LinAlgError as exc:
        raise TheoryError(f"E{{Phi}} block not invertible: {exc}") from exc


def mean_error_step(mean_err_prev: np.ndarray, EPhi_n: np.ndarray,
                    EPhi_prev: np.ndarray, A: np.ndarray,
                    lam: float) -> np.ndarray:
    """E{werr_n} = lam * cA * blockdiag(B_k) * E{werr_{n-1}} in block form."""
    B = _transition_blocks(EPhi_n, EPhi_prev)
    v = np.einsum("kij,kj->ki", B, mean_err_prev)
    return lam * np.einsum("lk,li->ki", A, v)


def k_matrix_step(Kmat_prev: np.ndarray, EPhi_n: np.ndarray,
                  EPhi_prev: np.ndarray, A: np.ndarray, lam: float,
                  noise_variances: np.ndarray, R_x_n: np.ndarray) -> np.ndarray:
    """Second-moment recursion in block form; output symmetrized.

    Kmat_prev is the (K, K, L, L) block grid of K_{n-1}; the noise term
    sigma_{z,k}^2 * Phi_k^-1 R_{x,k}(n) Phi_k^-1 lands on the diagonal
    blocks only (spatially independent noise).
    """
    B = _transition_blocks(EPhi_n, EPhi_prev)
    # `work` and `inner` are the step's two (K, K, L, L) buffers, reused in
    # place: at K=20, L=32 each is 3.3 MB, and a fresh one per product costs
    # about a third of the step in page faults
    work = B[:, None] @ Kmat_prev
    inner = work @ np.swapaxes(B, -1, -2)[None]
    inner *= lam ** 2
    noise = np.linalg.solve(EPhi_n, R_x_n)               # Phi^-1 R_x
    noise = np.linalg.solve(EPhi_n, np.swapaxes(noise, -1, -2))  # Phi^-1 R_x Phi^-1
    K = EPhi_n.shape[0]
    idx = np.arange(K)
    inner[idx, idx] += noise_variances[:, None, None] * noise
    # out[k, l] = sum_pq A[p, k] A[q, l] inner[p, q]: contract p, swap the
    # grid axes, contract q; `work` then holds out with its grid axes swapped
    np.matmul(A.T, inner.reshape(K, -1), out=work.reshape(K, -1))
    np.copyto(inner, np.swapaxes(work, 0, 1))
    np.matmul(A.T, inner.reshape(K, -1), out=work.reshape(K, -1))
    out = np.swapaxes(work, 0, 1) + np.swapaxes(work, -1, -2)
    out *= 0.5
    return out


def network_msd(Kmat: np.ndarray) -> float:
    """tr(K_n)/K in linear units (dB conversion happens at serialization)."""
    K = Kmat.shape[0]
    idx = np.arange(K)
    return float(np.einsum("kii->", Kmat[idx, idx])) / K


def expand_blocks(Kmat: np.ndarray) -> np.ndarray:
    """Dense KL x KL view of a (K, K, L, L) block grid (tests, small sizes)."""
    K, _, L, _ = Kmat.shape
    return Kmat.transpose(0, 2, 1, 3).reshape(K * L, K * L)


@dataclass
class TheoryTrajectory:
    msd: np.ndarray            # (N,) linear MSD at n = 1..N
    mean_err_norm: np.ndarray  # (N,) ||E{werr_n}||


def theoretical_trajectory(profile,
                           params: ColoredProcessParams,
                           A: np.ndarray, noise_variances: np.ndarray,
                           w_star: np.ndarray, lam: float, delta: float,
                           N: int, inverse_delta_init: bool = False,
                           psd_tol: float = 1e-9) -> TheoryTrajectory:
    """Iterate all three recursions for n = 1..N.

    `profile` is either one shared CyclostationaryProfile or a sequence of
    K node-specific ones (same period).  Raises TheoryError if an E{Phi_n}
    block is singular or K_n loses positive semidefiniteness beyond psd_tol
    relative to its scale.
    """
    K = A.shape[0]
    L = params.length
    profiles = [profile] * K if isinstance(profile, CyclostationaryProfile) else list(profile)
    if len(profiles) != K:
        raise ValueError(f"expected {K} node profiles, got {len(profiles)}")
    if len({p.period for p in profiles}) != 1:
        raise ValueError("node profiles must share one period")
    state = initial_theory_state(K, L, delta, w_star,
                                 inverse_delta_init=inverse_delta_init)
    msd = np.empty(N)
    err_norm = np.empty(N)
    period = profiles[0].period
    # R_x(n) = R_u * sigma_x(n-i) sigma_x(n-j) per node, as input_covariance
    # computes it; sigma_x(n) depends on n only through n mod T
    R_u = colored_autocorrelation(params)
    sigma = np.stack([sigma_at(p, np.arange(period)) for p in profiles])
    lags = np.arange(L)
    for n in range(1, N + 1):
        s = sigma[:, (n - lags) % period]
        R_x_n = R_u * (s[:, :, None] * s[:, None, :])
        EPhi_n = expected_phi_step(state.EPhi, R_x_n, lam)
        state.mean_err = mean_error_step(state.mean_err, EPhi_n, state.EPhi, A, lam)
        state.Kmat = k_matrix_step(state.Kmat, EPhi_n, state.EPhi, A, lam,
                                   noise_variances, R_x_n)
        state.EPhi = EPhi_n
        state.n = n
        m = network_msd(state.Kmat)
        if m < -psd_tol * max(1.0, abs(m)):
            raise TheoryError(f"K_n lost positive semidefiniteness at n={n}: tr/K={m:.3e}")
        msd[n - 1] = m
        err_norm[n - 1] = np.linalg.norm(state.mean_err)
    return TheoryTrajectory(msd=msd, mean_err_norm=err_norm)
