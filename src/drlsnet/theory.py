"""Deterministic transient models for the diffusion RLS network.

Three coupled recursions are iterated per time step n:

  expected correlation   E{Phi_n} = lam * E{Phi_{n-1}} + R_x(n)        (block diagonal)
  mean weight error      E{werr_n} = lam * cA * E{Phi_n}^-1 E{Phi_{n-1}} * E{werr_{n-1}}
  second moment          K_n = cA (lam^2 B K_{n-1} B^T
                                   + E{Phi_n}^-1 Sigma_z R_x(n) E{Phi_n}^-1) cA^T

with B = E{Phi_n}^-1 E{Phi_{n-1}} and cA = A^T (x) I_L.  Everything is kept
in block form: E{Phi} as (K, L, L) diagonal blocks, the mean error as
(K, L), and K_n as a (K, K, L, L) block grid, so the expanded KL x KL
matrices are never formed.  The network MSD is tr(K_n)/K.

R_x(n), E{Phi_n}, B and the noise term Phi^-1 R_x(n) Phi^-1 depend on a
node only through its row of the (K, T) sigma_x table, read at n mod T, so
they are solved once per distinct row and gathered per node.  The K_n step
runs in place on two grids (3.3 MB each at K=20, L=32): B K_{n-1} B^T is a
batched matmul over the (K, K) grid of blocks, and cA on both sides is two
GEMMs of A^T against (K, K*L*L) reshapes of the grid.
"""

from __future__ import annotations

import numpy as np

from .signals import ColoredProcessParams, colored_autocorrelation


# tr(K_n)/K may dip below zero by this much, relative to max(1, |tr(K_n)/K|),
# before K_n counts as no longer positive semidefinite
PSD_TOL = 1e-9


class TheoryError(RuntimeError):
    """The theory recursions broke down numerically (singular E{Phi}, K_n not PSD)."""


def initial_theory_state(K: int, L: int, delta: float,
                         w_star: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E{Phi_0}, E{werr_0}, K_0): w_0 = 0 so werr_0 = -w_star at every node.

    E{Phi_0} = delta*I per block, tracking the simulated filter's
    Phi_{k,0} = P_{k,0}^-1 = delta*I; the shapes are (K, L, L), (K, L)
    and the (K, K, L, L) block grid.
    """
    EPhi = np.broadcast_to(delta * np.eye(L), (K, L, L)).copy()
    mean_err = np.tile(-np.asarray(w_star, dtype=float), (K, 1))
    Kmat = np.einsum("ka,lb->klab", mean_err, mean_err)
    return EPhi, mean_err, Kmat


def expected_phi_step(EPhi_prev: np.ndarray, R_x_n: np.ndarray,
                      lam: float) -> np.ndarray:
    """Blockwise E{Phi_n} = lam * E{Phi_{n-1}} + R_{x,k}(n)."""
    return lam * EPhi_prev + R_x_n


def transition_blocks(EPhi_n: np.ndarray, EPhi_prev: np.ndarray) -> np.ndarray:
    """B_k = E{Phi_{k,n}}^-1 E{Phi_{k,n-1}} via per-block solves."""
    try:
        return np.linalg.solve(EPhi_n, EPhi_prev)
    except np.linalg.LinAlgError as exc:
        raise TheoryError(f"E{{Phi}} block not invertible: {exc}") from exc


def mean_error_step(mean_err_prev: np.ndarray, B: np.ndarray, A: np.ndarray,
                    lam: float) -> np.ndarray:
    """E{werr_n} = lam * cA * blockdiag(B_k) * E{werr_{n-1}} in block form."""
    v = np.einsum("kij,kj->ki", B, mean_err_prev)
    return lam * np.einsum("lk,li->ki", A, v)


def k_matrix_step(Kmat_prev: np.ndarray, B: np.ndarray, noise: np.ndarray,
                  A: np.ndarray, lam: float, noise_variances: np.ndarray,
                  work: np.ndarray) -> np.ndarray:
    """Second-moment recursion in block form, in place; output symmetrized.

    Kmat_prev (K_{n-1}) and `work` are C-contiguous (K, K, L, L) grids: K_n
    overwrites Kmat_prev and is returned, `work` is scratch.  B and noise are
    the (K, L, L) blocks B_k and Phi_k^-1 R_{x,k}(n) Phi_k^-1; sigma_{z,k}^2
    noise_k lands on the diagonal blocks only (spatially independent noise).
    """
    K = len(B)
    np.matmul(B[:, None], Kmat_prev, out=work)
    np.matmul(work, np.swapaxes(B, -1, -2)[None], out=Kmat_prev)
    Kmat_prev *= lam ** 2
    Kmat_prev[range(K), range(K)] += noise_variances[:, None, None] * noise
    # out[k, l] = sum_pq A[p, k] A[q, l] in[p, q]: contract p, swap the grid
    # axes, contract q; `work` then holds out with its grid axes swapped
    np.matmul(A.T, Kmat_prev.reshape(K, -1), out=work.reshape(K, -1))
    np.copyto(Kmat_prev, np.swapaxes(work, 0, 1))
    np.matmul(A.T, Kmat_prev.reshape(K, -1), out=work.reshape(K, -1))
    np.copyto(Kmat_prev, np.swapaxes(work, -1, -2))
    Kmat_prev += np.swapaxes(work, 0, 1)
    Kmat_prev *= 0.5
    return Kmat_prev


def network_msd(Kmat: np.ndarray) -> float:
    """tr(K_n)/K in linear units (dB conversion happens at serialization)."""
    K = Kmat.shape[0]
    idx = np.arange(K)
    return float(np.einsum("kii->", Kmat[idx, idx])) / K


def theoretical_trajectory(amplitude: np.ndarray,
                           params: ColoredProcessParams,
                           A: np.ndarray, noise_variances: np.ndarray,
                           w_star: np.ndarray, lam: float, delta: float,
                           N: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterate all three recursions for n = 1..N.

    Returns (msd, mean_err_norm), each (N,): tr(K_n)/K and ||E{werr_n}||.
    `amplitude` is the (K, T) table of sigma_x: row k holds node k's
    sigma_x(n) for n = 0..T-1.  Raises TheoryError if an E{Phi_n} block
    is singular, tr(K_n)/K or ||E{werr_n}|| is not finite, or K_n loses
    positive semidefiniteness beyond PSD_TOL relative to its scale.
    """
    K, L = A.shape[0], params.length
    if np.ndim(amplitude) != 2 or len(amplitude) != K:
        raise ValueError(f"expected a ({K}, T) amplitude table, got {np.shape(amplitude)}")
    # per-row statistics; `[group]` gathers a contiguous per-node copy of them
    rows, group = np.unique(amplitude, axis=0, return_inverse=True)
    EPhi, mean_err, Kmat = initial_theory_state(K, L, delta, w_star)
    EPhi, work = EPhi[:len(rows)], np.empty_like(Kmat)
    msd, err_norm = np.empty(N), np.empty(N)
    # R_x(n) = Sigma_x(n) R_u Sigma_x(n) per row, Sigma_x(n) = diag(sigma_x(n-i)),
    # entrywise; sigma_x(n) depends on n only through n mod T
    R_u = colored_autocorrelation(params)
    lags = np.arange(L)
    for n in range(1, N + 1):
        s = rows[:, (n - lags) % rows.shape[1]]
        R_x_n = R_u * (s[:, :, None] * s[:, None, :])
        EPhi_n = expected_phi_step(EPhi, R_x_n, lam)
        B = transition_blocks(EPhi_n, EPhi)[group]
        noise = np.linalg.solve(EPhi_n, R_x_n)                      # Phi^-1 R_x
        noise = np.linalg.solve(EPhi_n, np.swapaxes(noise, -1, -2))  # Phi^-1 R_x Phi^-1
        mean_err = mean_error_step(mean_err, B, A, lam)
        Kmat = k_matrix_step(Kmat, B, noise[group], A, lam, noise_variances, work)
        EPhi = EPhi_n
        m = network_msd(Kmat)
        e = float(np.linalg.norm(mean_err))
        if not (np.isfinite(m) and np.isfinite(e)):
            raise TheoryError(f"theory recursions not finite at n={n}: tr/K={m:.3e}, "
                              f"||E{{werr}}||={e:.3e}")
        if m < -PSD_TOL * max(1.0, abs(m)):
            raise TheoryError(f"K_n lost positive semidefiniteness at n={n}: tr/K={m:.3e}")
        msd[n - 1] = m
        err_norm[n - 1] = e
    return msd, err_norm
