"""RLS and diffusion RLS (adapt-then-combine) filter updates.

All operations broadcast over arbitrary leading batch dimensions: a state
with w of shape (..., L) and P of shape (..., L, L) advances every filter
in the batch at once.  A single node is the degenerate case with no
leading dimensions; the network simulator uses a leading (runs, K) batch.

The inverse correlation recursion is kept apart from the estimate updates:
`update_inverse_correlation` advances P and returns the gain g = P_n x_n,
which the iterations take as an argument; each iteration returns the
updated estimate.  Only estimates are exchanged in the combine step, so
node k's P depends on its own regressors, lam and delta alone, and RLS
and DRLS run on the same data can share one P and its gain.  Nothing here
checks lam or the node count per step: the config validates lam and
delta once, and numpy rejects a batch whose node count differs from the
state's or A's.

The update needs one matrix-vector product: with Px = P_{n-1} x_n and
denom = lam + x_n^T Px, the gain is Px / denom, which equals P_n x_n in
exact arithmetic, and P_n = P_{n-1} / lam - u u^T with
u = Px / sqrt(lam * denom).  Every entry of u u^T is one rounded product
u_i * u_j, so the subtracted term is exactly symmetric, and a symmetric P
stays exactly symmetric without a symmetrization pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NodeFilterState:
    """Weight estimate w and inverse correlation matrix P."""

    w: np.ndarray   # (..., L)
    P: np.ndarray   # (..., L, L)


def init_state(L: int, delta: float, batch_shape: tuple[int, ...] = ()) -> NodeFilterState:
    """w = 0, P = delta^-1 * I; the config checks that delta is positive."""
    w = np.zeros(batch_shape + (L,))
    P = np.broadcast_to(np.eye(L) / delta, batch_shape + (L, L)).copy()
    return NodeFilterState(w=w, P=P)


def update_inverse_correlation(P: np.ndarray, x: np.ndarray, lam: float,
                               work: np.ndarray) -> np.ndarray:
    """Rank-one inverse update in place, so that P becomes the inverse of lam*Phi + x x^T.

    P' = P / lam - u u^T with u = P x / sqrt(lam * (lam + x^T P x)), which
    keeps a symmetric P exactly symmetric.  `work`, an array of P's shape,
    receives u u^T.  Returns the gain g = P x / (lam + x^T P x) = P' x.
    """
    Px = np.matmul(P, x[..., None])[..., 0]
    denom = lam + np.einsum("...i,...i->...", x, Px)
    u = Px / np.sqrt(lam * denom)[..., None]
    np.einsum("...i,...j->...ij", u, u, out=work)
    P *= 1.0 / lam
    P -= work
    return Px / denom[..., None]


def adapt(state: NodeFilterState, x: np.ndarray, d: np.ndarray,
          gain: np.ndarray) -> np.ndarray:
    """Local RLS step given the gain g = P_n x_n: psi = w + g e, with the
    prior errors e = d - x^T w."""
    e = d - np.einsum("...i,...i->...", x, state.w)
    return state.w + gain * e[..., None]


def rls_iteration(state: NodeFilterState, x: np.ndarray, d: np.ndarray,
                  gain: np.ndarray) -> np.ndarray:
    """Non-cooperative RLS: keep psi as the new weight estimate, and return it."""
    state.w = adapt(state, x, d, gain)
    return state.w


@dataclass
class DrlsNetworkState:
    """All K node filters stacked on the trailing batch axis, plus A."""

    nodes: NodeFilterState      # batch shape (..., K)
    A: np.ndarray               # (K, K) left-stochastic combination weights


def combine(A: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """ATC combination: w_k = sum_l a_{lk} psi_l."""
    return np.matmul(A.T, psi)


def drls_iteration(network: DrlsNetworkState, x: np.ndarray, d: np.ndarray,
                   gain: np.ndarray) -> np.ndarray:
    """One ATC round: adapt every node on its own (x, d), then combine.

    x has shape (..., K, L), d shape (..., K) and gain the shape of x;
    returns the combined estimates, which become the nodes' w.
    """
    psi = adapt(network.nodes, x, d, gain)
    network.nodes.w = combine(network.A, psi)
    return network.nodes.w
