"""Network topology and combination-matrix construction.

Topologies always include self-loops (each node is its own neighbor) and
must be connected.  Combination matrices are left-stochastic: column k
holds the weights node k applies to its neighbors' intermediate estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-12


def build_topology(kind: str, K: int, *, radius: float | None = None,
                   seed: int | None = None,
                   edges: list[tuple[int, int]] | None = None) -> np.ndarray:
    """Read-only (K, K) bool adjacency of a connected graph with self-loops.

    kind:
      - "ring": node k linked to (k-1) mod K and (k+1) mod K
      - "random_geometric": K points uniform in the unit square, linked
        when within `radius`; requires `radius` and `seed`
      - "explicit": user-supplied undirected `edges`
    """
    if K < 2:
        raise ValueError("need at least 2 nodes")
    adj = np.eye(K, dtype=bool)
    if kind == "ring":
        k = np.arange(K)
        adj[k, (k + 1) % K] = True
        adj[k, (k - 1) % K] = True
    elif kind == "random_geometric":
        if radius is None or seed is None:
            raise ValueError("random_geometric needs a radius and a seed")
        rng = np.random.default_rng(seed)
        pts = rng.random((K, 2))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        adj |= dist <= radius
    elif kind == "explicit":
        if not edges:
            raise ValueError("explicit topology needs an edge list")
        for i, j in edges:
            if not (0 <= i < K and 0 <= j < K):
                raise ValueError(f"edge ({i},{j}) out of range for K={K}")
            adj[i, j] = adj[j, i] = True
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    # grow the set reachable from node 0 by one hop per pass
    reached = adj[0]
    while not np.array_equal(grown := adj[reached].any(axis=0), reached):
        reached = grown
    outside = np.flatnonzero(~reached).tolist()
    if outside:
        raise ValueError(f"graph is disconnected; nodes unreachable from 0: {outside}")
    adj.setflags(write=False)
    return adj


@dataclass(frozen=True)
class CombinationMatrix:
    """Left-stochastic weight matrix A; a_{lk} weights neighbor l at node k."""

    A: np.ndarray
    adjacency: np.ndarray = field(repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if (A < 0).any():
            raise ValueError("combination weights must be nonnegative")
        if np.any((A > 0) & ~self.adjacency):
            raise ValueError("nonzero weight outside the neighborhood")
        colsums = A.sum(axis=0)
        if np.abs(colsums - 1.0).max() > STOCHASTIC_TOL:
            raise ValueError(f"columns must sum to 1, worst deviation "
                             f"{np.abs(colsums - 1.0).max():.3e}")
        object.__setattr__(self, "A", A)
        self.A.setflags(write=False)


def build_combination_matrix(adjacency: np.ndarray, rule: str = "uniform") -> CombinationMatrix:
    """Left-stochastic combination weights over the closed neighborhoods.

    "uniform": a_{lk} = 1/|N_k| for every neighbor l of k.
    "metropolis": a_{lk} = 1/max(|N_l|, |N_k|) off-diagonal, residual
    mass on the diagonal; symmetric, hence also left-stochastic.
    """
    K = len(adjacency)
    size = adjacency.sum(axis=1)  # closed-neighborhood sizes |N_k|
    if rule == "uniform":
        A = adjacency / size[None, :]
    elif rule == "metropolis":
        A = np.zeros((K, K))
        off = adjacency & ~np.eye(K, dtype=bool)
        A[off] = 1.0 / np.maximum(size[:, None], size[None, :])[off]
        A[np.diag_indices(K)] = 1.0 - A.sum(axis=0)
    else:
        raise ValueError(f"unknown combination rule {rule!r}")
    return CombinationMatrix(A, adjacency=adjacency)


def draw_noise_variances(K: int, noise_low: float, noise_high: float,
                         seed: int) -> np.ndarray:
    """Per-node observation-noise variances drawn uniformly from [noise_low, noise_high]."""
    if not (0 < noise_low <= noise_high):
        raise ValueError("need 0 < noise_low <= noise_high")
    return np.random.default_rng(seed).uniform(noise_low, noise_high, size=K)
