import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drlsnet.network import (STOCHASTIC_TOL, CombinationMatrix, Topology,
                             TopologyError, build_combination_matrix,
                             build_topology, draw_noise_variances)
from oracles import unreachable_from_0


def validate_left_stochastic(A: np.ndarray) -> dict:
    """Diagnostics: worst column-sum deviation from 1 and any negative entry."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    colsums = A.sum(axis=0)
    deviation = np.abs(colsums - 1.0)
    negatives = np.argwhere(A < 0)
    return {
        "max_column_deviation": float(deviation.max()),
        "worst_column": int(deviation.argmax()),
        "negative_entries": [tuple(ix) for ix in negatives.tolist()],
        "ok": float(deviation.max()) <= STOCHASTIC_TOL and negatives.size == 0,
    }


def bfs_reachable(adj):
    """Independent connectivity oracle (plain breadth-first search)."""
    K = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in range(K):
            if adj[v, w] and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == K


class TestBuildTopology:
    def test_ring_structure(self):
        topo = build_topology("ring", 4)
        expected = np.eye(4, dtype=bool)
        for k in range(4):
            expected[k, (k + 1) % 4] = expected[k, (k - 1) % 4] = True
        assert np.array_equal(topo.adjacency, expected)

    def test_explicit_two_nodes(self):
        topo = build_topology("explicit", 2, edges=[(0, 1)])
        assert topo.adjacency.all()

    def test_random_geometric_connected(self):
        topo = build_topology("random_geometric", 20, radius=0.3, seed=1)
        assert bfs_reachable(topo.adjacency)
        assert topo.adjacency.diagonal().all()

    def test_random_geometric_reproducible(self):
        a = build_topology("random_geometric", 20, radius=0.3, seed=1)
        b = build_topology("random_geometric", 20, radius=0.3, seed=1)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_disconnected_rejected_with_component(self):
        with pytest.raises(TopologyError, match=r"unreachable.*\[2, 3\]"):
            Topology(np.array([[1, 1, 0, 0], [1, 1, 0, 0],
                               [0, 0, 1, 1], [0, 0, 1, 1]], dtype=bool))

    def test_reachability_matches_connected_components(self):
        # sparse random graphs, connected and not: the same graphs are
        # rejected, naming the same nodes
        rng = np.random.default_rng(0)
        rejected = 0
        for _ in range(300):
            K = int(rng.integers(2, 25))
            upper = np.triu(rng.random((K, K)) < rng.uniform(0.0, 0.4), 1)
            adj = upper | upper.T | np.eye(K, dtype=bool)
            outside = unreachable_from_0(adj)
            if outside:
                rejected += 1
                with pytest.raises(TopologyError) as exc:
                    Topology(adj)
                assert str(exc.value).endswith(f"unreachable from 0: {outside}")
            else:
                Topology(adj)
        assert 50 < rejected < 250

    def test_too_few_nodes(self):
        with pytest.raises(TopologyError):
            build_topology("ring", 1)

    def test_explicit_edge_out_of_range(self):
        with pytest.raises(TopologyError):
            build_topology("explicit", 2, edges=[(0, 5)])


class TestCombinationMatrix:
    def test_two_node_uniform(self):
        topo = build_topology("explicit", 2, edges=[(0, 1)])
        A = build_combination_matrix(topo, "uniform").A
        assert np.allclose(A, 0.5)

    def test_identity_adjacency_gives_identity(self):
        # no neighbors: DRLS degenerates to non-cooperative RLS
        cm = CombinationMatrix(np.eye(3), adjacency=np.eye(3, dtype=bool))
        assert np.array_equal(cm.A, np.eye(3))

    def test_ring4_uniform_columns(self):
        topo = build_topology("ring", 4)
        A = build_combination_matrix(topo, "uniform").A
        # each node has three neighbors (self plus two ring links)
        assert np.allclose(A[topo.adjacency], 1 / 3)
        # direct-summation oracle for the column sums
        for k in range(4):
            assert abs(sum(A[l, k] for l in range(4)) - 1.0) < 1e-12

    def test_metropolis_left_stochastic(self):
        topo = build_topology("random_geometric", 12, radius=0.5, seed=0)
        A = build_combination_matrix(topo, "metropolis").A
        assert np.abs(A.sum(axis=0) - 1).max() < 1e-12
        assert (A >= 0).all()
        assert np.allclose(A, A.T)

    def test_sparsity_matches_adjacency(self):
        topo = build_topology("random_geometric", 15, radius=0.4, seed=1)
        for rule in ("uniform", "metropolis"):
            A = build_combination_matrix(topo, rule).A
            assert not np.any((A > 0) & ~topo.adjacency)


class TestValidateLeftStochastic:
    def test_uniform_ring_zero_deviation(self):
        A = build_combination_matrix(build_topology("ring", 5), "uniform").A
        diag = validate_left_stochastic(A)
        assert diag["max_column_deviation"] < 1e-12
        assert diag["ok"]

    def test_identity_ok(self):
        assert validate_left_stochastic(np.eye(4))["ok"]

    def test_deficient_column_flagged(self):
        A = np.eye(3)
        A[0, 0] = 0.9
        diag = validate_left_stochastic(A)
        assert diag["max_column_deviation"] == pytest.approx(0.1)
        assert diag["worst_column"] == 0
        assert not diag["ok"]

    def test_negative_entry_reported(self):
        A = np.eye(2)
        A[0, 1], A[1, 1] = -0.1, 1.1
        assert (0, 1) in validate_left_stochastic(A)["negative_entries"]


@settings(max_examples=40, deadline=None)
@given(K=st.integers(3, 15), seed=st.integers(0, 10_000),
       rule=st.sampled_from(["uniform", "metropolis"]))
def test_combination_matrix_invariants(K, seed, rule):
    # random connected topology: ring backbone plus random chords
    rng = np.random.default_rng(seed)
    adj = build_topology("ring", K).adjacency.copy()
    extra = rng.random((K, K)) < 0.3
    adj |= extra | extra.T
    np.fill_diagonal(adj, True)
    topo = Topology(adj)
    cm = build_combination_matrix(topo, rule)
    assert np.abs(cm.A.sum(axis=0) - 1).max() <= 1e-12
    assert (cm.A >= 0).all()
    assert not np.any((cm.A > 0) & ~adj)


def test_noise_variances_range_and_determinism():
    v1 = draw_noise_variances(20, 0.01, 0.1, 99)
    v2 = draw_noise_variances(20, 0.01, 0.1, 99)
    assert np.array_equal(v1, v2)
    assert ((v1 >= 0.01) & (v1 <= 0.1)).all()
    with pytest.raises(ValueError):
        draw_noise_variances(5, -1.0, 0.1, 0)
