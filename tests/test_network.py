import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drlsnet.network import (CombinationMatrix, build_combination_matrix,
                             build_topology, draw_noise_variances)
from oracles import unreachable_from_0


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
        adj = build_topology("ring", 4)
        expected = np.eye(4, dtype=bool)
        for k in range(4):
            expected[k, (k + 1) % 4] = expected[k, (k - 1) % 4] = True
        assert np.array_equal(adj, expected)

    def test_explicit_two_nodes(self):
        assert build_topology("explicit", 2, edges=[(0, 1)]).all()

    def test_random_geometric_connected(self):
        adj = build_topology("random_geometric", 20, radius=0.3, seed=1)
        assert bfs_reachable(adj)
        assert adj.diagonal().all()

    def test_random_geometric_reproducible(self):
        a = build_topology("random_geometric", 20, radius=0.3, seed=1)
        b = build_topology("random_geometric", 20, radius=0.3, seed=1)
        assert np.array_equal(a, b)

    def test_random_geometric_links_points_within_radius(self):
        # K points uniform in the unit square from the seed's generator,
        # linked at distance <= radius, the pair at exactly the radius too
        pts = np.random.default_rng(5).random((8, 2))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        radius = float(np.sort(dist, axis=None)[40])
        adj = build_topology("random_geometric", 8, radius=radius, seed=5)
        assert np.array_equal(adj, dist <= radius)
        assert (dist == radius).any()

    @pytest.mark.parametrize("radius, seed", [(None, 1), (0.5, None)])
    def test_random_geometric_needs_radius_and_seed(self, radius, seed):
        with pytest.raises(ValueError, match="needs a radius and a seed"):
            build_topology("random_geometric", 5, radius=radius, seed=seed)

    @pytest.mark.parametrize("kind, kwargs", [
        ("ring", {}),
        ("random_geometric", {"radius": 0.6, "seed": 2}),
        ("explicit", {"edges": [(0, 1), (1, 2), (2, 3), (3, 4)]}),
    ])
    def test_adjacency_is_read_only_bool(self, kind, kwargs):
        adj = build_topology(kind, 5, **kwargs)
        assert adj.dtype == bool and adj.shape == (5, 5)
        assert np.array_equal(adj, adj.T) and adj.diagonal().all()
        with pytest.raises(ValueError, match="read-only"):
            adj[0, 0] = False

    def test_disconnected_rejected_with_component(self):
        with pytest.raises(ValueError, match=r"unreachable.*\[2, 3\]"):
            build_topology("explicit", 4, edges=[(0, 1), (2, 3)])

    def test_reachability_matches_connected_components(self):
        # sparse random graphs, connected and not: the same graphs are
        # rejected, naming the same nodes
        rng = np.random.default_rng(0)
        rejected = 0
        for _ in range(300):
            K = int(rng.integers(2, 25))
            upper = np.triu(rng.random((K, K)) < rng.uniform(0.0, 0.4), 1)
            adj = upper | upper.T | np.eye(K, dtype=bool)
            # the self-loops keep the edge list non-empty on an edgeless draw
            edges = [tuple(e) for e in np.argwhere(np.triu(adj)).tolist()]
            outside = unreachable_from_0(adj)
            if outside:
                rejected += 1
                with pytest.raises(ValueError) as exc:
                    build_topology("explicit", K, edges=edges)
                assert str(exc.value).endswith(f"unreachable from 0: {outside}")
            else:
                assert np.array_equal(build_topology("explicit", K, edges=edges), adj)
        assert 50 < rejected < 250

    def test_too_few_nodes(self):
        # checked before the matrix is allocated, so no size reaches numpy
        for K in (1, 0, -1):
            with pytest.raises(ValueError, match="need at least 2 nodes"):
                build_topology("ring", K)

    def test_explicit_edge_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_topology("explicit", 2, edges=[(0, 5)])

    @pytest.mark.parametrize("edge", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_explicit_edge_one_past_either_end(self, edge):
        # K itself would raise IndexError and -1 would wrap to node K-1
        with pytest.raises(ValueError, match="out of range"):
            build_topology("explicit", 2, edges=[(0, 1), edge])

    @pytest.mark.parametrize("edges", [None, []])
    def test_explicit_needs_edges(self, edges):
        with pytest.raises(ValueError, match="needs an edge list"):
            build_topology("explicit", 3, edges=edges)


class TestCombinationMatrix:
    def test_two_node_uniform(self):
        adj = build_topology("explicit", 2, edges=[(0, 1)])
        A = build_combination_matrix(adj, "uniform").A
        assert np.allclose(A, 0.5)

    def test_identity_adjacency_gives_identity(self):
        # no neighbors: DRLS degenerates to non-cooperative RLS
        cm = CombinationMatrix(np.eye(3), adjacency=np.eye(3, dtype=bool))
        assert np.array_equal(cm.A, np.eye(3))

    def test_ring4_uniform_columns(self):
        adj = build_topology("ring", 4)
        A = build_combination_matrix(adj, "uniform").A
        # each node has three neighbors (self plus two ring links)
        assert np.allclose(A[adj], 1 / 3)
        # direct-summation oracle for the column sums
        for k in range(4):
            assert abs(sum(A[l, k] for l in range(4)) - 1.0) < 1e-12

    def test_metropolis_left_stochastic(self):
        adj = build_topology("random_geometric", 12, radius=0.5, seed=0)
        A = build_combination_matrix(adj, "metropolis").A
        assert np.abs(A.sum(axis=0) - 1).max() < 1e-12
        assert (A >= 0).all()
        assert np.allclose(A, A.T)

    def test_sparsity_matches_adjacency(self):
        adj = build_topology("random_geometric", 15, radius=0.4, seed=1)
        for rule in ("uniform", "metropolis"):
            A = build_combination_matrix(adj, rule).A
            assert not np.any((A > 0) & ~adj)


@settings(max_examples=40, deadline=None)
@given(K=st.integers(3, 15), seed=st.integers(0, 10_000),
       rule=st.sampled_from(["uniform", "metropolis"]))
def test_combination_matrix_invariants(K, seed, rule):
    # random connected topology: ring backbone plus random chords
    rng = np.random.default_rng(seed)
    adj = build_topology("ring", K).copy()
    extra = rng.random((K, K)) < 0.3
    adj |= extra | extra.T
    np.fill_diagonal(adj, True)
    cm = build_combination_matrix(adj, rule)
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
