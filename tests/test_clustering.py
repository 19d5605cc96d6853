"""Tests for modularity, Louvain, k-means and spectral clustering."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import spectral_clustering
from repro.clustering.kmeans import kmeans
from repro.clustering.louvain import louvain
from repro.clustering.modularity import modularity
from tests import oracles
from tests.conftest import random_symmetric_adjacency, three_cluster_features


def two_clique_graph(size: int = 6, bridge: bool = True) -> sp.csr_matrix:
    """Two cliques optionally joined by a single bridge edge."""
    n = 2 * size
    dense = np.zeros((n, n))
    dense[:size, :size] = 1.0
    dense[size:, size:] = 1.0
    np.fill_diagonal(dense, 0.0)
    if bridge:
        dense[0, size] = dense[size, 0] = 1.0
    return sp.csr_matrix(dense)


class TestModularity:
    def test_two_cliques_partition_beats_trivial(self):
        adj = two_clique_graph()
        labels_good = np.array([0] * 6 + [1] * 6)
        labels_trivial = np.zeros(12, dtype=np.int64)
        assert modularity(adj, labels_good) > modularity(adj, labels_trivial)

    def test_single_community_is_zero(self):
        adj = two_clique_graph(bridge=False)
        assert modularity(adj, np.zeros(12, dtype=np.int64)) == pytest.approx(0.0)

    def test_range_bounds(self):
        adj = two_clique_graph()
        for labels in (np.zeros(12, dtype=int), np.arange(12)):
            q = modularity(adj, labels)
            assert -0.5 <= q <= 1.0

    def test_empty_graph(self):
        assert modularity(sp.csr_matrix((3, 3)), np.arange(3)) == 0.0

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            modularity(two_clique_graph(), np.zeros(5, dtype=int))

    def test_invariant_under_label_renaming(self):
        adj = random_symmetric_adjacency(20, seed=1)
        labels = np.random.default_rng(0).integers(0, 4, size=20)
        renamed = (labels + 7) % 11  # injective on 0..3 -> still a labelling
        # re-densify ids
        _, renamed = np.unique(renamed, return_inverse=True)
        assert modularity(adj, labels) == pytest.approx(modularity(adj, renamed))


class TestLouvain:
    def test_separates_cliques(self):
        adj = two_clique_graph()
        labels = louvain(adj)
        assert labels[0] == labels[5]
        assert labels[6] == labels[11]
        assert labels[0] != labels[6]

    def test_disconnected_components_stay_separate(self):
        adj = two_clique_graph(bridge=False)
        labels = louvain(adj)
        assert len(np.unique(labels)) == 2

    def test_labels_contiguous(self):
        adj = random_symmetric_adjacency(40, seed=2)
        labels = louvain(adj)
        uniq = np.unique(labels)
        np.testing.assert_array_equal(uniq, np.arange(uniq.size))

    def test_improves_over_singletons(self):
        adj = random_symmetric_adjacency(50, seed=3, density=0.1)
        labels = louvain(adj)
        q_louvain = modularity(adj, labels)
        q_singletons = modularity(adj, np.arange(50))
        assert q_louvain >= q_singletons

    def test_deterministic_without_shuffle(self):
        adj = random_symmetric_adjacency(40, seed=4)
        np.testing.assert_array_equal(louvain(adj), louvain(adj))

    def test_empty_graph(self):
        assert louvain(sp.csr_matrix((0, 0))).size == 0

    def test_edgeless_graph(self):
        labels = louvain(sp.csr_matrix((5, 5)))
        assert len(np.unique(labels)) == 5

    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="resolution"):
            louvain(two_clique_graph(), resolution=0.0)

    def test_high_resolution_gives_more_clusters(self):
        features, _ = three_cluster_features(per_cluster=25)
        from repro.graph import build_knn_graph

        adj = build_knn_graph(features, k=5).adjacency
        low = len(np.unique(louvain(adj, resolution=0.5)))
        high = len(np.unique(louvain(adj, resolution=3.0)))
        assert high >= low

    def test_knn_graph_recovers_ground_truth(self, clustered_graph, clustered_labels):
        labels = louvain(clustered_graph.adjacency)
        # Louvain clusters must refine or match the three true clusters:
        # every Louvain community lies inside one ground-truth cluster.
        for community in np.unique(labels):
            members = clustered_labels[labels == community]
            assert len(np.unique(members)) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=80),
    )
    def test_relabel_is_first_appearance_order(self, raw):
        from repro.clustering.louvain import _relabel

        labels = np.asarray(raw, dtype=np.int64)
        relabelled = _relabel(labels)
        assert relabelled.dtype == np.int64
        assert relabelled.shape == labels.shape
        # The same partition, renamed to contiguous ids in the order each
        # label first appears.
        first_seen = list(dict.fromkeys(raw))
        assert relabelled.tolist() == [first_seen.index(label) for label in raw]


class TestPackageLayout:
    def test_louvain_submodule_is_not_shadowed(self):
        import types

        import repro.clustering.louvain as louvain_module

        assert isinstance(louvain_module, types.ModuleType)
        assert louvain_module.KERNEL in ("compiled", "python")

    def test_modularity_submodule_is_not_shadowed(self):
        import types

        import repro.clustering.modularity as modularity_module

        assert isinstance(modularity_module, types.ModuleType)
        assert callable(modularity_module.modularity)


class TestKMeans:
    def test_recovers_separated_clusters(self):
        features, labels = three_cluster_features(per_cluster=30)
        result = kmeans(features, 3, seed=0, n_init=3)
        # same-cluster points share a centroid; map labels via majority
        for c in range(3):
            assigned = result.labels[labels == c]
            values, counts = np.unique(assigned, return_counts=True)
            assert counts.max() / counts.sum() == pytest.approx(1.0)

    def test_inertia_zero_when_k_equals_n(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(6, 2))
        result = kmeans(points, 6, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_k_one_is_mean(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(20, 3))
        result = kmeans(points, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0), atol=1e-9)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 2))
        a = kmeans(points, 4, seed=9)
        b = kmeans(points, 4, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_n_init_improves_or_ties(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 2))
        single = kmeans(points, 5, seed=4, n_init=1)
        multi = kmeans(points, 5, seed=4, n_init=5)
        assert multi.inertia <= single.inertia + 1e-9

    def test_validation(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(points, 4)
        with pytest.raises(ValueError, match="non-empty"):
            kmeans(np.zeros((0, 2)), 1)

    def test_duplicate_points(self):
        points = np.ones((10, 2))
        result = kmeans(points, 3, seed=0)
        assert result.inertia == pytest.approx(0.0)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=30),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_property_labels_valid_and_inertia_consistent(self, n, k, seed):
        if k > n:
            k = n
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 3))
        result = kmeans(points, k, seed=seed)
        assert result.labels.shape == (n,)
        assert result.labels.min() >= 0 and result.labels.max() < k
        recomputed = sum(
            np.sum((points[i] - result.centroids[result.labels[i]]) ** 2)
            for i in range(n)
        )
        assert result.inertia == pytest.approx(recomputed, rel=1e-9, abs=1e-9)


class TestSpectral:
    def test_separates_cliques(self):
        adj = two_clique_graph()
        labels = spectral_clustering(adj, 2, seed=0)
        assert labels[0] == labels[5]
        assert labels[6] == labels[11]
        assert labels[0] != labels[6]

    def test_three_gaussian_clusters(self, clustered_graph, clustered_labels):
        labels = spectral_clustering(clustered_graph.adjacency, 3, seed=0)
        for c in np.unique(labels):
            members = clustered_labels[labels == c]
            values, counts = np.unique(members, return_counts=True)
            assert counts.max() / counts.sum() >= 0.95

    def test_single_cluster(self):
        adj = two_clique_graph()
        labels = spectral_clustering(adj, 1)
        assert np.all(labels == 0)

    def test_validation(self):
        adj = two_clique_graph()
        with pytest.raises(ValueError, match="exceeds"):
            spectral_clustering(adj, 13)

    def test_isolated_nodes_handled(self):
        adj = sp.lil_matrix((8, 8))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        labels = spectral_clustering(adj.tocsr(), 2, seed=1)
        assert labels.shape == (8,)


class TestLouvainImplementations:
    """The production local move and its array-based oracle agree bitwise."""

    @pytest.mark.parametrize("n,seed", [(30, 0), (80, 1), (150, 2)])
    def test_labels_bitwise_identical(self, n, seed):
        adj = random_symmetric_adjacency(n, seed=seed)
        np.testing.assert_array_equal(louvain(adj), oracles.louvain(adj))

    def test_identical_on_knn_graph(self, clustered_graph):
        fast = louvain(clustered_graph.adjacency)
        reference = oracles.louvain(clustered_graph.adjacency)
        np.testing.assert_array_equal(fast, reference)

    def test_shuffled_order_identical(self):
        adj = random_symmetric_adjacency(60, seed=3)
        fast = louvain(adj, shuffle=True, seed=42)
        reference = oracles.louvain(adj, shuffle=True, seed=42)
        np.testing.assert_array_equal(fast, reference)

    def test_nonpositive_weights_fall_back(self):
        # An explicit zero-weight edge is dropped before the local move
        # (its accumulator needs strictly positive weights); the labels
        # still match the oracle, which never relied on that.
        adj = random_symmetric_adjacency(40, seed=4)
        for i, j in ((0, 1), (1, 0)):
            row = slice(adj.indptr[i], adj.indptr[i + 1])
            adj.data[row][adj.indices[row] == j] = 0.0
        assert np.count_nonzero(adj.data == 0.0) == 2
        np.testing.assert_array_equal(louvain(adj), oracles.louvain(adj))

    def test_negative_weight_rejected(self):
        adj = random_symmetric_adjacency(20, seed=5).tolil()
        adj[2, 7] = adj[7, 2] = -0.5
        with pytest.raises(ValueError, match=r"negative weight -0\.5 at \(2, 7\)"):
            louvain(adj.tocsr())
