"""Tests for Algorithm 1 (node permutation) and the Permutation container."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.permutation import build_permutation
from repro.ranking.normalize import ranking_matrix
from tests.conftest import random_symmetric_adjacency


def random_labels(n: int, n_clusters: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_clusters, size=n)
    _, labels = np.unique(labels, return_inverse=True)
    return labels


class TestPermutationMatrix:
    def test_matrix_is_orthogonal_permutation(self, clustered_graph):
        perm = build_permutation(clustered_graph.adjacency)
        p = perm.matrix().toarray()
        # one 1 per row and per column, orthogonality P P^T = I
        np.testing.assert_array_equal(p.sum(axis=0), 1)
        np.testing.assert_array_equal(p.sum(axis=1), 1)
        np.testing.assert_allclose(p @ p.T, np.eye(perm.n_nodes))

    def test_permute_matrix_matches_explicit(self, clustered_graph):
        perm = build_permutation(clustered_graph.adjacency)
        w = ranking_matrix(clustered_graph.adjacency, 0.9)
        p = perm.matrix()
        expected = (p @ w @ p.T).toarray()
        np.testing.assert_allclose(perm.permute_matrix(w).toarray(), expected)

    def test_vector_roundtrip(self, clustered_graph):
        perm = build_permutation(clustered_graph.adjacency)
        x = np.random.default_rng(0).random(perm.n_nodes)
        np.testing.assert_allclose(perm.unpermute_vector(perm.permute_vector(x)), x)
        # and P x puts x[order[i]] at position i
        permuted = perm.permute_vector(x)
        np.testing.assert_allclose(permuted, x[perm.order])

    def test_inverse_consistency(self, clustered_graph):
        perm = build_permutation(clustered_graph.adjacency)
        np.testing.assert_array_equal(perm.inverse[perm.order], np.arange(perm.n_nodes))
        np.testing.assert_array_equal(perm.order[perm.inverse], np.arange(perm.n_nodes))


class TestAlgorithmOne:
    def test_border_collects_all_cross_edges(self, bridged_graph):
        perm = build_permutation(bridged_graph.adjacency)
        border = set(range(perm.border_slice.start, perm.border_slice.stop))
        coo = bridged_graph.adjacency.tocoo()
        cluster_of = perm.cluster_of_position
        for i, j in zip(perm.inverse[coo.row], perm.inverse[coo.col]):
            if cluster_of[i] != cluster_of[j]:
                # a cross-cluster edge must involve the border cluster
                assert i in border or j in border

    def test_interior_clusters_have_only_internal_edges(self, bridged_graph):
        """Lines 3-7: after eviction, interior nodes' edges stay inside."""
        perm = build_permutation(bridged_graph.adjacency)
        cluster_of = perm.cluster_of_position
        border_id = perm.border_cluster
        coo = bridged_graph.adjacency.tocoo()
        for i, j in zip(perm.inverse[coo.row], perm.inverse[coo.col]):
            ci, cj = cluster_of[i], cluster_of[j]
            if ci != border_id and cj != border_id:
                assert ci == cj

    def test_border_is_last_and_slices_partition(self, bridged_graph):
        perm = build_permutation(bridged_graph.adjacency)
        assert perm.border_slice.stop == perm.n_nodes
        covered = []
        for sl in perm.cluster_slices:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(perm.n_nodes))

    def test_ascending_within_cluster_degree(self, bridged_graph):
        """Lines 8-17: inside each cluster positions are ordered by
        non-decreasing within-cluster edge count."""
        perm = build_permutation(bridged_graph.adjacency)
        adjacency = bridged_graph.adjacency
        cluster_of = perm.cluster_of_position
        for cid, sl in enumerate(perm.cluster_slices):
            degrees = []
            for pos in range(sl.start, sl.stop):
                node = perm.order[pos]
                nbrs = adjacency.indices[
                    adjacency.indptr[node] : adjacency.indptr[node + 1]
                ]
                within = sum(
                    1 for nb in nbrs if cluster_of[perm.inverse[nb]] == cid
                )
                degrees.append(within)
            assert degrees == sorted(degrees)

    def test_no_cross_edges_means_empty_border(self):
        """Two disconnected cliques: every node keeps only within edges."""
        dense = np.zeros((8, 8))
        dense[:4, :4] = 1.0
        dense[4:, 4:] = 1.0
        np.fill_diagonal(dense, 0.0)
        perm = build_permutation(sp.csr_matrix(dense))
        assert perm.border_slice.start == perm.border_slice.stop

    def test_star_graph_everything_in_border(self):
        """A star clustered into singleton-ish groups: the hub and leaves
        all touch cross-cluster edges, so the border holds everything that
        crosses."""
        n = 7
        rows = np.zeros(n - 1, dtype=int)
        cols = np.arange(1, n)
        adj = sp.csr_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
        adj = (adj + adj.T).tocsr()
        labels = np.arange(n)  # force all-singleton clustering
        perm = build_permutation(adj, cluster_labels=labels)
        # all nodes have cross-cluster edges -> all in border, one cluster
        assert perm.n_clusters == 1
        assert perm.border_slice == slice(0, n)

    def test_precomputed_labels_respected(self, clustered_graph):
        labels = random_labels(clustered_graph.n_nodes, 4, seed=1)
        perm = build_permutation(clustered_graph.adjacency, cluster_labels=labels)
        assert perm.n_nodes == clustered_graph.n_nodes

    def test_label_length_validation(self, clustered_graph):
        with pytest.raises(ValueError, match="cluster_labels"):
            build_permutation(
                clustered_graph.adjacency, cluster_labels=np.zeros(3, dtype=int)
            )

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_permutation(sp.csr_matrix((0, 0)))

    def test_deterministic(self, clustered_graph):
        a = build_permutation(clustered_graph.adjacency)
        b = build_permutation(clustered_graph.adjacency)
        np.testing.assert_array_equal(a.order, b.order)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        n_clusters=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_property_valid_permutation_any_labels(self, n, n_clusters, seed):
        """Algorithm 1 yields a valid permutation for arbitrary labellings
        (its lemmas do not require the clustering to be good)."""
        adjacency = random_symmetric_adjacency(n, seed=seed)
        labels = random_labels(n, n_clusters, seed)
        perm = build_permutation(adjacency, cluster_labels=labels)
        np.testing.assert_array_equal(np.sort(perm.order), np.arange(n))
        assert perm.border_slice.stop == n
        # cluster_of_position consistent with slices
        for cid, sl in enumerate(perm.cluster_slices):
            assert np.all(perm.cluster_of_position[sl] == cid)
