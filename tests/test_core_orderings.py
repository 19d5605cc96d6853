"""Tests for the within-cluster ordering options of build_permutation.

The paper orders nodes inside each cluster by ascending within-cluster
degree (§4.2.2, lines 8-17 of Algorithm 1); the alternatives exist for the
Figure 8 ablation.  Whatever the ordering, the structural invariants of the
permutation must hold — Mogul's correctness never depends on the ordering,
only its approximation quality and precompute speed do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.permutation import WITHIN_ORDERS, build_permutation
from repro.ranking.base import rank_scores


def assert_valid_permutation(perm, n):
    np.testing.assert_array_equal(np.sort(perm.order), np.arange(n))
    np.testing.assert_array_equal(perm.order[perm.inverse], np.arange(n))
    assert perm.cluster_slices[-1].stop == n


class TestOrderings:
    @pytest.mark.parametrize("within_order", WITHIN_ORDERS)
    def test_valid_permutation(self, bridged_graph, within_order):
        perm = build_permutation(
            bridged_graph.adjacency, within_order=within_order
        )
        assert_valid_permutation(perm, bridged_graph.n_nodes)

    def test_default_is_degree_asc(self, bridged_graph):
        default = build_permutation(bridged_graph.adjacency)
        explicit = build_permutation(
            bridged_graph.adjacency, within_order="degree_asc"
        )
        np.testing.assert_array_equal(default.order, explicit.order)

    def test_degree_asc_actually_ascends(self, bridged_graph):
        perm = build_permutation(bridged_graph.adjacency)
        adjacency = bridged_graph.adjacency
        labels_of = perm.cluster_of_position
        for sl in perm.cluster_slices:
            members = perm.order[sl]
            if members.size < 2:
                continue
            # within-cluster degree under the final membership
            degrees = []
            for node in members:
                row = adjacency[int(node)]
                neighbors = row.indices
                cluster = labels_of[perm.inverse[int(node)]]
                degrees.append(
                    int(
                        np.sum(
                            labels_of[perm.inverse[neighbors]] == cluster
                        )
                    )
                )
            assert all(
                degrees[i] <= degrees[i + 1] for i in range(len(degrees) - 1)
            )

    def test_degree_desc_reverses_degree_sequence(self, bridged_graph):
        asc = build_permutation(bridged_graph.adjacency, within_order="degree_asc")
        desc = build_permutation(
            bridged_graph.adjacency, within_order="degree_desc"
        )
        # Same cluster boundary layout, different internal arrangement.
        assert [s.start for s in asc.cluster_slices] == [
            s.start for s in desc.cluster_slices
        ]

    def test_random_is_seed_deterministic(self, bridged_graph):
        a = build_permutation(bridged_graph.adjacency, within_order="random", seed=5)
        b = build_permutation(bridged_graph.adjacency, within_order="random", seed=5)
        c = build_permutation(bridged_graph.adjacency, within_order="random", seed=6)
        np.testing.assert_array_equal(a.order, b.order)
        assert not np.array_equal(a.order, c.order)

    def test_unknown_order_rejected(self, bridged_graph):
        with pytest.raises(ValueError, match="within_order"):
            build_permutation(bridged_graph.adjacency, within_order="bogus")


class TestSearchCorrectUnderAnyOrdering:
    @pytest.mark.parametrize("within_order", WITHIN_ORDERS)
    def test_answers_match_bruteforce(self, clustered_graph, within_order):
        """Algorithm 2 stays exact w.r.t. its own approximate scores no
        matter how nodes are arranged inside clusters."""
        from repro.core.index import MogulIndex
        from repro.core.search import top_k_search

        perm = build_permutation(
            clustered_graph.adjacency, within_order=within_order, seed=1
        )
        # Build the index around the custom permutation by reusing its
        # cluster labels (ordering inside clusters comes from `perm`).
        from repro.core.solver import ClusterSolver
        from repro.core.bounds import BoundsTable, precompute_cluster_bounds
        from repro.linalg.ldl import incomplete_ldl
        from repro.linalg.triangular import ldl_solve
        from repro.ranking.normalize import ranking_matrix

        w = perm.permute_matrix(ranking_matrix(clustered_graph.adjacency, 0.95))
        factors = incomplete_ldl(w)
        bounds = precompute_cluster_bounds(factors, perm)
        query = 17
        position = int(perm.inverse[query])
        q_vec = np.zeros(clustered_graph.n_nodes)
        q_vec[position] = 0.05
        full_permuted = ldl_solve(factors, q_vec)
        reference = rank_scores(
            full_permuted, 5, exclude=position
        )
        answers, _ = top_k_search(
            factors,
            perm,
            bounds,
            seed_positions=np.asarray([position]),
            seed_weights=np.asarray([0.05]),
            k=5,
            exclude_positions=(position,),
        )
        result_scores = np.asarray([score for _, score in answers])
        np.testing.assert_allclose(result_scores, reference.scores, atol=1e-12)
