"""Structural tests for the paper's Lemmas 3-7.

These are the load-bearing claims behind Mogul's correctness; each gets a
direct test on graphs with a guaranteed non-empty border, plus
hypothesis-driven variants over random graphs and arbitrary clusterings
(the lemmas hold for *any* clustering fed to Algorithm 1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import node_estimate, precompute_cluster_bounds
from repro.core.index import MogulRanker
from repro.core.permutation import build_permutation
from repro.graph.adjacency import KnnGraph
from repro.linalg import complete_ldl, incomplete_ldl
from repro.linalg.triangular import (
    back_substitute,
    back_substitute_rows,
    forward_substitute,
    forward_substitute_rows,
)
from repro.ranking.normalize import ranking_matrix
from tests.conftest import random_symmetric_adjacency
from tests.test_core_permutation import random_labels


def build_factors(adjacency, labels=None, alpha=0.9, factorization="incomplete"):
    perm = build_permutation(adjacency, cluster_labels=labels)
    w = perm.permute_matrix(ranking_matrix(adjacency, alpha))
    factorize = incomplete_ldl if factorization == "incomplete" else complete_ldl
    return perm, factorize(w)


class TestLemma3:
    """L_ij = 0 between distinct interior clusters."""

    @pytest.mark.parametrize("factorization", ["incomplete", "complete"])
    def test_bordered_block_diagonal(self, bridged_graph, factorization):
        perm, factors = build_factors(
            bridged_graph.adjacency, factorization=factorization
        )
        cluster_of = perm.cluster_of_position
        border = perm.border_cluster
        rows, cols = factors.lower.nonzero()
        for i, j in zip(rows, cols):
            ci, cj = cluster_of[i], cluster_of[j]
            if ci != border and cj != border:
                assert ci == cj, f"factor entry ({i},{j}) crosses clusters"

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=30),
        n_clusters=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=300),
        factorization=st.sampled_from(["incomplete", "complete"]),
    )
    def test_property_any_clustering(self, n, n_clusters, seed, factorization):
        adjacency = random_symmetric_adjacency(n, seed=seed)
        labels = random_labels(n, n_clusters, seed)
        perm, factors = build_factors(
            adjacency, labels=labels, factorization=factorization
        )
        cluster_of = perm.cluster_of_position
        border = perm.border_cluster
        rows, cols = factors.lower.nonzero()
        crossing = [
            (i, j)
            for i, j in zip(rows, cols)
            if cluster_of[i] != border
            and cluster_of[j] != border
            and cluster_of[i] != cluster_of[j]
        ]
        assert not crossing


class TestLemma4:
    """y is zero outside C_Q union C_N."""

    @pytest.mark.parametrize("factorization", ["incomplete", "complete"])
    def test_forward_pattern(self, bridged_graph, factorization):
        perm, factors = build_factors(
            bridged_graph.adjacency, factorization=factorization
        )
        n = perm.n_nodes
        border = perm.border_slice
        for query_node in (0, 41, perm.order[border.start] if border.start < border.stop else 0):
            qp = int(perm.inverse[query_node])
            q_cluster = int(perm.cluster_of_position[qp])
            q_vec = np.zeros(n)
            q_vec[qp] = 0.1
            y_full = forward_substitute(factors, q_vec)
            allowed = set(range(border.start, border.stop))
            sl = perm.cluster_slices[q_cluster]
            allowed |= set(range(sl.start, sl.stop))
            for pos in range(n):
                if pos not in allowed:
                    assert y_full[pos] == pytest.approx(0.0, abs=1e-14)

    def test_restricted_forward_equals_full(self, bridged_graph):
        """Computing only the allowed rows reproduces the full result —
        the substitution really can skip everything else."""
        perm, factors = build_factors(bridged_graph.adjacency)
        n = perm.n_nodes
        qp = int(perm.inverse[3])
        q_cluster = int(perm.cluster_of_position[qp])
        q_vec = np.zeros(n)
        q_vec[qp] = 0.1
        border = perm.border_slice
        sl = perm.cluster_slices[q_cluster]
        rows = list(range(sl.start, sl.stop)) + list(range(border.start, border.stop))
        restricted = forward_substitute_rows(factors, q_vec, rows)
        full = forward_substitute(factors, q_vec)
        np.testing.assert_allclose(restricted, full, atol=1e-12)


class TestLemma5:
    """Any cluster's scores can be computed from the border scores alone."""

    def test_cluster_scores_independent(self, bridged_graph):
        perm, factors = build_factors(bridged_graph.adjacency)
        n = perm.n_nodes
        qp = int(perm.inverse[0])
        q_vec = np.zeros(n)
        q_vec[qp] = 0.1
        y = forward_substitute(factors, q_vec)
        full = back_substitute(factors, y)

        border = perm.border_slice
        for cid, sl in enumerate(perm.cluster_slices[:-1]):
            out = np.zeros(n)
            back_substitute_rows(factors, y, range(border.start, border.stop), out=out)
            # compute ONLY this cluster, never touching other interiors
            back_substitute_rows(factors, y, range(sl.start, sl.stop), out=out)
            np.testing.assert_allclose(out[sl], full[sl], atol=1e-12)


class TestLemmas6And7:
    """Node and cluster estimates upper-bound the approximate scores."""

    def _scores_and_bounds(self, adjacency, labels, query_node, alpha=0.9):
        perm, factors = build_factors(adjacency, labels=labels, alpha=alpha)
        n = perm.n_nodes
        qp = int(perm.inverse[query_node])
        q_vec = np.zeros(n)
        q_vec[qp] = 1 - alpha
        y = forward_substitute(factors, q_vec)
        x = back_substitute(factors, y)
        bounds = precompute_cluster_bounds(factors, perm)
        return perm, factors, bounds, x, qp

    def test_cluster_bound_dominates_members(self, bridged_graph):
        perm, factors, bounds, x, qp = self._scores_and_bounds(
            bridged_graph.adjacency, None, query_node=2
        )
        x_abs = np.abs(x)
        q_cluster = perm.cluster_of_position[qp]
        for cid, sl in enumerate(perm.cluster_slices[:-1]):
            if cid == q_cluster:
                continue
            estimate = bounds[cid].estimate(x_abs)
            assert np.all(x[sl] <= estimate + 1e-12)

    def test_node_estimates_dominate(self, bridged_graph):
        perm, factors, bounds, x, qp = self._scores_and_bounds(
            bridged_graph.adjacency, None, query_node=2
        )
        x_abs = np.abs(x)
        q_cluster = perm.cluster_of_position[qp]
        for cid, sl in enumerate(perm.cluster_slices[:-1]):
            if cid == q_cluster:
                continue
            for pos in range(sl.start, sl.stop):
                est = node_estimate(factors, perm, bounds[cid], pos, x_abs)
                assert x[pos] <= est + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=30),
        n_clusters=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=300),
        alpha=st.floats(min_value=0.1, max_value=0.99),
    )
    def test_property_bound_soundness(self, n, n_clusters, seed, alpha):
        """Lemma 7 over random graphs, arbitrary clusterings, any query."""
        adjacency = random_symmetric_adjacency(n, seed=seed)
        labels = random_labels(n, n_clusters, seed)
        query = seed % n
        perm, factors, bounds, x, qp = self._scores_and_bounds(
            adjacency, labels, query, alpha=alpha
        )
        x_abs = np.abs(x)
        q_cluster = perm.cluster_of_position[qp]
        for cid, sl in enumerate(perm.cluster_slices[:-1]):
            if cid == q_cluster:
                continue
            estimate = bounds[cid].estimate(x_abs)
            assert np.all(x[sl] <= estimate + 1e-9)

    def test_bound_overflow_saturates(self):
        """Gigantic clusters with strong couplings saturate to +inf rather
        than overflowing — pruning is merely disabled, never unsound."""
        from repro.core.bounds import ClusterBoundData

        data = ClusterBoundData(
            border_cols=np.array([0]),
            border_maxima=np.array([1.0]),
            internal_max=1.0,
            size=10_000,
        )
        assert data.estimate(np.array([2.0])) == np.inf

    def test_bound_zero_when_no_border_coupling(self):
        from repro.core.bounds import ClusterBoundData

        data = ClusterBoundData(
            border_cols=np.array([], dtype=np.int64),
            border_maxima=np.array([]),
            internal_max=0.5,
            size=4,
        )
        assert data.estimate(np.zeros(1)) == 0.0


class TestZeroCoupledClusters:
    """A non-seed cluster whose coupled border scores are all exactly 0
    scores exactly 0 (Lemma 5 with a zero right-hand side): each of its
    rows is ``0 - sum(U_ij * 0)``.  This is the structural fact a search
    that skips provably-zero clusters relies on, so it is checked with
    ``==`` in the reference back substitution and in ``scores()``."""

    def test_zero_border_coupling_scores_exactly_zero(self):
        alpha = 0.9
        exercised = 0
        for seed in range(40):
            n = 12 + seed % 19
            adjacency = random_symmetric_adjacency(n, density=0.08, seed=seed)
            labels = random_labels(n, 2 + seed % 4, seed)
            graph = KnnGraph(
                features=np.zeros((n, 1)), adjacency=adjacency, k=1, sigma=1.0
            )
            ranker = MogulRanker(
                graph, alpha=alpha, cluster_labels=labels, fill_level=0
            )
            perm, factors = ranker.index.permutation, ranker.index.factors
            border = perm.border_slice
            for query in range(n):
                qp = int(perm.inverse[query])
                q_vec = np.zeros(n)
                q_vec[qp] = 1 - alpha
                x = back_substitute(factors, forward_substitute(factors, q_vec))
                served = perm.permute_vector(ranker.scores(query))
                q_cluster = perm.cluster_of_position[qp]
                for cid, sl in enumerate(perm.cluster_slices[:-1]):
                    if cid == q_cluster or sl.start == sl.stop:
                        continue
                    rows = factors.upper[sl.start : sl.stop]
                    coupled = np.unique(rows.indices[rows.indices >= border.start])
                    if coupled.size == 0 or np.any(x[coupled] != 0.0):
                        continue
                    exercised += 1
                    assert np.all(x[sl] == 0.0), (seed, query, cid)
                    assert np.all(served[sl] == 0.0), (seed, query, cid)
        assert exercised >= 3  # the sweep really meets such clusters
