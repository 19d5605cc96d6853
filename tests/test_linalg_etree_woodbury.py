"""Tests for the elimination tree and ereach."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import complete_ldl, elimination_tree, ereach
from repro.ranking.normalize import ranking_matrix
from tests.conftest import random_symmetric_adjacency


class TestEliminationTree:
    def test_parent_indices_increase(self):
        w = ranking_matrix(random_symmetric_adjacency(30, seed=0), 0.9)
        parent = elimination_tree(w)
        for j, p in enumerate(parent):
            assert p == -1 or p > j

    def test_chain_structure(self):
        """A path graph 0-1-2-3 yields parent[i] = i+1."""
        adj = sp.diags([np.ones(3)], offsets=[1], shape=(4, 4))
        adj = (adj + adj.T).tocsr()
        parent = elimination_tree(ranking_matrix(adj, 0.5))
        np.testing.assert_array_equal(parent, [1, 2, 3, -1])

    def test_star_structure(self):
        """A star centred at the last node: every leaf's parent is the hub."""
        n = 6
        rows = np.arange(n - 1)
        cols = np.full(n - 1, n - 1)
        adj = sp.csr_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
        adj = (adj + adj.T).tocsr()
        parent = elimination_tree(ranking_matrix(adj, 0.5))
        np.testing.assert_array_equal(parent[:-1], np.full(n - 1, n - 1))
        assert parent[-1] == -1

    def test_ereach_predicts_factor_pattern(self):
        """The union of ereach(k) over k equals the strict-lower pattern of
        the complete factor (no over- or under-prediction up to exact
        numerical cancellation, which SPD W does not produce)."""
        w = ranking_matrix(random_symmetric_adjacency(25, seed=3), 0.9)
        parent = elimination_tree(w)
        marks = np.full(25, -1, dtype=np.int64)
        predicted = set()
        for k in range(25):
            for j in ereach(w, k, parent, marks):
                predicted.add((k, j))
        factors = complete_ldl(w)
        actual = set(zip(*factors.lower.nonzero()))
        assert actual == predicted

    def test_ereach_sorted(self):
        w = ranking_matrix(random_symmetric_adjacency(20, seed=4), 0.9)
        parent = elimination_tree(w)
        marks = np.full(20, -1, dtype=np.int64)
        for k in range(20):
            reach = ereach(w, k, parent, marks)
            assert reach == sorted(reach)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            elimination_tree(sp.csr_matrix(np.ones((2, 3))))

