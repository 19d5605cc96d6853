"""Tests for the LDL^T factorizations (incomplete and complete).

Key invariants (see repro.linalg.ldl):

* complete_ldl reconstructs W exactly — it is Modified Cholesky;
* incomplete_ldl matches W *on W's own sparsity pattern* and keeps
  exactly that pattern in the factor;
* on a tree ordered leaves-first there is no fill-in, so both variants
  coincide and the incomplete factorization is exact;
* pivots remain positive without perturbation for W = I - alpha*S.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import complete_ldl, incomplete_ldl, ldl_solve
from repro.linalg.ldl import (
    factor_border_rows,
    factor_row_span,
    global_pivot_floor,
    symbolic_pattern,
)
from repro.ranking.normalize import ranking_matrix
from tests.conftest import random_symmetric_adjacency


def _ranking_w(n: int, seed: int, alpha: float = 0.9) -> sp.csr_matrix:
    return ranking_matrix(random_symmetric_adjacency(n, seed=seed), alpha)


class TestCompleteLDL:
    @pytest.mark.parametrize("n,seed", [(5, 0), (20, 1), (60, 2)])
    def test_reconstructs_exactly(self, n, seed):
        w = _ranking_w(n, seed)
        factors = complete_ldl(w)
        np.testing.assert_allclose(
            factors.reconstruct().toarray(), w.toarray(), atol=1e-10
        )

    def test_solve_matches_dense(self):
        w = _ranking_w(30, 3)
        factors = complete_ldl(w)
        b = np.random.default_rng(0).random(30)
        expected = np.linalg.solve(w.toarray(), b)
        np.testing.assert_allclose(ldl_solve(factors, b), expected, atol=1e-9)

    def test_no_pivot_perturbations_on_spd(self):
        factors = complete_ldl(_ranking_w(40, 4, alpha=0.99))
        assert factors.pivot_perturbations == 0

    def test_fill_in_superset_of_pattern(self):
        w = _ranking_w(40, 5)
        inc = incomplete_ldl(w)
        com = complete_ldl(w)
        assert com.nnz >= inc.nnz
        # every incomplete entry position appears in the complete factor
        inc_pattern = set(zip(*inc.lower.nonzero()))
        com_pattern = set(zip(*com.lower.nonzero()))
        missing = {
            pos for pos in inc_pattern - com_pattern
            # positions may vanish from the complete factor only by exact
            # numerical cancellation, which does not occur for these W
        }
        assert not missing

    def test_dense_input_accepted(self):
        w = _ranking_w(10, 6).toarray()
        factors = complete_ldl(w)
        np.testing.assert_allclose(factors.reconstruct().toarray(), w, atol=1e-10)

    def test_diagonal_matrix(self):
        w = sp.diags([2.0, 3.0, 4.0]).tocsr()
        factors = complete_ldl(w)
        assert factors.nnz == 0
        np.testing.assert_allclose(factors.diag, [2.0, 3.0, 4.0])

    def test_upper_is_transpose_of_lower(self):
        factors = complete_ldl(_ranking_w(25, 7))
        np.testing.assert_allclose(
            factors.upper.toarray(), factors.lower.T.toarray(), atol=0
        )


class TestIncompleteLDL:
    def test_same_pattern_as_w(self):
        w = _ranking_w(40, 8)
        factors = incomplete_ldl(w)
        w_lower = sp.tril(w, k=-1).tocsr()
        assert set(zip(*factors.lower.nonzero())) <= set(zip(*w_lower.nonzero()))

    def test_matches_w_on_pattern(self):
        """IC(0) residual W - LDL^T vanishes on W's pattern positions."""
        w = _ranking_w(50, 9)
        factors = incomplete_ldl(w)
        residual = (factors.reconstruct() - w).toarray()
        coo = sp.tril(w, k=-1).tocoo()
        np.testing.assert_allclose(residual[coo.row, coo.col], 0.0, atol=1e-10)
        np.testing.assert_allclose(np.diag(residual), 0.0, atol=1e-10)

    def test_exact_on_leaf_first_tree(self):
        """On a tree with children ordered before parents there is no
        fill-in, so Incomplete Cholesky is exact (the paper's accuracy
        argument in the manifold limit)."""
        import networkx as nx

        tree = nx.random_labeled_tree(30, seed=1)
        adj = nx.to_scipy_sparse_array(tree, format="csr").astype(float)
        rng = np.random.default_rng(2)
        adj.data = rng.random(adj.nnz) * 0.5 + 0.5
        adj = ((adj + adj.T) / 2).tocsr()
        order = list(nx.bfs_tree(tree, 0).nodes())[::-1]
        perm = sp.csr_matrix(
            (np.ones(30), (np.arange(30), order)), shape=(30, 30)
        )
        w = (perm @ ranking_matrix(adj, 0.9) @ perm.T).tocsr()
        inc = incomplete_ldl(w)
        np.testing.assert_allclose(inc.reconstruct().toarray(), w.toarray(), atol=1e-10)

    def test_no_pivot_perturbations_on_knn_like(self):
        factors = incomplete_ldl(_ranking_w(60, 10, alpha=0.99))
        assert factors.pivot_perturbations == 0

    def test_pivot_guard_counts(self):
        """A matrix engineered to break IC(0) triggers the guard instead of
        dividing by ~0 or producing negative pivots silently."""
        dense = np.array(
            [
                [1.0, 0.99, 0.99, 0.0],
                [0.99, 1.0, 0.0, 0.99],
                [0.99, 0.0, 1.0, 0.99],
                [0.0, 0.99, 0.99, 1.0],
            ]
        )
        factors = incomplete_ldl(sp.csr_matrix(dense))
        assert np.all(factors.diag > 0)

    def test_identity(self):
        factors = incomplete_ldl(sp.identity(5, format="csr"))
        assert factors.nnz == 0
        np.testing.assert_allclose(factors.diag, np.ones(5))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            incomplete_ldl(sp.csr_matrix(np.ones((2, 3))))

    def test_nnz_reported(self):
        w = _ranking_w(30, 11)
        factors = incomplete_ldl(w)
        assert factors.nnz == sp.tril(w, k=-1).nnz


class TestLDLProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=25),
        seed=st.integers(min_value=0, max_value=1000),
        alpha=st.floats(min_value=0.05, max_value=0.99),
    )
    def test_complete_always_reconstructs(self, n, seed, alpha):
        w = ranking_matrix(random_symmetric_adjacency(n, seed=seed), alpha)
        factors = complete_ldl(w)
        np.testing.assert_allclose(
            factors.reconstruct().toarray(), w.toarray(), atol=1e-8
        )
        assert factors.pivot_perturbations == 0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=25),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_incomplete_pattern_and_diagonal(self, n, seed):
        w = ranking_matrix(random_symmetric_adjacency(n, seed=seed), 0.9)
        factors = incomplete_ldl(w)
        # pattern containment
        w_lower = sp.tril(w, k=-1).tocsr()
        assert set(zip(*factors.lower.nonzero())) <= set(zip(*w_lower.nonzero()))
        # positive pivots on SPD input
        assert np.all(factors.diag > 0)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_solve_roundtrip(self, n, seed):
        w = ranking_matrix(random_symmetric_adjacency(n, seed=seed), 0.8)
        factors = complete_ldl(w)
        b = np.random.default_rng(seed).random(n)
        x = ldl_solve(factors, b)
        np.testing.assert_allclose(w @ x, b, atol=1e-8)


class TestSpanPrimitives:
    """The sharded build's split factorization: interior span + border rows."""

    def test_border_row_needing_column_without_interior_entries(self):
        # Interior cluster {0, 1} with edge 0-1; border node 2 touches
        # only node 1.  The border row needs column 1, which no interior
        # row references, so the border pass has no interior entry to
        # gather for it.
        adjacency = sp.csr_matrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        )
        w = ranking_matrix(adjacency, 0.9)
        border_start = 2
        pat_indptr, pat_indices = symbolic_pattern(w)
        lower_w = sp.tril(w, k=-1, format="csr")
        lower_w.sort_indices()
        floor = global_pivot_floor(w)
        interior_nnz = int(pat_indptr[border_start])
        wl_nnz = int(lower_w.indptr[border_start])
        span = factor_row_span(
            pat_indptr[: border_start + 1],
            pat_indices[:interior_nnz],
            lower_w.indptr[: border_start + 1],
            lower_w.indices[:wl_nnz],
            lower_w.data[:wl_nnz],
            w.diagonal()[:border_start],
            floor,
        )
        border_values, border_diag, perturbations = factor_border_rows(
            w, pat_indptr, pat_indices, border_start, span.diag, span.scaled, floor
        )
        lower = sp.csr_matrix(
            (np.concatenate([span.values, border_values]), pat_indices, pat_indptr),
            shape=w.shape,
        )
        reference = incomplete_ldl(w)
        assert np.array_equal(lower.toarray(), reference.lower.toarray())
        assert np.array_equal(
            np.concatenate([span.diag, border_diag]), reference.diag
        )
        assert span.perturbations + perturbations == reference.pivot_perturbations
