"""The LDL kernel against its oracle, and the bordered-block schedule.

The contracts under test (see repro.linalg.ldl and tests/oracles.py):

* the production kernel and the dict-of-rows oracle produce factors with
  the *identical* sparsity pattern and allclose values (they accumulate
  the same sums in different orders) for every variant — incomplete at
  any fill level, and complete;
* factoring with ``blocks=`` (the bordered-block layout) is **bitwise
  identical** to the plain run — the block schedule is an execution
  order, not an approximation;
* downstream top-k answers agree between an index built on the oracles
  and one built on the production kernels (indices exactly, scores to
  float tolerance).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.index import MogulRanker
from repro.core.permutation import build_permutation
from repro.linalg.ldl import complete_ldl, incomplete_ldl
from repro.ranking.normalize import ranking_matrix
from tests import oracles
from tests.conftest import random_symmetric_adjacency


def _ranking_w(n: int, seed: int, alpha: float = 0.95) -> sp.csr_matrix:
    return ranking_matrix(random_symmetric_adjacency(n, seed=seed), alpha)


def _assert_equivalent(reference, other, rtol=1e-9, atol=1e-13):
    assert np.array_equal(reference.lower.indptr, other.lower.indptr)
    assert np.array_equal(reference.lower.indices, other.lower.indices)
    np.testing.assert_allclose(
        reference.lower.data, other.lower.data, rtol=rtol, atol=atol
    )
    np.testing.assert_allclose(reference.diag, other.diag, rtol=rtol)
    assert reference.pivot_perturbations == other.pivot_perturbations


def _assert_bitwise(a, b):
    assert np.array_equal(a.lower.indptr, b.lower.indptr)
    assert np.array_equal(a.lower.indices, b.lower.indices)
    assert np.array_equal(a.lower.data, b.lower.data)
    assert np.array_equal(a.diag, b.diag)
    assert a.pivot_perturbations == b.pivot_perturbations


class TestBackendEquivalence:
    @pytest.mark.parametrize("n,seed", [(12, 0), (40, 1), (90, 2), (150, 3)])
    def test_incomplete_matches_reference(self, n, seed):
        w = _ranking_w(n, seed)
        _assert_equivalent(oracles.incomplete_ldl(w), incomplete_ldl(w))

    @pytest.mark.parametrize("fill_level", [1, 2, 4])
    def test_fill_levels_match_reference(self, fill_level):
        w = _ranking_w(60, 5)
        _assert_equivalent(
            oracles.incomplete_ldl(w, fill_level=fill_level),
            incomplete_ldl(w, fill_level=fill_level),
        )

    @pytest.mark.parametrize("n,seed", [(12, 0), (40, 1), (90, 2)])
    def test_complete_matches_reference(self, n, seed):
        w = _ranking_w(n, seed)
        _assert_equivalent(oracles.complete_ldl(w), complete_ldl(w))

    def test_complete_still_reconstructs(self):
        w = _ranking_w(50, 7)
        factors = complete_ldl(w)
        np.testing.assert_allclose(
            factors.reconstruct().toarray(), w.toarray(), atol=1e-10
        )


class TestBorderedBlocks:
    @pytest.fixture(scope="class")
    def permuted(self, bridged_graph):
        permutation = build_permutation(bridged_graph.adjacency)
        w = permutation.permute_matrix(
            ranking_matrix(bridged_graph.adjacency, 0.99)
        )
        return w, permutation

    def test_blocks_bitwise_incomplete(self, permuted):
        w, permutation = permuted
        plain = incomplete_ldl(w)
        blocked = incomplete_ldl(w, blocks=permutation.cluster_slices)
        _assert_bitwise(plain, blocked)

    def test_blocks_bitwise_complete(self, permuted):
        w, permutation = permuted
        plain = complete_ldl(w)
        blocked = complete_ldl(w, blocks=permutation.cluster_slices)
        _assert_bitwise(plain, blocked)

    def test_fill_level_with_blocks_matches_reference(self, permuted):
        w, permutation = permuted
        _assert_equivalent(
            oracles.incomplete_ldl(w, fill_level=2),
            incomplete_ldl(w, fill_level=2, blocks=permutation.cluster_slices),
        )

    def test_non_bordered_matrix_rejected(self):
        # A dense-ish random W is not block diagonal w.r.t. an arbitrary
        # split, and the numeric phase must refuse rather than mis-factor.
        w = _ranking_w(30, 11)
        blocks = [slice(0, 10), slice(10, 20), slice(20, 30)]
        with pytest.raises(ValueError, match="bordered block diagonal"):
            incomplete_ldl(w, blocks=blocks)

    def test_malformed_blocks_rejected(self, permuted):
        w, _ = permuted
        n = w.shape[0]
        with pytest.raises(ValueError, match="contiguous"):
            incomplete_ldl(w, blocks=[slice(0, 10), slice(12, n)])
        with pytest.raises(ValueError, match="blocks cover"):
            incomplete_ldl(w, blocks=[slice(0, n - 1)])


class TestDownstreamAnswers:
    """The oracles and the production kernels answer every query alike."""

    @pytest.fixture(scope="class")
    def rankers(self, bridged_graph):
        with oracles.reference_kernels():
            reference = MogulRanker(bridged_graph)
        csr = MogulRanker(bridged_graph)
        return reference, csr

    def test_top_k_matches_across_backends(self, rankers, bridged_graph):
        reference, csr = rankers
        for query in range(0, bridged_graph.n_nodes, 7):
            expected = reference.top_k(query, 10)
            actual = csr.top_k(query, 10)
            assert np.array_equal(expected.indices, actual.indices)
            np.testing.assert_allclose(
                expected.scores, actual.scores, rtol=1e-9
            )

    def test_exact_ranker_matches_across_backends(self, bridged_graph):
        with oracles.reference_kernels():
            reference = MogulRanker(bridged_graph, exact=True)
        csr = MogulRanker(bridged_graph, exact=True)
        for query in (0, 17, 80):
            expected = reference.top_k(query, 8)
            actual = csr.top_k(query, 8)
            assert np.array_equal(expected.indices, actual.indices)
            np.testing.assert_allclose(
                expected.scores, actual.scores, rtol=1e-9
            )
