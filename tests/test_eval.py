"""Tests for metrics, sparsity diagnostics and the experiment harness."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import MogulIndex
from repro.eval import (
    ExperimentTable,
    average_precision_at_k,
    block_structure_stats,
    p_at_k,
    rank_correlation,
    retrieval_precision,
    sample_queries,
    sparsity_raster,
    time_queries,
)


class TestPAtK:
    def test_full_overlap(self):
        assert p_at_k(np.array([1, 2, 3]), np.array([3, 2, 1])) == 1.0

    def test_no_overlap(self):
        assert p_at_k(np.array([1, 2]), np.array([3, 4])) == 0.0

    def test_partial(self):
        assert p_at_k(np.array([1, 2, 3, 4]), np.array([1, 2, 9, 8])) == 0.5

    def test_empty_retrieved(self):
        assert p_at_k(np.array([]), np.array([1])) == 0.0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            p_at_k(np.array([1, 1]), np.array([1, 2]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_property_bounds(self, seed):
        rng = np.random.default_rng(seed)
        retrieved = rng.choice(50, size=8, replace=False)
        reference = rng.choice(50, size=8, replace=False)
        value = p_at_k(retrieved, reference)
        assert 0.0 <= value <= 1.0
        assert value == p_at_k(retrieved, reference[::-1])  # order-free


class TestRetrievalPrecision:
    def test_all_match(self):
        labels = np.array([7, 7, 7, 3])
        assert retrieval_precision(np.array([0, 1, 2]), labels, 7) == 1.0

    def test_half_match(self):
        labels = np.array([7, 3, 7, 3])
        assert retrieval_precision(np.array([0, 1]), labels, 7) == 0.5

    def test_empty(self):
        assert retrieval_precision(np.array([]), np.array([1]), 1) == 0.0


class TestAveragePrecision:
    def test_prefix_hits_score_higher(self):
        labels = np.array([1, 1, 0, 0])
        early = average_precision_at_k(np.array([0, 1, 2, 3]), labels, 1)
        late = average_precision_at_k(np.array([2, 3, 0, 1]), labels, 1)
        assert early > late

    def test_no_relevant(self):
        assert average_precision_at_k(np.array([0]), np.array([0]), 9) == 0.0

    def test_perfect(self):
        labels = np.array([1, 1])
        assert average_precision_at_k(np.array([0, 1]), labels, 1) == 1.0


class TestRankCorrelation:
    def test_identical_is_one(self):
        scores = np.random.default_rng(0).random(30)
        assert rank_correlation(scores, scores) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        scores = np.arange(10.0)
        assert rank_correlation(scores, -scores) == pytest.approx(-1.0)

    def test_monotone_transform_invariant(self):
        scores = np.random.default_rng(1).random(25)
        assert rank_correlation(scores, np.exp(3 * scores)) == pytest.approx(1.0)

    def test_ties_handled(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([1.0, 1.0, 2.0, 3.0])
        assert rank_correlation(a, b) == pytest.approx(1.0)

    def test_constant_vector_is_zero(self):
        assert rank_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rank_correlation(np.ones(3), np.ones(4))


class TestSparsity:
    def test_raster_dimensions_and_marks(self):
        matrix = sp.identity(10, format="csr")
        raster = sparsity_raster(matrix, size=5)
        assert len(raster) == 5
        assert all(len(line) == 5 for line in raster)
        # identity -> diagonal cells marked
        for i in range(5):
            assert raster[i][i] == "#"

    def test_empty_matrix(self):
        raster = sparsity_raster(sp.csr_matrix((10, 10)), size=4)
        assert all(set(line) == {"."} for line in raster)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            sparsity_raster(sp.identity(3), size=0)

    def test_block_stats_lemma3_zero_off_block(self, bridged_graph):
        index = MogulIndex.build(bridged_graph)
        stats = block_structure_stats(index.factors.lower, index.permutation)
        assert stats["off_block"] == 0.0
        assert stats["nnz"] == index.factors.nnz
        total = stats["within_block"] + stats["border"] + stats["off_block"]
        assert total == pytest.approx(1.0)

    def test_block_stats_empty(self, bridged_graph):
        index = MogulIndex.build(bridged_graph)
        stats = block_structure_stats(
            sp.csr_matrix(index.factors.lower.shape), index.permutation
        )
        assert stats["nnz"] == 0.0


class TestHarness:
    def test_sample_queries_distinct_and_deterministic(self):
        a = sample_queries(100, 10, seed=3)
        b = sample_queries(100, 10, seed=3)
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == 10

    def test_sample_queries_too_many(self):
        with pytest.raises(ValueError):
            sample_queries(5, 6)

    def test_time_queries_counts_calls(self):
        calls = []
        mean = time_queries(lambda q: calls.append(q), [1, 2, 3], warmup=1)
        # warmup call on first query + 3 timed calls
        assert len(calls) == 4
        assert mean >= 0.0

    def test_time_queries_empty(self):
        with pytest.raises(ValueError):
            time_queries(lambda q: None, [])

    def test_table_rendering(self):
        table = ExperimentTable(title="T", columns=["a", "b"])
        table.add_row("x", 1.23456)
        table.add_row("long-name", 1e-9)
        table.add_note("a note")
        text = table.to_text()
        assert "T" in text and "a note" in text
        assert "1.2346" in text
        assert "1.000e-09" in text
        md = table.to_markdown()
        assert md.startswith("### T")
        assert "| a | b |" in md

    def test_table_row_length_check(self):
        table = ExperimentTable(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_table_zero_formatting(self):
        assert ExperimentTable._format_cell(0.0) == "0"
        assert ExperimentTable._format_cell(12) == "12"
        assert ExperimentTable._format_cell("s") == "s"
