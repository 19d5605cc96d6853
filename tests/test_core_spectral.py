"""Tests for the low-rank spectral tier.

Covers the numerics (:mod:`repro.linalg.spectral`), the engine wrapper
(:mod:`repro.core.spectral`) including the cheap nomination path, and
that :func:`repro.core.serialize.load_any_index` refuses a leftover
spectral ``.npz``.  The load-bearing property: at full rank
the spectral scores equal the exact dense solve, so the truncation is
the *only* source of approximation anywhere in the tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serialize import load_any_index
from repro.core.spectral import (
    SpectralEngine,
    nominate_from_scores,
)
from repro.linalg.spectral import (
    SpectralBasis,
    project_seeds,
    spectral_decompose,
    spectral_filter,
    spectral_scores,
)
from repro.ranking.normalize import symmetric_normalize

ALPHA = 0.9


@pytest.fixture(scope="module")
def engine(clustered_graph):
    return SpectralEngine(clustered_graph, rank=40, alpha=ALPHA)


@pytest.fixture(scope="module")
def full_rank_engine(clustered_graph):
    return SpectralEngine(
        clustered_graph, rank=clustered_graph.n_nodes, alpha=ALPHA
    )


def exact_scores(graph, alpha: float, query: int) -> np.ndarray:
    s = symmetric_normalize(graph.adjacency).toarray()
    w = np.eye(graph.n_nodes) - alpha * s
    q = np.zeros(graph.n_nodes)
    q[query] = 1.0
    return (1.0 - alpha) * np.linalg.solve(w, q)


class TestNumerics:
    def test_filter_values(self):
        h = spectral_filter(np.array([1.0, 0.0, -1.0]), 0.5)
        np.testing.assert_allclose(h, [2.0, 1.0, 2.0 / 3.0])

    def test_filter_clips_lanczos_roundoff(self):
        # 1 + eps must not flip the filter's sign.
        h = spectral_filter(np.array([1.0 + 1e-12]), 0.99)
        assert h[0] == pytest.approx(1.0 / (1.0 - 0.99))

    def test_filter_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                spectral_filter(np.array([0.5]), alpha)

    def test_decompose_reconstructs_at_full_rank(self, clustered_graph):
        s = symmetric_normalize(clustered_graph.adjacency)
        basis = spectral_decompose(s, clustered_graph.n_nodes)
        dense = (basis.vectors * basis.values) @ basis.vectors.T
        np.testing.assert_allclose(dense, s.toarray(), atol=1e-10)

    def test_decompose_deterministic(self, clustered_graph):
        s = symmetric_normalize(clustered_graph.adjacency)
        a = spectral_decompose(s, 16)
        b = spectral_decompose(s, 16)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a.values, b.values)

    def test_decompose_clips_rank_and_sorts_descending(self, clustered_graph):
        s = symmetric_normalize(clustered_graph.adjacency)
        basis = spectral_decompose(s, 10 * clustered_graph.n_nodes)
        assert basis.rank == clustered_graph.n_nodes
        assert np.all(np.diff(basis.values) <= 1e-12)

    def test_decompose_rejects_bad_inputs(self, clustered_graph):
        s = symmetric_normalize(clustered_graph.adjacency)
        with pytest.raises(ValueError, match="rank"):
            spectral_decompose(s, 0)
        import scipy.sparse as sp

        with pytest.raises(ValueError, match="square"):
            spectral_decompose(sp.csr_matrix(np.ones((3, 4))), 2)

    def test_full_rank_scores_match_dense_solve(self, clustered_graph):
        s = symmetric_normalize(clustered_graph.adjacency)
        basis = spectral_decompose(s, clustered_graph.n_nodes)
        for query in (0, 17, 119):
            projection = basis.vectors[query]
            approx = spectral_scores(basis, ALPHA, projection)
            np.testing.assert_allclose(
                approx, exact_scores(clustered_graph, ALPHA, query), atol=1e-10
            )

    def test_project_seeds_one_hot_is_basis_row(self, engine):
        basis = engine.index.basis
        projection = project_seeds(basis, np.array([5]), np.array([1.0]))
        np.testing.assert_array_equal(projection, basis.vectors[5])

    def test_project_seeds_weighted_sum(self, engine):
        basis = engine.index.basis
        projection = project_seeds(
            basis, np.array([2, 9]), np.array([0.25, 0.75])
        )
        expected = 0.25 * basis.vectors[2] + 0.75 * basis.vectors[9]
        np.testing.assert_allclose(projection, expected)

    def test_project_seeds_shape_mismatch(self, engine):
        with pytest.raises(ValueError, match="matching 1-D"):
            project_seeds(engine.index.basis, np.array([1, 2]), np.array([1.0]))

    def test_scores_shape_validation(self, engine):
        basis = engine.index.basis
        with pytest.raises(ValueError, match="projections"):
            spectral_scores(basis, ALPHA, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="rank"):
            spectral_scores(basis, ALPHA, np.zeros(basis.rank + 1))

    def test_basis_validates_shapes(self):
        with pytest.raises(ValueError, match="matrix"):
            SpectralBasis(vectors=np.zeros(4), values=np.zeros(4))
        with pytest.raises(ValueError, match="values"):
            SpectralBasis(vectors=np.zeros((4, 2)), values=np.zeros(3))


class TestNominateFromScores:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=200)
        nominated = nominate_from_scores(scores, 25)
        expected = np.argsort(scores)[::-1][:25]
        assert set(nominated.tolist()) == set(expected.tolist())
        # Best-first within the selection.
        assert np.all(np.diff(scores[nominated]) <= 0)

    def test_exclude_drops_id_and_caps_budget(self):
        scores = np.arange(10, dtype=float)
        nominated = nominate_from_scores(scores, 10, exclude=9)
        assert 9 not in nominated
        assert nominated.size == 9
        assert nominated[0] == 8

    def test_budget_clamped_to_n(self):
        nominated = nominate_from_scores(np.arange(5, dtype=float), 50)
        np.testing.assert_array_equal(nominated, [4, 3, 2, 1, 0])

    def test_empty_budget(self):
        nominated = nominate_from_scores(np.arange(5, dtype=float), 0)
        assert nominated.size == 0
        assert nominated.dtype == np.int64

    def test_does_not_mutate_input(self):
        scores = np.arange(6, dtype=float)
        nominate_from_scores(scores, 3, exclude=5)
        np.testing.assert_array_equal(scores, np.arange(6, dtype=float))


class TestSpectralEngine:
    def test_build_profile(self, engine):
        profile = engine.index.profile
        assert profile.factor_backend == "eigsh"
        assert engine.index.rank == 40
        assert profile.n_nodes == engine.n_nodes
        assert profile.n_clusters == engine.index.n_clusters > 0
        assert engine.index.factorization == "spectral"
        assert engine.index.factor_nnz == engine.n_nodes * 40

    def test_top_k_excludes_query_by_default(self, engine):
        result = engine.top_k(3, 5)
        assert 3 not in result.indices
        included = engine.top_k(3, 5, exclude_query=False)
        assert included.indices[0] == 3  # self-score dominates

    def test_top_k_matches_scores(self, engine):
        full = engine.scores(7)
        result = engine.top_k(7, 4, exclude_query=False)
        np.testing.assert_allclose(result.scores, np.sort(full)[::-1][:4])

    def test_batch_matches_single(self, engine):
        # Ranking identity; scores may differ in the last ulp (GEMM vs
        # GEMV accumulation order — see the class docstring).
        queries = [0, 11, 42, 87]
        for single, batched in zip(
            [engine.top_k(query, 6) for query in queries],
            engine.top_k_batch(queries, 6),
        ):
            np.testing.assert_array_equal(single.indices, batched.indices)
            np.testing.assert_allclose(
                single.scores, batched.scores, rtol=1e-12
            )

    def test_full_rank_matches_exact(self, full_rank_engine, clustered_graph):
        for query in (4, 63):
            approx = full_rank_engine.scores(query)
            np.testing.assert_allclose(
                approx, exact_scores(clustered_graph, ALPHA, query), atol=1e-10
            )

    def test_nominate_agrees_with_top_k(self, engine):
        nominated = engine.nominate(12, 15)
        ranked = engine.top_k(12, 15)
        assert set(nominated.tolist()) == set(ranked.indices.tolist())
        assert np.all(np.diff(engine.scores(12)[nominated]) <= 0)

    def test_nominate_batch_agrees_with_single(self, engine):
        queries = [3, 50, 99]
        batched = engine.nominate_batch(queries, 20)
        assert len(batched) == len(queries)
        for query, candidates in zip(queries, batched):
            single = engine.nominate(query, 20)
            assert set(candidates.tolist()) == set(single.tolist())
            assert query not in candidates

    def test_nominate_batch_without_exclusion(self, engine):
        (candidates,) = engine.nominate_batch([8], engine.n_nodes, False)
        assert candidates.size == engine.n_nodes
        assert candidates[0] == 8

    def test_out_of_sample_single_and_batch(self, engine, clustered_graph):
        features = clustered_graph.features[[10, 70]] + 0.05
        singles = [engine.top_k_out_of_sample(f, 5) for f in features]
        batched = engine.top_k_out_of_sample_batch(features, 5)
        for single, batch in zip(singles, batched):
            np.testing.assert_array_equal(single.indices, batch.indices)
            np.testing.assert_allclose(single.scores, batch.scores, rtol=1e-12)
        assert engine.last_breakdown["overall"] > 0

    def test_stats_surface(self, engine):
        engine.top_k(1, 3)
        stats = engine.last_stats
        assert stats.nodes_scored == engine.n_nodes
        assert stats.extra["tier"] == "spectral"
        assert stats.extra["rank"] == engine.rank

    def test_from_index_validates_compatibility(self, engine, bridged_graph):
        with pytest.raises(ValueError, match="nodes"):
            SpectralEngine.from_index(bridged_graph, engine.index)


class TestPersistence:
    """Spectral indexes have no artifact kind: every index file is Mogul."""

    def test_load_any_index_dispatch(self, engine, tmp_path):
        index = engine.index
        leftover = tmp_path / "tier.npz"
        np.savez(
            leftover,
            spectral_format_version=np.int64(1),
            vectors=index.basis.vectors,
            values=index.basis.values,
            alpha=np.float64(index.alpha),
            cluster_means=index.cluster_means,
        )
        with pytest.raises(ValueError, match="not a Mogul index file"):
            load_any_index(leftover)

    def test_rejects_non_archive(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        bogus.write_bytes(b"not a zip at all")
        with pytest.raises(ValueError, match="not a Mogul index file"):
            load_any_index(bogus)
