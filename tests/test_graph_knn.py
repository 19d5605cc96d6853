"""Tests for exact k-NN search: brute force, KD-tree, and their agreement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import KDTree, knn_search
from repro.graph.knn import pairwise_sq_distances


def brute_reference(points, queries, k, exclude_self):
    """O(n^2) reference implementation with explicit sorting."""
    out_idx = np.empty((queries.shape[0], k), dtype=np.int64)
    out_dist = np.empty((queries.shape[0], k))
    for i, q in enumerate(queries):
        d = np.linalg.norm(points - q, axis=1)
        if exclude_self:
            d[i] = np.inf
        order = np.argsort(d, kind="stable")[:k]
        out_idx[i] = order
        out_dist[i] = d[order]
    return out_idx, out_dist


class TestPairwiseDistances:
    def test_matches_norm(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        d2 = pairwise_sq_distances(a, b)
        expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(d2, expected, atol=1e-10)

    def test_non_negative_under_roundoff(self):
        point = np.array([[1e8, 1e8]])
        d2 = pairwise_sq_distances(point, point)
        assert d2[0, 0] >= 0.0


class TestKnnSearch:
    def test_self_query_excludes_self(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 4))
        idx, dist = knn_search(points, 3)
        for i in range(30):
            assert i not in idx[i]
        assert np.all(np.diff(dist, axis=1) >= 0)

    def test_matches_reference_self(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(40, 5))
        idx, dist = knn_search(points, 4, method="brute")
        ref_idx, ref_dist = brute_reference(points, points, 4, True)
        np.testing.assert_allclose(dist, ref_dist, atol=1e-9)
        # indices may differ only under exact distance ties
        np.testing.assert_array_equal(idx, ref_idx)

    def test_external_queries(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(25, 3))
        queries = rng.normal(size=(6, 3))
        idx, dist = knn_search(points, 5, queries=queries)
        ref_idx, ref_dist = brute_reference(points, queries, 5, False)
        np.testing.assert_allclose(dist, ref_dist, atol=1e-9)

    def test_k_too_large_raises(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError, match="exceeds"):
            knn_search(points, 3)  # self-excluded leaves only 2

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="queries"):
            knn_search(np.zeros((5, 3)), 2, queries=np.zeros((2, 4)))

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            knn_search(np.zeros((5, 3)), 2, method="annoy")

    def test_kdtree_method_agrees_with_brute(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(60, 3))
        bi, bd = knn_search(points, 4, method="brute")
        ki, kd = knn_search(points, 4, method="kdtree")
        np.testing.assert_allclose(bd, kd, atol=1e-9)
        np.testing.assert_array_equal(bi, ki)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blas_method_agrees_with_brute(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(200, 24))
        bi, bd = knn_search(points, 6, method="brute")
        fi, fd = knn_search(points, 6, method="blas")
        np.testing.assert_array_equal(bi, fi)
        np.testing.assert_allclose(bd, fd, rtol=1e-9, atol=1e-12)

    def test_blas_external_queries(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(120, 20))
        queries = rng.normal(size=(17, 20))
        bi, bd = knn_search(points, 3, queries=queries, method="brute")
        fi, fd = knn_search(points, 3, queries=queries, method="blas")
        np.testing.assert_array_equal(bi, fi)
        np.testing.assert_allclose(bd, fd, rtol=1e-9, atol=1e-12)

    def test_blas_chunked_and_parallel_identical(self, monkeypatch):
        """Chunk size and jobs are execution details, not result knobs."""
        import repro.graph.knn as knn_mod

        rng = np.random.default_rng(6)
        points = rng.normal(size=(90, 18))
        base_idx, base_dist = knn_search(points, 4, method="blas")
        monkeypatch.setattr(knn_mod, "_BLAS_CHUNK", 13)
        for jobs in (1, 3):
            idx, dist = knn_search(points, 4, method="blas", jobs=jobs)
            np.testing.assert_array_equal(base_idx, idx)
            np.testing.assert_array_equal(base_dist, dist)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_blas_partition_sub_blocks_bitwise(self, monkeypatch, rows):
        """The candidate argpartition's sub-block size is an execution
        detail: indices and distances stay byte for byte the same."""
        import repro.graph.knn as knn_mod

        rng = np.random.default_rng(14)
        points = rng.normal(size=(300, 24))
        queries = rng.normal(size=(45, 24))
        base = [knn_search(points, 5, method="blas")]
        base.append(knn_search(points, 5, queries=queries, method="blas"))
        monkeypatch.setattr(knn_mod, "_BLAS_PARTITION_ROWS", rows)
        got = [knn_search(points, 5, method="blas")]
        got.append(knn_search(points, 5, queries=queries, method="blas"))
        for (base_idx, base_dist), (idx, dist) in zip(base, got):
            assert idx.tobytes() == base_idx.tobytes()
            assert dist.tobytes() == base_dist.tobytes()

    def test_blas_build_transients_bounded(self):
        """Peak traced allocation of a blas self-query at n = 5000.

        The float32 panel is 1024 x 5000 x 4 B = 20 MB; one 128-row
        candidate partition adds 5 MB and the capped re-rank gather at
        most 8 MB.  A full-width (1024, n) int64 partition (41 MB more)
        breaks the bound.
        """
        import tracemalloc

        points = np.random.default_rng(15).normal(size=(5000, 32))
        tracemalloc.start()
        try:
            knn_search(points, 5, method="blas")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_blas_duplicate_points(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(40, 17))
        points = np.vstack([base, base[:10]])  # exact duplicates
        bi, bd = knn_search(points, 5, method="brute")
        fi, fd = knn_search(points, 5, method="blas")
        # Duplicates tie at distance zero, where the clamped expansion
        # leaves cancellation-level residue that sqrt amplifies to
        # ~sqrt(eps); the engines must agree up to that, and exactly on
        # the well-separated neighbours.
        np.testing.assert_allclose(bd, fd, rtol=1e-9, atol=1e-6)
        np.testing.assert_allclose(bd**2, fd**2, rtol=1e-9, atol=1e-12)

    def test_blas_uncentred_large_norms(self):
        # Large uncentred norms sink a naive float32 prefilter in
        # cancellation; centring + the certification fallback must keep
        # the selected neighbours identical to brute force.
        rng = np.random.default_rng(10)
        points = 300.0 + rng.normal(size=(3000, 32)) * 0.01
        bi, _ = knn_search(points, 5, method="brute")
        fi, _ = knn_search(points, 5, method="blas")
        np.testing.assert_array_equal(bi, fi)

    def test_blas_bimodal_tiny_gaps(self):
        # Far-apart clusters with tiny jitter defeat centring too; the
        # certification must route every ambiguous row through brute
        # force's own panels, making the results bitwise identical.
        rng = np.random.default_rng(11)
        a = -500.0 + rng.normal(size=(1500, 16)) * 1e-3
        b = 500.0 + rng.normal(size=(1500, 16)) * 1e-3
        points = np.vstack([a, b])
        bi, bd = knn_search(points, 5, method="brute")
        fi, fd = knn_search(points, 5, method="blas")
        np.testing.assert_array_equal(bi, fi)
        np.testing.assert_array_equal(bd, fd)

    def test_blas_boundary_ties_match_brute(self):
        # k-th and (k+1)-th neighbours tying within float64 noise while
        # the nearer ranks are well separated: the certification must
        # treat the top-k boundary as ambiguous and fall back to brute's
        # panels, keeping the selected indices bitwise identical.
        rng = np.random.default_rng(12)
        base = rng.normal(size=(800, 24))
        near_twins = base[:400] + rng.normal(size=(400, 24)) * 1e-12
        points = np.vstack([base, near_twins])
        bi, _ = knn_search(points, 3, method="brute")
        fi, _ = knn_search(points, 3, method="blas")
        np.testing.assert_array_equal(bi, fi)

    def test_blas_fallback_in_two_chunks_of_one_brute_panel(self, monkeypatch):
        # Shrink the blas chunk so two of them fit in one brute panel.
        # Uncertified rows in both must each be recomputed from that
        # whole brute panel, so the answers stay bitwise identical to
        # brute.
        import repro.graph.knn as knn_mod

        panel = knn_mod._CHUNK
        chunk = panel // 2
        monkeypatch.setattr(knn_mod, "_BLAS_CHUNK", chunk)
        rng = np.random.default_rng(13)
        points = rng.normal(size=(panel + 40, 20))
        # One point copied into the first two blas chunks and past the
        # panel: the copies tie near distance zero, which no row can
        # certify.
        twins = [chunk // 2, chunk + chunk // 2, panel + 10]
        points[twins] = points[twins[0]]
        bi, bd = knn_search(points, 4, method="brute")

        panel_starts = []
        brute_panel = knn_mod.pairwise_sq_distances

        def recording(block, database):
            offset = block.ctypes.data - database.ctypes.data
            panel_starts.append(offset // database.strides[0])
            return brute_panel(block, database)

        monkeypatch.setattr(knn_mod, "pairwise_sq_distances", recording)
        fi, fd = knn_search(points, 4, method="blas")
        # Chunks 0 and 1 each fell back through brute panel 0.
        assert panel_starts.count(0) == 2
        assert panel in panel_starts
        np.testing.assert_array_equal(bi, fi)
        # Recomputed rows are brute's own bitwise; certified rows agree
        # to the rounding of blas's float64 re-rank.
        np.testing.assert_array_equal(bd[twins], fd[twins])
        np.testing.assert_allclose(bd, fd, rtol=1e-12)

    def test_brute_jobs_identical(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(80, 12))
        base = knn_search(points, 4, method="brute")
        parallel = knn_search(points, 4, method="brute", jobs=4)
        np.testing.assert_array_equal(base[0], parallel[0])
        np.testing.assert_array_equal(base[1], parallel[1])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            knn_search(np.zeros((5, 3)), 2, jobs=0)

    def test_chunked_path(self, monkeypatch):
        """Force multiple brute-force chunks and check consistency."""
        import repro.graph.knn as knn_mod

        monkeypatch.setattr(knn_mod, "_CHUNK", 7)
        rng = np.random.default_rng(5)
        points = rng.normal(size=(30, 4))
        idx, dist = knn_search(points, 3, method="brute")
        ref_idx, ref_dist = brute_reference(points, points, 3, True)
        np.testing.assert_allclose(dist, ref_dist, atol=1e-9)


class TestKDTree:
    def test_duplicate_points(self):
        points = np.zeros((10, 3))
        tree = KDTree(points)
        idx, dist = tree.query(points[:2], 4, exclude_self=False)
        np.testing.assert_allclose(dist, 0.0)

    def test_leaf_size_one(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(20, 2))
        tree = KDTree(points, leaf_size=1)
        idx, dist = tree.query(points, 3, exclude_self=True)
        ref_idx, ref_dist = brute_reference(points, points, 3, True)
        np.testing.assert_allclose(dist, ref_dist, atol=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((0, 2)))

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((3, 2)), leaf_size=0)

    def test_query_dim_mismatch(self):
        tree = KDTree(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            tree.query(np.zeros((1, 2)), 1)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=50),
        dim=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_agrees_with_brute(self, n, dim, k, seed):
        if k >= n:
            k = n - 1
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, dim))
        tree = KDTree(points)
        ti, td = tree.query(points, k, exclude_self=True)
        bi, bd = brute_reference(points, points, k, True)
        np.testing.assert_allclose(td, bd, atol=1e-9)
