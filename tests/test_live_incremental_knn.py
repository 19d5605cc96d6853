"""Incremental k-NN for the live engine's rebuilds: bitwise the full build.

A rebuild derives its neighbour lists from the previous epoch's exact
state (:func:`repro.graph.knn.knn_update`) whenever it can certify every
row, and runs the full search otherwise.  Either way the graph must be
bitwise ``build_knn_graph(features[snapshot], k)``; these tests check
that across random histories, adversarial features, op orders and a
restore, with ``_BLAS_MIN_POINTS`` lowered so the blas engine (and so the
incremental path) engages at a few hundred points.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.knn as knn_mod
from repro.core.engine import engine_from_index
from repro.core.index import MogulRanker
from repro.core.live import LiveEngine
from repro.core.serialize import load_any_index, load_live_state, save_live_state
from repro.graph.build import build_knn_graph
from repro.graph.knn import rerank_sq_distances

pytestmark = pytest.mark.timeout(300)

K = 5
MIN_POINTS = 120


def lowered_blas_floor():
    return mock.patch.object(knn_mod, "_BLAS_MIN_POINTS", MIN_POINTS)


def clustered(seed: int, n: int, dim: int = 24) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=4.0, size=(6, dim))
    return centres[rng.integers(0, 6, n)] + rng.normal(size=(n, dim))


def assert_graph_is_full_build(engine: LiveEngine) -> None:
    ids = engine._epoch.indexed_ids
    features = np.asarray([engine._features[g] for g in ids])
    expected = build_knn_graph(features, k=engine.k)
    got = engine.graph
    for part in ("data", "indices", "indptr"):
        assert getattr(got.adjacency, part).tobytes() == getattr(
            expected.adjacency, part
        ).tobytes(), part
    assert got.sigma == expected.sigma


def knn_paths(engine: LiveEngine) -> tuple[int, int]:
    counts = engine.mutation_counts()
    assert (
        counts["knn_incremental_rebuilds"] + counts["knn_full_rebuilds"]
        == counts["rebuilds"]
    )
    return counts["knn_incremental_rebuilds"], counts["knn_full_rebuilds"]


class TestPerPairFormula:
    def test_rerank_value_is_independent_of_the_gather_shape(self):
        rng = np.random.default_rng(0)

        def rerank(rows, cands):
            return rerank_sq_distances(points[rows], sq[rows], points[cands], sq[cands])

        for dim in (17, 128):
            points = rng.normal(size=(600, dim)) * 7.0
            sq = np.einsum("ij,ij->i", points, points)
            rows = rng.integers(0, 600, 64)
            cands = rng.integers(0, 600, (64, 97))
            ref = rerank(rows, cands)
            for c in (1, 3, 7, 64):
                for p in (1, 2, 5, 21, 60, 97):
                    got = rerank(rows[:c], cands[:c, :p])
                    assert got.tobytes() == ref[:c, :p].tobytes(), (dim, c, p)
            # Rows sliced from the database equal the same rows gathered.
            view = rerank_sq_distances(points[5:69], sq[5:69], points[cands], sq[cands])
            assert view.tobytes() == rerank(np.arange(5, 69), cands).tobytes()

    @pytest.mark.parametrize("k", [5, 10])
    def test_batched_estimates_equal_each_rows_dot(self, k):
        # The live engine's pending estimates: one stacked matmul must be
        # bitwise the per-row np.dot it replaced.
        rng = np.random.default_rng(k)
        weights = rng.random((20_000, k))
        weights /= weights.sum(axis=1, keepdims=True)
        field = rng.normal(size=(20_000, k)) * rng.random((20_000, 1))
        batched = (weights[:, None, :] @ field[:, :, None])[:, 0, 0]
        each = np.array([float(np.dot(w, f)) for w, f in zip(weights, field)])
        assert batched.tobytes() == each.tobytes()


class TestExactness:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_shards=st.sampled_from([1, 2]),
        n0=st.integers(min_value=150, max_value=300),
        rounds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),  # inserts
                st.integers(min_value=0, max_value=12),  # deletes
            ),
            min_size=3,
            max_size=4,
        ),
    )
    def test_every_rebuild_is_the_full_build(self, seed, n_shards, n0, rounds):
        rng = np.random.default_rng(seed)
        features = clustered(seed, n0)
        with lowered_blas_floor():
            live = LiveEngine(features, auto_rebuild_fraction=None, n_shards=n_shards)
            for inserts, deletes in rounds:
                for _ in range(inserts):
                    row = live._features[int(rng.integers(live.n_total))]
                    live.add(row + rng.normal(scale=0.3, size=row.shape))
                alive = [g for g in range(live.n_total) if g not in live._tombstones]
                for gid in rng.choice(alive, size=min(deletes, len(alive) - K - 2),
                                      replace=False):
                    live.remove(int(gid))
                live.rebuild()
                assert_graph_is_full_build(live)
            incremental, _ = knn_paths(live)
            # The epoch-0 build is blas, so every rebuild can derive.
            assert incremental == len(rounds)
            live.close()

    def test_a_row_that_lost_its_list_is_recomputed(self):
        features = clustered(17, 260)
        with lowered_blas_floor():
            live = LiveEngine(features, auto_rebuild_fraction=None)
            for gid in live._epoch.knn_state.ids[0, :18]:
                live.remove(int(gid))
            live.rebuild()
            # Three entries cannot certify five neighbours: row 0 ran the
            # row algorithm again and holds a full list.
            assert np.isfinite(live._epoch.knn_state.d2[0]).all()
            assert knn_paths(live) == (1, 0)
            assert_graph_is_full_build(live)
            live.close()

    @pytest.mark.parametrize("case", ["duplicates", "tiny_gaps", "uncentred"])
    def test_adversarial_features_stay_exact(self, case):
        # The corpora of test_graph_knn.py's blas adversaries, at a size the
        # lowered floor sends through blas, growing by points of their kind.
        rng = np.random.default_rng(11)

        def draw(count: int) -> np.ndarray:
            if case == "duplicates":  # exact twins of existing points
                return rng.normal(size=(count, 20))
            if case == "tiny_gaps":  # far-apart clusters, tiny jitter
                sides = np.where(rng.random(count) < 0.5, -500.0, 500.0)
                return sides[:, None] + rng.normal(size=(count, 20)) * 1e-3
            return 300.0 + rng.normal(size=(count, 20)) * 0.01  # uncentred

        features = draw(200)
        if case == "duplicates":
            features[100:] = features[:100]
        with lowered_blas_floor():
            live = LiveEngine(features, auto_rebuild_fraction=None)
            for round_ in range(3):
                fresh = draw(6)
                if case == "duplicates":
                    fresh[:3] = features[7 * round_ : 7 * round_ + 3]
                for row in fresh:
                    live.add(row)
                live.remove(round_ + 3)
                live.rebuild()
                assert_graph_is_full_build(live)
            # Each corpus holds a row no update can certify, so every
            # rebuild runs the full search: twins tie at distance 0 and,
            # at norm 300, one row's top-k gap sits under the float64
            # noise of the expansion (the gap test); at norm 500 the
            # jitter sits under float32's resolution (the floor test).
            assert knn_paths(live) == (0, 3)


class TestHistoryAndRestore:
    def test_op_orders_reaching_one_snapshot_build_one_graph(self):
        features = clustered(3, 220)
        rng = np.random.default_rng(3)
        new = features[rng.integers(0, 220, 60)] + rng.normal(scale=0.3, size=(60, 24))
        doomed = [5, 17, 90, 140, 221, 250]
        with lowered_blas_floor():
            # Three rebuilds, deletes as they come.
            stepwise = LiveEngine(features, auto_rebuild_fraction=None)
            for chunk in np.array_split(new, 3):
                for row in chunk:
                    stepwise.add(row)
                for gid in [g for g in doomed if g < stepwise.n_total]:
                    if gid not in stepwise._tombstones:
                        stepwise.remove(gid)
                stepwise.rebuild()
            # One rebuild after all writes.
            at_once = LiveEngine(features, auto_rebuild_fraction=None)
            for row in new:
                at_once.add(row)
            for gid in doomed:
                at_once.remove(gid)
            at_once.rebuild()
            assert np.array_equal(stepwise._epoch.indexed_ids, at_once._epoch.indexed_ids)
            assert knn_paths(stepwise)[0] == 3 and knn_paths(at_once)[0] == 1
            a, b = stepwise.graph, at_once.graph
            for part in ("data", "indices", "indptr"):
                assert getattr(a.adjacency, part).tobytes() == getattr(
                    b.adjacency, part
                ).tobytes()
            assert a.sigma == b.sigma
            stepwise.close()
            at_once.close()

    def test_restored_engine_builds_the_same_graph(self, tmp_path):
        features = clustered(5, 200)
        rng = np.random.default_rng(5)
        with lowered_blas_floor():
            graph = build_knn_graph(features, k=K)
            path = str(tmp_path / "live.idx.npz")
            MogulRanker(graph).index.save(path)

            def adopted():
                return engine_from_index(
                    graph, load_any_index(path), live=True,
                    live_kwargs=dict(k=K, auto_rebuild_fraction=None),
                )  # fmt: skip

            live = adopted()
            for round_ in range(3):
                for _ in range(20):
                    row = features[int(rng.integers(200))]
                    live.add(row + rng.normal(scale=0.3, size=24))
                live.remove(10 + round_)
                live.rebuild()
            # Adopted from an artifact: the first rebuild has no state.
            assert knn_paths(live) == (2, 1)
            save_live_state(path, live.mutable_state())

            restored = adopted()
            restored.restore_mutable_state(load_live_state(path))
            restored.rebuild()
            a, b = live.graph, restored.graph
            for part in ("data", "indices", "indptr"):
                assert getattr(a.adjacency, part).tobytes() == getattr(
                    b.adjacency, part
                ).tobytes()
            assert a.sigma == b.sigma
            live.close()
            restored.close()


class TestIncrementalSkipsTheFullPass:
    def test_incremental_rebuild_never_runs_the_all_rows_prefilter(self):
        features = clustered(9, 250)
        rng = np.random.default_rng(9)
        real = knn_mod._blas_prefilter
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        with lowered_blas_floor(), mock.patch.object(
            knn_mod, "_blas_prefilter", counting
        ):
            live = LiveEngine(features, auto_rebuild_fraction=None)
            assert calls == [250]  # epoch 0: the full pass
            for _ in range(30):
                live.add(features[int(rng.integers(250))] + rng.normal(scale=0.3, size=24))
            live.remove(4)
            live.rebuild()
            assert calls == [250]
            assert knn_paths(live) == (1, 0)
            assert_graph_is_full_build(live)
            live.close()

    def test_small_snapshots_take_the_full_path(self):
        # Under the blas floor ``auto`` runs brute force: there is no state.
        features = clustered(13, 90)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        live.add(features[0] + 0.1)
        live.rebuild()
        assert live._epoch.knn_state is None
        assert knn_paths(live) == (0, 1)
        live.close()
