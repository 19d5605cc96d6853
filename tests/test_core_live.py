"""LiveEngine: background rebuilds, atomic epoch swap, persistence.

The load-bearing property (ISSUE 5): a background rebuild is **bitwise
identical** to a blocking ``rebuild()`` taken from the same buffer
snapshot — on both the flat and the sharded base — and queries issued
while a rebuild is in flight never block on it (they drain against the
epoch they started on).
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

import repro.core.live as live_module
from repro.core.engine import Engine, engine_from_index
from repro.core.index import MogulRanker
from repro.core.live import LiveEngine
from repro.core.serialize import (
    live_state_path,
    load_any_index,
    load_live_state,
    save_live_state,
)
from repro.graph.build import build_knn_graph

pytestmark = pytest.mark.timeout(120)


def two_cluster_features(seed: int, n_per: int = 40, dim: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=0.6, size=(n_per, dim))
    b = rng.normal(scale=0.6, size=(n_per, dim)) + 4.0
    return np.vstack([a, b])


def apply_mutations(engine, seed: int, n_adds: int = 10) -> list[int]:
    """The same deterministic write sequence against any engine."""
    rng = np.random.default_rng(1000 + seed)
    added = []
    for i in range(n_adds):
        feature = rng.normal(scale=0.6, size=engine._dim) + (4.0 if i % 2 else 0.0)
        added.append(engine.add(feature))
    engine.remove(3)
    engine.remove(added[1])
    return added


def assert_bitwise_equal(a, b) -> None:
    assert np.array_equal(a.indices, b.indices), (a.indices, b.indices)
    assert np.array_equal(a.scores, b.scores)


class TestBackgroundEqualsBlocking:
    """Satellite: background rebuild == blocking rebuild, bitwise."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rebuild_bitwise_identical(self, n_shards, seed):
        features = two_cluster_features(seed)
        blocking = LiveEngine(
            features, auto_rebuild_fraction=None, n_shards=n_shards
        )
        live = LiveEngine(
            features, auto_rebuild_fraction=None, n_shards=n_shards
        )
        apply_mutations(blocking, seed)
        added = apply_mutations(live, seed)

        blocking.rebuild()
        ticket = live.rebuild_async()
        assert ticket.result(60) == 1
        assert live.epoch == 1
        assert live.n_pending == 0

        queries = [0, 17, 55, added[0], added[-1]]
        for query in queries:
            assert_bitwise_equal(blocking.top_k(query, 10), live.top_k(query, 10))
        for ra, rb in zip(
            blocking.top_k_batch(queries, 8), live.top_k_batch(queries, 8)
        ):
            assert_bitwise_equal(ra, rb)
        probe = features.mean(axis=0)
        assert_bitwise_equal(
            blocking.top_k_out_of_sample(probe, 7),
            live.top_k_out_of_sample(probe, 7),
        )

    def test_build_holding_the_lock_matches_background_under_load(self):
        """A stop-the-world build, on the caller's thread with the mutation
        lock held throughout, equals a background rebuild taken while a
        query thread keeps reading."""
        features = two_cluster_features(9)
        blocking = LiveEngine(features, auto_rebuild_fraction=None)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        apply_mutations(blocking, 9)
        added = apply_mutations(live, 9)

        with blocking._lock:
            ids = blocking._live_ids()
            epoch = blocking._build_epoch(ids, number=-1)
            blocking._install_epoch(epoch, ids, live_module.RebuildTicket())

        stop = threading.Event()
        reads = []

        def read_until_stopped():
            while not stop.is_set():
                reads.append(live.top_k(0, 5))

        reader = threading.Thread(target=read_until_stopped)
        reader.start()
        try:
            assert live.rebuild_async().result(60) == 1
        finally:
            stop.set()
            reader.join(60)
        assert reads

        for engine in (blocking, live):
            assert engine.epoch == 1
            assert engine.n_pending == 0
        for query in (0, 17, 55, added[0], added[-1]):
            assert_bitwise_equal(blocking.top_k(query, 10), live.top_k(query, 10))
        probe = features.mean(axis=0)
        assert_bitwise_equal(
            blocking.top_k_out_of_sample(probe, 7),
            live.top_k_out_of_sample(probe, 7),
        )

    def test_factors_bitwise_identical_flat(self):
        features = two_cluster_features(7)
        blocking = LiveEngine(features, auto_rebuild_fraction=None)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        apply_mutations(blocking, 7)
        apply_mutations(live, 7)
        blocking.rebuild()
        live.rebuild()  # the blocking wrapper over rebuild_async
        a = blocking.index.factors
        b = live.index.factors
        assert np.array_equal(a.lower.toarray(), b.lower.toarray())
        assert np.array_equal(a.diag, b.diag)


class TestNonBlockingQueries:
    def test_queries_drain_against_old_epoch_while_rebuilding(self, monkeypatch):
        features = two_cluster_features(11)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        before = live.top_k(0, 5)

        gate = threading.Event()
        entered = threading.Event()
        real = live._build_epoch

        def gated(indexed_ids, number, base=None):
            entered.set()
            assert gate.wait(30), "test gate never opened"
            return real(indexed_ids, number, base)

        monkeypatch.setattr(live, "_build_epoch", gated)
        new_id = live.add(features[0] + 0.01)
        ticket = live.rebuild_async()
        assert entered.wait(30)
        assert not ticket.done

        # Queries complete while the rebuild is (deterministically) stuck.
        during = live.top_k(0, 5)
        assert live.epoch == 0
        assert not ticket.done
        # The freshly inserted near-duplicate surfaces via its pending
        # estimate, before any rebuild completed.
        assert new_id in during.indices
        assert before.indices.shape[0] == during.indices.shape[0]

        gate.set()
        assert ticket.result(60) == 1
        after = live.top_k(0, 5)
        assert new_id in after.indices
        assert live.n_pending == 0

    def test_single_rebuild_in_flight(self, monkeypatch):
        features = two_cluster_features(5)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        gate = threading.Event()
        real = live._build_epoch

        def gated(indexed_ids, number, base=None):
            assert gate.wait(30)
            return real(indexed_ids, number, base)

        monkeypatch.setattr(live, "_build_epoch", gated)
        live.add(features[1] + 0.01)
        first = live.rebuild_async()
        second = live.rebuild_async()
        assert second is first
        gate.set()
        first.result(60)
        assert live.epoch == 1

    def test_auto_rebuild_runs_in_background(self):
        features = two_cluster_features(9, n_per=20)
        live = LiveEngine(features, auto_rebuild_fraction=0.1)
        rng = np.random.default_rng(2)
        for _ in range(6):
            live.add(rng.normal(scale=0.6, size=6))
        deadline = threading.Event()
        for _ in range(200):
            if live.rebuild_count >= 1 and not live.rebuild_in_flight:
                break
            deadline.wait(0.05)
        live.close()
        assert live.rebuild_count >= 1
        assert live.n_pending < 6

    def test_failed_rebuild_keeps_serving_old_epoch(self, monkeypatch):
        features = two_cluster_features(13)
        live = LiveEngine(features, auto_rebuild_fraction=None)

        def broken(indexed_ids, number, base=None):
            raise RuntimeError("synthetic build failure")

        monkeypatch.setattr(live, "_build_epoch", broken)
        ticket = live.rebuild_async()
        assert ticket.wait(30)
        with pytest.raises(RuntimeError, match="synthetic"):
            ticket.result()
        assert live.epoch == 0
        assert live.top_k(0, 5).indices.shape[0] == 5
        # Fire-and-forget callers (auto-rebuilds) never hold the ticket:
        # the failure must be observable through the counters.
        counts = live.mutation_counts()
        assert counts["failed_rebuilds"] == 1
        assert "synthetic" in counts["last_rebuild_error"]

    def test_closed_engine_refuses_rebuilds(self):
        features = two_cluster_features(15, n_per=10)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        live.close()
        live.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            live.rebuild_async()


class TestStallInstrumentation:
    def test_swap_and_stall_counters(self):
        features = two_cluster_features(17, n_per=15)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        live.top_k(0, 5)
        assert live.stall.samples >= 1
        live.add(features[0] + 0.02)
        ticket = live.rebuild_async()
        ticket.result(60)
        assert live.last_swap_seconds is not None
        assert ticket.swap_seconds <= ticket.build_seconds
        counts = live.mutation_counts()
        assert counts["last_swap_seconds"] == live.last_swap_seconds
        assert counts["rebuilds"] == 1


class TestAdoption:
    """engine_from_index(live=True) must wrap both artifact kinds."""

    @pytest.mark.parametrize("shards", [None, 2])
    def test_adopts_loaded_artifact(self, tmp_path, shards):
        features = two_cluster_features(21)
        graph = build_knn_graph(features, k=4)
        if shards is None:
            base = MogulRanker(graph)
            path = str(tmp_path / "flat.idx.npz")
        else:
            from repro.core.sharded import ShardedMogulRanker

            base = ShardedMogulRanker(graph, shards)
            path = str(tmp_path / "dir.shards")
        base.index.save(path)
        loaded = load_any_index(path)
        live = engine_from_index(
            graph, loaded, live=True, live_kwargs=dict(k=4)
        )
        assert isinstance(live, LiveEngine)
        assert isinstance(live, Engine)
        assert live.epoch == 0
        assert live.n_shards == (1 if shards is None else shards)
        for query in (0, 44, 79):
            assert_bitwise_equal(base.top_k(query, 8), live.top_k(query, 8))
        # Mutate + rebuild: the adopted engine rebuilds with its own kind.
        live.add(features[5] + 0.01)
        live.rebuild()
        assert live.epoch == 1
        assert live.n_indexed == features.shape[0] + 1
        live.close()

    def test_rebuild_replays_search_configuration(self, tmp_path):
        """An adopted engine's search switches survive the first rebuild."""
        features = two_cluster_features(33, n_per=20)
        graph = build_knn_graph(features, k=4)
        base = MogulRanker(graph)
        path = str(tmp_path / "cfg.idx.npz")
        base.index.save(path)
        live = engine_from_index(
            graph,
            load_any_index(path),
            live=True,
            live_kwargs=dict(k=4),
            use_pruning=False,
            cluster_order="bound_desc",
        )
        assert live.engine.use_pruning is False
        live.add(features[0] + 0.01)
        live.rebuild()
        assert live.epoch == 1
        assert live.engine.use_pruning is False
        assert live.engine.cluster_order == "bound_desc"
        live.close()


class TestLiveStatePersistence:
    def _adopted(self, tmp_path, features, name="live.idx.npz"):
        graph = build_knn_graph(features, k=4)
        base = MogulRanker(graph)
        path = str(tmp_path / name)
        base.index.save(path)
        loaded = load_any_index(path)
        return path, graph, engine_from_index(
            graph, loaded, live=True, live_kwargs=dict(k=4)
        )

    def test_round_trip_without_rebuild_is_bitwise(self, tmp_path):
        features = two_cluster_features(23)
        path, graph, live = self._adopted(tmp_path, features)
        added = apply_mutations(live, 23)
        sidecar = save_live_state(path, live.mutable_state())
        assert sidecar == live_state_path(path)

        _, _, restored = self._adopted(tmp_path, features)
        state = load_live_state(path)
        assert state is not None
        restored.restore_mutable_state(state)
        assert restored.n_total == live.n_total
        assert restored.n_pending == live.n_pending
        assert restored.epoch == live.epoch
        for query in (0, 50, added[0]):
            assert_bitwise_equal(live.top_k(query, 10), restored.top_k(query, 10))

    def test_round_trip_after_rebuild_replays_as_pending(self, tmp_path):
        features = two_cluster_features(25)
        path, graph, live = self._adopted(tmp_path, features)
        added = apply_mutations(live, 25)
        live.rebuild()
        save_live_state(path, live.mutable_state())

        _, _, restored = self._adopted(tmp_path, features)
        state = load_live_state(path)
        # The rebuilt-in points persist relative to the on-disk artifact:
        # they come back as pending (write-ahead semantics).
        live_added = [g for g in added if g != added[1]]
        assert sorted(int(g) for g in state.pending_ids) == live_added
        restored.restore_mutable_state(state)
        assert restored.n_live == live.n_live
        assert restored.epoch == live.epoch
        # After folding the buffer in, the restored engine serves the
        # exact same database as the original's rebuilt epoch.
        restored.rebuild()
        for query in (0, 50, added[0]):
            assert_bitwise_equal(live.top_k(query, 10), restored.top_k(query, 10))

    def test_missing_sidecar_returns_none(self, tmp_path):
        assert load_live_state(str(tmp_path / "absent.idx.npz")) is None

    def test_dimension_mismatch_rejected(self, tmp_path):
        features = two_cluster_features(27, n_per=12)
        path, graph, live = self._adopted(tmp_path, features)
        live.add(features[0] + 0.1)
        state = live.mutable_state()
        state.feature_dim = 9
        _, _, restored = self._adopted(tmp_path, features, name="other.idx.npz")
        with pytest.raises(ValueError, match="dimension"):
            restored.restore_mutable_state(state)

    def test_restore_requires_fresh_engine(self, tmp_path):
        features = two_cluster_features(29, n_per=12)
        path, graph, live = self._adopted(tmp_path, features)
        state = live.mutable_state()
        live.add(features[0] + 0.1)
        with pytest.raises(RuntimeError, match="freshly adopted"):
            live.restore_mutable_state(state)

    def test_corrupt_pending_shape_rejected(self, tmp_path):
        features = two_cluster_features(31, n_per=12)
        path, graph, live = self._adopted(tmp_path, features)
        live.add(features[0] + 0.1)
        save_live_state(path, live.mutable_state())
        import zipfile

        sidecar = live_state_path(path)
        with np.load(sidecar) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["pending_features"] = payload["pending_features"][:, :3]
        np.savez(sidecar, **payload)
        assert zipfile.is_zipfile(sidecar)
        with pytest.raises(ValueError, match="pending_features"):
            load_live_state(path)

    def test_sharded_sidecar_lives_inside_directory(self, tmp_path):
        target = str(tmp_path / "index.shards")
        import os

        os.makedirs(target)
        assert live_state_path(target) == os.path.join(target, "live_state.npz")


def wait_for_rebuilds(live, count: int) -> None:
    for _ in range(600):
        if live.rebuild_count >= count and not live.rebuild_in_flight:
            return
        threading.Event().wait(0.05)
    raise AssertionError(f"no rebuild #{count} within 30 s")


class TestDeletesCountTowardAutoRebuild:
    def test_deletes_alone_trigger_a_background_rebuild(self):
        features = two_cluster_features(41, n_per=20)  # 40 indexed points
        live = LiveEngine(features, auto_rebuild_fraction=0.1)
        # Due once pending + indexed deletes > 4: the fifth delete.
        for node in range(4):
            live.remove(node)
        assert live.rebuild_count == 0 and not live.rebuild_in_flight
        live.remove(4)
        wait_for_rebuilds(live, 1)
        live.close()
        assert live.n_indexed == 35
        assert live._snapshot().indexed_tombstones == 0

    def test_blocking_engine_rebuilds_on_deletes_too(self):
        features = two_cluster_features(43, n_per=20)
        engine = LiveEngine(features, auto_rebuild_fraction=0.1)
        engine.add(features[0] + 0.01)
        for node in range(3):
            engine.remove(node)
        assert engine.rebuild_count == 0  # 1 pending + 3 deletes = 4
        engine.remove(3)
        engine.close()  # join the background rebuild
        assert engine.rebuild_count == 1
        assert engine.n_indexed == 37 and engine.n_pending == 0


@pytest.fixture()
def knn_spy(monkeypatch):
    """Record the query shape of every k-NN search the live engine runs."""
    calls: list[tuple] = []
    real = live_module.knn_search

    def spy(points, k, queries=None, **kwargs):
        calls.append(np.shape(queries))
        return real(points, k, queries=queries, **kwargs)

    monkeypatch.setattr(live_module, "knn_search", spy)
    return calls


def add_pending(engine, seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [
        engine.add(rng.normal(scale=0.6, size=engine._dim) + 4.0 * (i % 2))
        for i in range(count)
    ]


class TestPendingNeighbourMemo:
    def test_reads_compute_each_pending_row_once(self, knn_spy):
        features = two_cluster_features(51)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        added = add_pending(live, 51, 6)
        assert knn_spy == []  # inserts never search
        probe = features.mean(axis=0)
        for _ in range(3):
            live.top_k(0, 5)
            live.top_k(added[2], 5)
            live.top_k_batch([1, added[0], 44], 5)
            live.top_k_out_of_sample(probe, 5)
            live.top_k_out_of_sample_batch(np.vstack([probe, probe + 1.0]), 5)
        assert knn_spy == [(1, live._dim)] * 6

    def test_swap_recomputes_the_memo(self, knn_spy, monkeypatch):
        features = two_cluster_features(53)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        add_pending(live, 53, 3)
        live.top_k(0, 5)
        assert len(knn_spy) == 3
        gate = threading.Event()
        real = live._build_epoch

        def gated(indexed_ids, number, base=None):
            assert gate.wait(30)
            return real(indexed_ids, number, base)

        monkeypatch.setattr(live, "_build_epoch", gated)
        ticket = live.rebuild_async()
        late = add_pending(live, 54, 2)  # still pending after the swap
        live.top_k(0, 5)
        assert len(knn_spy) == 5
        gate.set()
        ticket.result(60)
        assert live.n_pending == 2
        live.top_k(0, 5)
        live.top_k(late[0], 5)
        assert len(knn_spy) == 7  # only the two survivors, once, new epoch
        assert all(shape == (1, live._dim) for shape in knn_spy)

    def test_removing_a_pending_point_recomputes_no_other_row(self, knn_spy):
        features = two_cluster_features(55)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        added = add_pending(live, 55, 4)
        live.top_k(0, 5)
        memo = live._neighbour_memo[live._epoch]
        kept = {gid: memo[gid] for gid in added if gid != added[1]}
        live.remove(added[1])
        assert added[1] not in memo
        live.top_k(0, 5)
        live.top_k_batch([3, added[0]], 5)
        assert len(knn_spy) == 4
        for gid, row in kept.items():
            assert live._neighbour_memo[live._epoch][gid] is row


    def test_concurrent_reads_stack_each_row_once(self):
        # Eight readers fill one epoch's memo at once (more threads than
        # cores, a short switch interval): every answer must equal a
        # quiet engine's, and the stack must hold each row exactly once,
        # across the growths from 8 to 64 slots.
        import sys

        features = two_cluster_features(57, dim=24)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        quiet = LiveEngine(features, auto_rebuild_fraction=None)
        added = add_pending(live, 57, 40)
        add_pending(quiet, 57, 40)
        queries = (0, 41, added[3])
        expected = [quiet.top_k(q, 7) for q in queries]
        barrier = threading.Barrier(8)
        mismatches = []

        def reader() -> None:
            barrier.wait(30)
            for _ in range(3):
                for query, want in zip(queries, expected):
                    got = live.top_k(query, 7)
                    if not (
                        np.array_equal(got.indices, want.indices)
                        and np.array_equal(got.scores, want.scores)
                    ):
                        mismatches.append(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        memo = live._neighbour_memo[live._epoch]
        assert sorted(slot for slot, _, _ in memo.values()) == list(range(40))
        for slot, rows, weights in memo.values():
            assert np.array_equal(memo.rows[slot], rows)
            assert np.array_equal(memo.weights[slot], weights)


class TestOverfetchCountsOnlyIndexedTombstones:
    @staticmethod
    def spy_base(monkeypatch, live) -> list[int]:
        seen: list[int] = []
        ranker = live.engine
        for name in ("top_k", "top_k_batch", "top_k_out_of_sample"):
            real = getattr(ranker, name)

            def spy(query, k, *args, _real=real, **kwargs):
                seen.append(k)
                return _real(query, k, *args, **kwargs)

            monkeypatch.setattr(ranker, name, spy)
        return seen

    def test_overfetch_follows_the_served_epoch(self, monkeypatch):
        features = two_cluster_features(57)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        added = add_pending(live, 57, 3)
        for node in (5, 9, 60):
            live.remove(node)
        live.remove(added[0])  # pending: the base index can never return it
        seen = self.spy_base(monkeypatch, live)
        live.top_k(0, 7)
        live.top_k_batch([1, 2], 7)
        live.top_k(added[1], 7)  # pending query: the out-of-sample path
        assert seen == [7 + 1 + 3, 7 + 1 + 3, 7 + 1 + 3]
        live.rebuild()
        seen = self.spy_base(monkeypatch, live)
        live.top_k(0, 7)
        live.top_k_out_of_sample(features[0] + 0.01, 7)
        assert seen == [7 + 1, 7]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_snapshot_count_matches_intersection(self, seed):
        features = two_cluster_features(59 + seed, n_per=25)
        graph = build_knn_graph(features, k=4)
        base = MogulRanker(graph)
        live = LiveEngine.from_engine(base, k=4, auto_rebuild_fraction=None)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            action = rng.random()
            if action < 0.4:
                live.add(rng.normal(scale=0.6, size=live._dim))
            elif action < 0.8:
                alive = np.flatnonzero(live._live_mask())
                if alive.size > 10:
                    live.remove(int(rng.choice(alive)))
            elif action < 0.9:
                live.rebuild()
            else:
                state = live.mutable_state()
                live.close()
                live = LiveEngine.from_engine(base, k=4, auto_rebuild_fraction=None)
                live.restore_mutable_state(state)
            snap = live._snapshot()
            expected = len(snap.tombstones & set(snap.epoch.indexed_ids.tolist()))
            assert snap.indexed_tombstones == expected
        live.close()


class TestHistoryIndependence:
    @staticmethod
    def answers(engine, pending: list[int], probe: np.ndarray) -> list:
        out = [engine.top_k(q, 9) for q in (0, 33, 61, *pending)]
        out += engine.top_k_batch([2, pending[0], 70, pending[-1]], 9)
        out.append(engine.top_k_out_of_sample(probe, 9))
        return out

    def test_interleavings_reach_bitwise_equal_answers(self):
        # 24-dim features: the pending k-NN rows run through BLAS (no
        # KD-tree), where a batched search rounds by batch shape.
        features = two_cluster_features(61, dim=24)
        rng = np.random.default_rng(61)
        new = rng.normal(scale=0.6, size=(9, 24)) + 4.0 * (np.arange(9) % 2)[:, None]
        probe = features.mean(axis=0)
        straight = LiveEngine(features, auto_rebuild_fraction=None)
        woven = LiveEngine(features, auto_rebuild_fraction=None)
        ids = [straight.add(row) for row in new]
        woven_ids = []
        for i, row in enumerate(new):
            woven_ids.append(woven.add(row))
            if i % 3 == 0:
                woven.top_k(0, 5)
            elif i % 3 == 1:
                woven.top_k_batch([1, woven_ids[0]], 4)
            else:
                woven.top_k_out_of_sample(probe + i, 6)
        assert ids == woven_ids
        for a, b in zip(
            self.answers(straight, ids, probe), self.answers(woven, ids, probe)
        ):
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.scores.view(np.uint64), b.scores.view(np.uint64))

    @pytest.mark.parametrize("engine_cls", [LiveEngine])
    def test_memo_does_not_pin_a_retired_epoch(self, engine_cls):
        features = two_cluster_features(63)
        engine = engine_cls(features, auto_rebuild_fraction=None)
        add_pending(engine, 63, 4)
        engine.top_k(0, 5)
        retired = weakref.ref(engine._epoch)
        assert retired() in engine._neighbour_memo
        engine.rebuild()
        gc.collect()
        assert retired() is None
