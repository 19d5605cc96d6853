"""Mutable serving over HTTP: write endpoints, concurrency, shutdown.

Three layers of coverage for ISSUE 5:

* endpoint semantics — ``POST /insert`` answers are visible before any
  rebuild (pending estimate), ``/delete`` excludes, ``/rebuild`` swaps
  epochs without taking the service down, read-only servers answer 403;
* a **stress harness**: one mutator thread (inserts / deletes /
  rebuilds) against concurrent query threads for a fixed duration — no
  crashes, no dropped requests, and every answer is consistent with a
  single epoch (no id deleted before a request started may appear; no
  id the server never assigned may appear);
* ``BackgroundServer`` shutdown is idempotent and exception-safe while
  a rebuild worker is mid-flight.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.index import MogulRanker
from repro.core.live import LiveEngine
from repro.service.client import RetrievalClient
from repro.service.server import BackgroundServer

pytestmark = pytest.mark.timeout(120)


def make_features(seed: int = 0, n_per: int = 40, dim: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=0.6, size=(n_per, dim))
    b = rng.normal(scale=0.6, size=(n_per, dim)) + 4.0
    return np.vstack([a, b])


@pytest.fixture()
def live_server():
    features = make_features()
    live = LiveEngine(features, auto_rebuild_fraction=None)
    with BackgroundServer(
        live, port=0, max_batch_size=8, cache_capacity=64
    ) as server:
        yield server, live
    live.close()


class TestWriteEndpoints:
    def test_insert_visible_before_rebuild(self, live_server):
        server, live = live_server
        with RetrievalClient(port=server.port) as client:
            epoch_before = client.healthz()["epoch"]
            feature = live.graph.features[0] + 0.001
            inserted = client.insert(feature)
            assert inserted["n_pending"] == 1
            # No rebuild ran — the near-duplicate surfaces through its
            # pending (generalized MR) estimate.
            assert client.healthz()["epoch"] == epoch_before
            answer = client.search(0, k=10)
            assert inserted["id"] in answer["indices"]

    def test_delete_excludes_immediately(self, live_server):
        server, live = live_server
        with RetrievalClient(port=server.port) as client:
            target = client.search(0, k=3)["indices"][0]
            client.delete(target)
            after = client.search(0, k=10)
            assert target not in after["indices"]

    def test_rebuild_swaps_epoch_and_matches_blocking(self, live_server):
        server, live = live_server
        features = live.graph.features.copy()
        with RetrievalClient(port=server.port) as client:
            inserted = client.insert(features[5] + 0.01)
            report = client.rebuild(wait=True)
            assert report["epoch"] == report["epoch_before"] + 1
            assert report["swap_seconds"] <= report["build_seconds"]
            assert client.healthz()["epoch"] == report["epoch"]
            served = client.search(5, k=10)
        # Reference: a blocking rebuild from the same logical state.
        reference = LiveEngine(features, auto_rebuild_fraction=None)
        reference.add(features[5] + 0.01)
        reference.rebuild()
        direct = reference.top_k(5, 10)
        assert served["indices"] == [int(i) for i in direct.indices]
        np.testing.assert_allclose(served["scores"], direct.scores, rtol=0, atol=0)
        assert inserted["id"] in served["indices"]

    def test_stats_expose_mutation_counts(self, live_server):
        server, live = live_server
        with RetrievalClient(port=server.port) as client:
            client.insert(live.graph.features[1] + 0.01)
            client.delete(0)
            stats = client.stats()
            assert stats["live"]["inserts"] == 1
            assert stats["live"]["deletes"] == 1
            assert stats["live"]["n_pending"] == 1
            assert stats["scheduler"]["mutations_dispatched"] == 2
            health = client.healthz()
            assert health["mutable"] is True

    def test_cache_invalidated_by_writes(self, live_server):
        server, live = live_server
        with RetrievalClient(port=server.port) as client:
            cold = client.search(7, k=4)
            warm = client.search(7, k=4)
            assert warm["cached"] and not cold["cached"]
            client.insert(live.graph.features[7] + 0.001)
            fresh = client.search(7, k=4)
            assert not fresh["cached"]

    def test_bad_writes_rejected(self, live_server):
        server, _ = live_server
        with RetrievalClient(port=server.port) as client:
            with pytest.raises(RuntimeError, match="400"):
                client._request("POST", "/insert", {"feature": "nope"})
            with pytest.raises(RuntimeError, match="400"):
                client._request("POST", "/delete", {"node": "nope"})
            with pytest.raises(RuntimeError, match="400"):
                client._request("POST", "/rebuild", {"wait": "nope"})
            with pytest.raises(RuntimeError, match="400"):
                client.delete(10_000)


class TestReadOnlyServer:
    def test_writes_forbidden_on_static_engine(self, bridged_graph):
        ranker = MogulRanker(bridged_graph)
        with BackgroundServer(ranker, port=0) as server:
            with RetrievalClient(port=server.port) as client:
                assert client.healthz()["mutable"] is False
                for call in (
                    lambda: client.insert(bridged_graph.features[0]),
                    lambda: client.delete(0),
                    lambda: client.rebuild(),
                ):
                    with pytest.raises(RuntimeError, match="403"):
                        call()
                # And the service keeps serving reads afterwards.
                assert client.search(0, k=3)["indices"]


class _MutationLog:
    """Timestamped mutation history shared between stress threads."""

    def __init__(self, initial_n: int):
        self.lock = threading.Lock()
        self.known_ids = set(range(initial_n))
        self.deleted_at: dict[int, float] = {}

    def record_insert(self, gid: int) -> None:
        with self.lock:
            self.known_ids.add(gid)

    def record_delete(self, gid: int) -> None:
        with self.lock:
            self.deleted_at[gid] = time.monotonic()

    def deletable(self) -> list[int]:
        with self.lock:
            return sorted(self.known_ids - set(self.deleted_at))


class TestConcurrentMutationStress:
    """Satellite: mutator vs. concurrent queries — consistent, no drops."""

    DURATION_SECONDS = 2.5
    QUERY_THREADS = 3

    def test_stress(self):
        features = make_features(seed=4, n_per=30)
        initial_n = features.shape[0]
        live = LiveEngine(features, auto_rebuild_fraction=0.15)
        log = _MutationLog(initial_n)
        # Stable ids the query threads may use (never deleted below).
        stable = list(range(10))
        errors: list[str] = []
        answers: list[tuple[float, list[int]]] = []
        answers_lock = threading.Lock()
        stop = threading.Event()

        server = BackgroundServer(
            live, port=0, max_batch_size=8, cache_capacity=32
        )

        def mutator():
            rng = np.random.default_rng(99)
            try:
                with RetrievalClient(port=server.port) as client:
                    step = 0
                    while not stop.is_set():
                        step += 1
                        roll = step % 7
                        if roll in (0, 1, 2, 3):
                            feature = rng.normal(scale=0.6, size=6) + (
                                4.0 if step % 2 else 0.0
                            )
                            reply = client.insert(feature)
                            log.record_insert(reply["id"])
                        elif roll in (4, 5):
                            victims = [
                                g for g in log.deletable() if g >= 10
                            ]
                            if victims:
                                victim = victims[int(rng.integers(len(victims)))]
                                client.delete(victim)
                                log.record_delete(victim)
                        else:
                            client.rebuild(wait=False)
                        time.sleep(0.002)
            except Exception as error:  # noqa: BLE001 - recorded for assert
                errors.append(f"mutator: {type(error).__name__}: {error}")

        def querier(worker: int):
            rng = np.random.default_rng(worker)
            try:
                with RetrievalClient(port=server.port) as client:
                    while not stop.is_set():
                        query = stable[int(rng.integers(len(stable)))]
                        started = time.monotonic()
                        payload = client.search(query, k=8)
                        if not payload["indices"]:
                            errors.append("empty answer")
                        with answers_lock:
                            answers.append((started, payload["indices"]))
            except Exception as error:  # noqa: BLE001
                errors.append(f"querier-{worker}: {type(error).__name__}: {error}")

        threads = [threading.Thread(target=mutator, daemon=True)] + [
            threading.Thread(target=querier, args=(i,), daemon=True)
            for i in range(self.QUERY_THREADS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(self.DURATION_SECONDS)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "stress thread failed to stop"
        counts = live.mutation_counts()
        server.stop()
        live.close()

        assert not errors, errors[:5]
        assert answers, "no queries completed"
        # Single-epoch consistency: an id deleted strictly before the
        # request started must never appear, and every id must have
        # been assigned by the server at some point.
        with log.lock:
            known = set(log.known_ids)
            deleted_at = dict(log.deleted_at)
        for started, indices in answers:
            for gid in indices:
                assert gid in known, f"answer carries unknown id {gid}"
                if gid in deleted_at:
                    assert deleted_at[gid] >= started - 1e-9, (
                        f"id {gid} deleted at {deleted_at[gid]:.6f} appeared "
                        f"in a request started at {started:.6f}"
                    )
        # The run actually exercised the machinery under test.
        assert counts["inserts"] > 0
        assert counts["deletes"] > 0
        assert counts["rebuilds"] >= 1


class TestShutdownRegression:
    """Satellite: BackgroundServer.stop idempotent + safe mid-rebuild."""

    def test_double_stop_is_noop(self, bridged_graph):
        ranker = MogulRanker(bridged_graph)
        server = BackgroundServer(ranker, port=0)
        server.stop()
        server.stop()  # regression: used to poke a finalised event loop
        server.stop()

    def test_stop_inside_context_then_again(self, bridged_graph):
        ranker = MogulRanker(bridged_graph)
        with BackgroundServer(ranker, port=0) as server:
            with RetrievalClient(port=server.port) as client:
                assert client.healthz()["status"] == "ok"
            server.stop()  # __exit__ stops again — must be a no-op

    def test_stop_with_rebuild_mid_flight(self, monkeypatch):
        features = make_features(seed=6, n_per=20)
        live = LiveEngine(features, auto_rebuild_fraction=None)
        gate = threading.Event()
        entered = threading.Event()
        real = live._build_epoch

        def gated(indexed_ids, number):
            entered.set()
            assert gate.wait(30)
            return real(indexed_ids, number)

        monkeypatch.setattr(live, "_build_epoch", gated)
        server = BackgroundServer(live, port=0)
        with RetrievalClient(port=server.port) as client:
            client.insert(features[0] + 0.01)
            client.rebuild(wait=False)
        assert entered.wait(30)
        # Stop (twice) while the rebuild worker is still stuck inside
        # the build: must return promptly and not raise.
        server.stop()
        server.stop()
        assert live.rebuild_in_flight
        gate.set()
        live.close()
        assert not live.rebuild_in_flight
        assert live.epoch == 1
