"""Property tests: parallel execution is bitwise identical to sequential.

Two independent parallelism dials exist and both are execution
strategies, never semantics:

* ``query_jobs`` — shard scans inside one sharded solve run on a thread
  pool; answers and stats are bitwise identical at any setting.
* ``query_workers`` — the scheduler solves dispatched batches on a pool
  of worker threads; every served answer is bitwise identical to the
  single-worker (and direct ``top_k``) answer, on every engine kind.

The LiveEngine case additionally exercises mutations with a rebuild in
flight: every answer served concurrently with the epoch swap must be
bitwise identical to one of the two valid linearizations (the
pre-rebuild engine or the post-rebuild engine) — never a torn mix.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.clustering.louvain import louvain
from repro.core.engine import engine_from_index
from repro.core.index import MogulIndex, MogulRanker
from repro.core.live import LiveEngine
from repro.core.sharded import ShardedMogulIndex, ShardedMogulRanker
from repro.core.spectral import SpectralEngine, SpectralIndex
from repro.core.tiered import TieredEngine
from repro.graph.build import build_knn_graph
from repro.service.scheduler import MicroBatchScheduler

pytestmark = pytest.mark.timeout(120)

WORKER_COUNTS = (1, 2, 4)
JOB_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(11)
    a = rng.normal(scale=0.6, size=(50, 8))
    b = rng.normal(scale=0.6, size=(50, 8)) + 4.0
    c = rng.normal(scale=0.6, size=(50, 8)) - 4.0
    return build_knn_graph(np.vstack([a, b, c]), k=5)


@pytest.fixture(scope="module")
def sharded_index(graph):
    return ShardedMogulIndex.build(graph, 3)


def _assert_bitwise(a, b):
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.scores, b.scores)


def _stat_key(stats):
    return (
        stats.clusters_pruned,
        stats.clusters_scored,
        stats.nodes_scored,
        stats.bound_evaluations,
    )


class TestQueryJobsIdentity:
    """Shard-parallel scatter-gather == serial, answers *and* stats."""

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_all_entry_points_identical(self, graph, sharded_index, jobs):
        serial = ShardedMogulRanker.from_index(graph, sharded_index, query_jobs=1)
        parallel = ShardedMogulRanker.from_index(
            graph, sharded_index, query_jobs=jobs
        )
        for query in range(0, graph.n_nodes, 13):
            _assert_bitwise(serial.top_k(query, 10), parallel.top_k(query, 10))
            assert _stat_key(serial.last_stats) == _stat_key(parallel.last_stats)
        batch = np.arange(0, graph.n_nodes, 7, dtype=np.int64)
        for a, b in zip(serial.top_k_batch(batch, 10), parallel.top_k_batch(batch, 10)):
            _assert_bitwise(a, b)
        for sa, sb in zip(
            serial.last_batch_stats.per_query, parallel.last_batch_stats.per_query
        ):
            assert _stat_key(sa) == _stat_key(sb)
        feature = graph.features[17] + 0.01
        _assert_bitwise(
            serial.top_k_out_of_sample(feature, 10),
            parallel.top_k_out_of_sample(feature, 10),
        )
        features = graph.features[[3, 80, 130]] + 0.02
        for a, b in zip(
            serial.top_k_out_of_sample_batch(features, 10),
            parallel.top_k_out_of_sample_batch(features, 10),
        ):
            _assert_bitwise(a, b)

    def test_factory_accepts_query_jobs_for_any_artifact(self, graph):
        """``query_jobs`` never requires knowing the artifact kind."""
        flat = engine_from_index(graph, MogulIndex.build(graph), query_jobs=4)
        assert isinstance(flat, MogulRanker)  # accepted, no-op
        labels = louvain(graph.adjacency)
        spectral = engine_from_index(
            graph,
            SpectralIndex.build(graph, rank=8, cluster_labels=labels),
            query_jobs=4,
        )
        assert isinstance(spectral, SpectralEngine)
        sharded = engine_from_index(
            graph, ShardedMogulIndex.build(graph, 2), query_jobs=4
        )
        assert sharded.query_jobs == 4


def _serve_burst(engine, query_workers, requests, mutate=None):
    """Answer ``requests`` through a scheduler with ``query_workers``.

    ``mutate``, when given, is awaited concurrently with the burst (the
    LiveEngine mid-rebuild case).
    """

    async def main():
        async with MicroBatchScheduler(
            engine,
            max_batch_size=4,
            query_workers=query_workers,
        ) as scheduler:
            tasks = [scheduler.search(node, k) for node, k in requests]
            if mutate is not None:
                tasks.append(mutate(scheduler))
            answered = await asyncio.gather(*tasks)
            if mutate is not None:
                answered = answered[:-1]
            return [scheduled.result for scheduled in answered]

    return asyncio.run(main())


def _engines(graph, sharded_index):
    labels = louvain(graph.adjacency)
    flat = MogulRanker.from_index(
        graph, MogulIndex.build(graph, cluster_labels=labels)
    )
    sharded = ShardedMogulRanker.from_index(graph, sharded_index, query_jobs=2)
    tiered = TieredEngine(
        flat,
        SpectralEngine.from_index(
            graph, SpectralIndex.build(graph, rank=8, cluster_labels=labels)
        ),
    )
    live = LiveEngine(
        np.asarray(graph.features, dtype=np.float64),
        auto_rebuild_fraction=None,
        n_shards=2,
    )
    return {"flat": flat, "sharded": sharded, "tiered": tiered, "live": live}


class TestQueryWorkersIdentity:
    """Served answers are identical at any worker-pool size."""

    @pytest.fixture(scope="class")
    def engines(self, graph, sharded_index):
        return _engines(graph, sharded_index)

    @pytest.mark.parametrize("kind", ["flat", "sharded", "tiered", "live"])
    def test_workers_identical_to_sequential(self, engines, kind):
        engine = engines[kind]
        requests = [(node, 10) for node in range(0, engine.n_nodes, 6)]
        baseline = _serve_burst(engine, 1, requests)
        direct = [engine.top_k(node, k) for node, k in requests]
        for served, expected in zip(baseline, direct):
            _assert_bitwise(served, expected)
        for workers in WORKER_COUNTS[1:]:
            for served, expected in zip(
                _serve_burst(engine, workers, requests), baseline
            ):
                _assert_bitwise(served, expected)


class TestWorkerGauges:
    """Satellite: the pool's gauges ride /metrics (both views) and /stats."""

    def test_gauges_exposed_end_to_end(self, graph):
        from repro.service.client import RetrievalClient
        from repro.service.server import BackgroundServer

        engine = MogulRanker.from_index(graph, MogulIndex.build(graph))
        with BackgroundServer(
            engine, port=0, query_workers=3
        ) as server:
            with RetrievalClient(port=server.port) as client:
                for node in range(8):
                    client.search(node, k=5)
                metrics = client.metrics()
                assert metrics["query_workers"] == 3
                assert 0 <= metrics["workers_busy"] <= 3
                assert metrics["engine_wait_seconds"] >= 0.0
                _, _, text = client._raw("GET", "/metrics?format=prometheus")
                assert "repro_query_workers 3" in text
                assert "repro_workers_busy" in text
                assert "repro_engine_wait_seconds_total" in text
                scheduler = client.stats()["scheduler"]
                assert scheduler["query_workers"] == 3
                assert "workers_busy" in scheduler
                assert scheduler["engine_wait_seconds"] >= 0.0
                # The engine.dispatch span now names its worker.
                payload = client.search(9, k=5, debug_trace=True)

        def find(tree, name):
            found = [tree] if tree["name"] == name else []
            for child in tree.get("children", ()):
                found.extend(find(child, name))
            return found

        dispatches = find(payload["trace"]["root"], "engine.dispatch")
        assert dispatches and "worker_id" in dispatches[0]["meta"]

    def test_scheduler_validates_query_workers(self, graph):
        engine = MogulRanker.from_index(graph, MogulIndex.build(graph))
        with pytest.raises(ValueError, match="query_workers"):
            MicroBatchScheduler(engine, query_workers=0)


class TestLiveMidRebuild:
    def test_concurrent_answers_match_a_valid_epoch(self, graph):
        """Answers racing an epoch swap come from exactly one epoch."""
        features = np.asarray(graph.features, dtype=np.float64)
        live = LiveEngine(features, auto_rebuild_fraction=None, n_shards=2)
        rng = np.random.default_rng(23)
        for i in range(8):
            live.add(rng.normal(scale=0.6, size=features.shape[1]))
        live.remove(3)
        queries = [0, 20, 51, 90, 140]
        before = {q: live.top_k(q, 10) for q in queries}

        async def mutate(scheduler):
            ticket = await scheduler.trigger_rebuild(wait=True)
            assert ticket.error is None

        requests = [(q, 10) for q in queries for _ in range(4)]
        served = _serve_burst(live, 4, requests, mutate=mutate)
        assert live.epoch == 1
        after = {q: live.top_k(q, 10) for q in queries}

        for (query, _k), result in zip(requests, served):
            matches_before = np.array_equal(
                result.indices, before[query].indices
            ) and np.array_equal(result.scores, before[query].scores)
            matches_after = np.array_equal(
                result.indices, after[query].indices
            ) and np.array_equal(result.scores, after[query].scores)
            assert matches_before or matches_after, query

        # And post-swap serving at 4 workers still equals direct calls.
        for result, (query, _k) in zip(
            _serve_burst(live, 4, requests), requests
        ):
            _assert_bitwise(result, after[query])
