"""Regression: ambient engine stats must not tear across threads.

Engines publish the counters of the most recent call through ambient
attributes (``last_stats``, ``last_batch_stats``, ``last_shard_stats``).
Those used to be plain instance attributes — two concurrent solves on
one engine could each read back the *other* call's counters (or a torn
mix).  They are per-thread now (:class:`repro.ranking.base.
AmbientStatsMixin`); these tests hammer one engine from two threads and
assert every reader observes exactly its own call's stats.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.index import MogulIndex, MogulRanker
from repro.core.sharded import ShardedMogulIndex, ShardedMogulRanker
from repro.graph.build import build_knn_graph

pytestmark = pytest.mark.timeout(120)

ITERATIONS = 150


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(7)
    a = rng.normal(scale=0.6, size=(60, 8))
    b = rng.normal(scale=0.6, size=(60, 8)) + 4.0
    c = rng.normal(scale=0.6, size=(60, 8)) - 4.0
    return build_knn_graph(np.vstack([a, b, c]), k=5)


def _stat_key(stats):
    return (
        stats.clusters_pruned,
        stats.clusters_scored,
        stats.nodes_scored,
        stats.bound_evaluations,
    )


def _distinct_queries(ranker, k: int = 10) -> tuple[int, int]:
    """Two queries whose pruning counters differ (so mixing is visible)."""
    baseline = None
    first = None
    for query in range(ranker.n_nodes):
        ranker.top_k(query, k)
        key = _stat_key(ranker.last_stats)
        if baseline is None:
            baseline, first = key, query
        elif key != baseline:
            return first, query
    pytest.skip("no query pair with distinct stats on this graph")


def _hammer(ranker, calls, n_threads: int = 2):
    """Run ``calls[i]()`` in its own thread, collecting assertion failures."""
    barrier = threading.Barrier(len(calls))
    failures: list[BaseException] = []

    def runner(call):
        barrier.wait()
        try:
            for _ in range(ITERATIONS):
                call()
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    threads = [threading.Thread(target=runner, args=(c,)) for c in calls]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


class TestSingleQueryStats:
    @pytest.mark.parametrize("engine_kind", ["flat", "sharded"])
    def test_two_threads_never_mix_last_stats(self, graph, engine_kind):
        if engine_kind == "flat":
            ranker = MogulRanker.from_index(graph, MogulIndex.build(graph))
        else:
            ranker = ShardedMogulRanker.from_index(
                graph, ShardedMogulIndex.build(graph, 3)
            )
        qa, qb = _distinct_queries(ranker)
        ranker.top_k(qa, 10)
        expected_a = _stat_key(ranker.last_stats)
        ranker.top_k(qb, 10)
        expected_b = _stat_key(ranker.last_stats)
        assert expected_a != expected_b

        def call_for(query, expected):
            def call():
                result, stats = ranker.top_k_with_stats(query, 10)
                assert _stat_key(stats) == expected
                # The ambient read on this thread sees this thread's call.
                assert _stat_key(ranker.last_stats) == expected

            return call

        _hammer(ranker, [call_for(qa, expected_a), call_for(qb, expected_b)])


class TestBatchAndShardStats:
    def test_two_threads_never_mix_batch_or_shard_stats(self, graph):
        ranker = ShardedMogulRanker.from_index(
            graph, ShardedMogulIndex.build(graph, 3)
        )
        batch_a = np.arange(0, 40, dtype=np.int64)
        batch_b = np.arange(100, 110, dtype=np.int64)

        def expectations(batch):
            ranker.top_k_batch(batch, 10)
            per_query = tuple(
                _stat_key(s) for s in ranker.last_batch_stats.per_query
            )
            shard = tuple(_stat_key(s) for s in ranker.last_shard_stats)
            return per_query, shard

        expected_a = expectations(batch_a)
        expected_b = expectations(batch_b)
        assert expected_a != expected_b  # different sizes at minimum

        def call_for(batch, expected):
            per_query_expected, shard_expected = expected

            def call():
                results, batch_stats = ranker.top_k_batch_with_stats(batch, 10)
                assert len(results) == len(batch)
                observed = tuple(
                    _stat_key(s) for s in batch_stats.per_query
                )
                assert observed == per_query_expected
                # Ambient reads on this thread: both the batch stats and
                # the per-shard aggregates belong to this thread's call.
                assert (
                    tuple(
                        _stat_key(s)
                        for s in ranker.last_batch_stats.per_query
                    )
                    == per_query_expected
                )
                assert (
                    tuple(_stat_key(s) for s in ranker.last_shard_stats)
                    == shard_expected
                )

            return call

        _hammer(
            ranker, [call_for(batch_a, expected_a), call_for(batch_b, expected_b)]
        )

    def test_concurrent_answers_bitwise_identical(self, graph):
        """Not just the stats: concurrent answers equal sequential ones."""
        ranker = ShardedMogulRanker.from_index(
            graph, ShardedMogulIndex.build(graph, 3)
        )
        queries = [0, 45, 90, 135]
        baselines = {q: ranker.top_k(q, 10) for q in queries}

        def call_for(query):
            expected = baselines[query]

            def call():
                result = ranker.top_k(query, 10)
                np.testing.assert_array_equal(result.indices, expected.indices)
                np.testing.assert_array_equal(result.scores, expected.scores)

            return call

        _hammer(ranker, [call_for(q) for q in queries])
