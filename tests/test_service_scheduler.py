"""Tests for the micro-batching scheduler (repro.service.scheduler).

The scheduler is an execution layer, not an approximation layer: every
answer it serves must be bitwise identical to a direct ``top_k`` call,
under any coalescing policy, any arrival pattern and any mix of ``k``.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core.index import MogulRanker
from repro.service.admission import SchedulerStoppedError
from repro.service.cache import ResultCache
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import MicroBatchScheduler, ReadOnlyEngineError

#: Event-loop + worker-thread machinery: deadlocks must fail fast.
pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def ranker(bridged_graph):
    return MogulRanker(bridged_graph)


def run(coroutine):
    return asyncio.run(coroutine)


async def _gather_searches(scheduler, requests):
    return await asyncio.gather(
        *(scheduler.search(node, k) for node, k in requests)
    )


class GatedEngine:
    """The real engine behind a gate the test holds.

    Every solve records ``(kind, payloads)`` in :attr:`calls`, signals
    :attr:`entered`, then blocks on :attr:`gate` — so a test decides
    exactly how long a batch occupies the worker, with no sleeps and no
    wall clock.  Answers are the wrapped ranker's own.
    """

    def __init__(self, ranker, gate_open: bool = False):
        self._ranker = ranker
        self.gate = threading.Event()
        if gate_open:
            self.gate.set()
        self.entered = threading.Event()
        self.calls: list[tuple[str, list]] = []

    def __getattr__(self, name):
        return getattr(self._ranker, name)

    def _solve(self, kind, payloads, solve, *args, **kwargs):
        self.calls.append((kind, payloads))
        self.entered.set()
        assert self.gate.wait(30), "the test never opened the gate"
        return solve(*args, **kwargs)

    def top_k_with_stats(self, node, k, **kwargs):
        return self._solve(
            "node", [int(node)], self._ranker.top_k_with_stats, node, k, **kwargs
        )

    def top_k_batch_with_stats(self, nodes, k, **kwargs):
        return self._solve(
            "node",
            [int(node) for node in nodes],
            self._ranker.top_k_batch_with_stats,
            nodes,
            k,
            **kwargs,
        )

    def top_k_out_of_sample_with_stats(self, feature, k, **kwargs):
        return self._solve(
            "oos",
            [feature],
            self._ranker.top_k_out_of_sample_with_stats,
            feature,
            k,
            **kwargs,
        )

    def top_k_out_of_sample_batch_with_stats(self, features, k, **kwargs):
        return self._solve(
            "oos",
            list(features),
            self._ranker.top_k_out_of_sample_batch_with_stats,
            features,
            k,
            **kwargs,
        )

    async def wait_entered(self):
        """Block (off the loop) until a solve is parked at the gate."""
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.wait, 30)


async def _turns(count: int) -> None:
    for _ in range(count):
        await asyncio.sleep(0)


class TestCorrectness:
    def test_burst_identical_to_direct_top_k(self, ranker):
        """A concurrent burst coalesces, and every answer is exact."""
        requests = [(node, 5) for node in range(20)]

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=8
            ) as scheduler:
                return await _gather_searches(scheduler, requests)

        served = run(main())
        for (node, k), scheduled in zip(requests, served):
            direct = ranker.top_k(node, k)
            np.testing.assert_array_equal(scheduled.result.indices, direct.indices)
            np.testing.assert_allclose(
                scheduled.result.scores, direct.scores, rtol=0, atol=0
            )

    def test_mixed_k_coalesces_exactly(self, ranker):
        """Different k in one batch: solve for max k, truncate per query."""
        requests = [(1, 3), (2, 9), (3, 1), (4, 6), (5, 9), (6, 2)]

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=16
            ) as scheduler:
                served = await _gather_searches(scheduler, requests)
                return served

        served = run(main())
        # All six were submitted in one loop turn: one dispatch.
        assert {scheduled.batch_size for scheduled in served} == {6}
        for (node, k), scheduled in zip(requests, served):
            direct = ranker.top_k(node, k)
            assert len(scheduled.result) == len(direct)
            np.testing.assert_array_equal(scheduled.result.indices, direct.indices)
            np.testing.assert_allclose(
                scheduled.result.scores, direct.scores, rtol=0, atol=0
            )

    def test_out_of_sample_identical(self, ranker):
        features = [
            ranker.graph.features[i] + 0.01 * (i + 1) for i in range(6)
        ]

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=8
            ) as scheduler:
                return await asyncio.gather(
                    *(
                        scheduler.search_out_of_sample(feature, 4)
                        for feature in features
                    )
                )

        served = run(main())
        for feature, scheduled in zip(features, served):
            direct = ranker.top_k_out_of_sample(feature, 4)
            np.testing.assert_array_equal(scheduled.result.indices, direct.indices)
            np.testing.assert_allclose(
                scheduled.result.scores, direct.scores, rtol=0, atol=0
            )

    def test_sequential_requests_still_exact(self, ranker):
        """No concurrency: each request is a singleton batch."""

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=8
            ) as scheduler:
                out = []
                for node in (0, 7, 42):
                    out.append(await scheduler.search(node, 5))
                return out

        served = run(main())
        assert all(scheduled.batch_size == 1 for scheduled in served)
        for node, scheduled in zip((0, 7, 42), served):
            direct = ranker.top_k(node, 5)
            np.testing.assert_array_equal(scheduled.result.indices, direct.indices)


class TestCoalescingPolicy:
    def test_max_batch_size_respected(self, ranker):
        requests = [(node, 4) for node in range(30)]

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=8
            ) as scheduler:
                served = await _gather_searches(scheduler, requests)
                return served, scheduler.batches_dispatched

        served, batches = run(main())
        assert all(1 <= scheduled.batch_size <= 8 for scheduled in served)
        # 30 requests at cap 8 need at least ceil(30/8) = 4 dispatches.
        assert batches >= 4

    def test_lone_request_dispatches_without_a_timer(self, ranker):
        """Work-conserving: an idle lane never waits for company.

        The lone request is on a worker within a bounded number of loop
        turns — no second arrival, and no timer of any kind armed.
        """
        engine = GatedEngine(ranker)

        async def main():
            loop = asyncio.get_running_loop()

            def no_timers(*args, **kwargs):
                raise AssertionError("the dispatch path armed a timer")

            loop.call_later = loop.call_at = no_timers
            try:
                async with MicroBatchScheduler(
                    engine, max_batch_size=64
                ) as scheduler:
                    request = asyncio.ensure_future(scheduler.search(3, 5))
                    await _turns(3)
                    assert scheduler.queue_depth == 0
                    assert scheduler.in_flight == 1
                    await engine.wait_entered()
                    assert not request.done()
                    engine.gate.set()
                    return await request
            finally:
                del loop.call_later, loop.call_at  # asyncio.run's teardown

        scheduled = run(main())
        assert scheduled.batch_size == 1
        assert engine.calls == [("node", [3])]
        np.testing.assert_array_equal(
            scheduled.result.indices, ranker.top_k(3, 5).indices
        )

    def test_arrivals_during_a_solve_form_the_next_batches_fifo(self, ranker):
        """What queued while the worker was held is the next dispatch."""
        engine = GatedEngine(ranker)

        async def main():
            async with MicroBatchScheduler(engine, max_batch_size=4) as scheduler:
                first = asyncio.ensure_future(scheduler.search(0, 3))
                await engine.wait_entered()
                later = []
                for node in range(1, 7):  # one arrival per loop turn
                    later.append(asyncio.ensure_future(scheduler.search(node, 3)))
                    await _turns(1)
                assert scheduler.in_flight == 1
                assert scheduler.queue_depth == 6
                assert len(engine.calls) == 1
                engine.gate.set()
                return await asyncio.gather(first, *later)

        served = run(main())
        assert engine.calls == [
            ("node", [0]),
            ("node", [1, 2, 3, 4]),
            ("node", [5, 6]),
        ]
        assert [scheduled.batch_size for scheduled in served] == [1, 4, 4, 4, 4, 2, 2]

    @pytest.mark.parametrize("n_requests", [5, 8, 11])
    def test_one_turn_of_submits_is_one_dispatch(self, ranker, n_requests):
        engine = GatedEngine(ranker, gate_open=True)
        requests = [(node, 4) for node in range(n_requests)]

        async def main():
            async with MicroBatchScheduler(engine, max_batch_size=8) as scheduler:
                return await _gather_searches(scheduler, requests)

        run(main())
        nodes = list(range(n_requests))
        expected = [("node", nodes[:8])]
        if n_requests > 8:
            expected.append(("node", nodes[8:]))
        assert engine.calls == expected

    def test_node_and_oos_never_share_a_batch(self, ranker):
        engine = GatedEngine(ranker, gate_open=True)
        features = [ranker.graph.features[i] + 0.01 for i in range(2)]

        async def main():
            async with MicroBatchScheduler(engine, max_batch_size=8) as scheduler:
                return await asyncio.gather(
                    scheduler.search(1, 4),
                    scheduler.search_out_of_sample(features[0], 4),
                    scheduler.search(2, 4),
                    scheduler.search_out_of_sample(features[1], 4),
                )

        served = run(main())
        assert all(scheduled.batch_size == 2 for scheduled in served)
        calls = dict(engine.calls)
        assert len(engine.calls) == 2 and set(calls) == {"node", "oos"}
        assert calls["node"] == [1, 2]
        for sent, solved in zip(features, calls["oos"]):
            np.testing.assert_array_equal(sent, solved)

    def test_batch_size_one_disables_coalescing(self, ranker):
        requests = [(node, 4) for node in range(12)]

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=1
            ) as scheduler:
                return await _gather_searches(scheduler, requests)

        served = run(main())
        assert all(scheduled.batch_size == 1 for scheduled in served)

    def test_fairness_under_bursty_arrivals(self, ranker):
        """FIFO dispatch: an early request never waits on a later batch.

        Two bursts arrive back to back; every request of the first burst
        must be answered by a dispatch no later than any dispatch
        answering the second burst.
        """
        order: list[int] = []

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=4
            ) as scheduler:

                async def tracked(node, tag):
                    await scheduler.search(node, 3)
                    order.append(tag)

                first = [
                    asyncio.create_task(tracked(node, 0)) for node in range(8)
                ]
                await asyncio.sleep(0)  # first burst fully enqueued
                second = [
                    asyncio.create_task(tracked(node, 1))
                    for node in range(20, 28)
                ]
                await asyncio.gather(*first, *second)

        run(main())
        assert len(order) == 16
        # Completion tags must be non-decreasing burst-wise: once a
        # second-burst answer lands, no first-burst answer may follow.
        first_done = order.index(1) if 1 in order else len(order)
        assert all(tag == 1 for tag in order[first_done:])

    def test_stats_and_counters(self, ranker):
        metrics = ServiceMetrics()
        requests = [(node, 4) for node in range(10)]

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=8, metrics=metrics
            ) as scheduler:
                served = await _gather_searches(scheduler, requests)
                snapshot = scheduler.snapshot()
                return served, snapshot

        served, snapshot = run(main())
        assert snapshot["queries_dispatched"] == 10
        assert snapshot["batches_dispatched"] >= 2
        assert metrics.snapshot()["queries_batched"] == 10
        # Per-query pruning stats ride along with each answer.
        assert all(
            scheduled.stats is not None and scheduled.stats.clusters_total > 0
            for scheduled in served
        )


class TestValidationAndLifecycle:
    def test_invalid_node_rejected_before_enqueue(self, ranker):
        async def main():
            async with MicroBatchScheduler(ranker) as scheduler:
                with pytest.raises(ValueError, match="out of range"):
                    await scheduler.search(ranker.n_nodes + 5, 3)
                with pytest.raises(ValueError, match="k must be positive"):
                    await scheduler.search(0, 0)
                with pytest.raises(ValueError, match="shape"):
                    await scheduler.search_out_of_sample(np.zeros(3), 3)

        run(main())

    def test_not_running_raises(self, ranker):
        scheduler = MicroBatchScheduler(ranker)

        async def main():
            with pytest.raises(RuntimeError, match="not running"):
                await scheduler.search(0, 3)

        run(main())

    def test_bad_policy_rejected(self, ranker):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatchScheduler(ranker, max_batch_size=0)
        with pytest.raises(ValueError, match="query_workers"):
            MicroBatchScheduler(ranker, query_workers=0)

    def test_huge_k_is_capped_not_allocated(self, ranker):
        """A client k beyond the database size must not size an allocation."""

        async def main():
            async with MicroBatchScheduler(ranker) as scheduler:
                return await scheduler.search(0, 10**12)

        scheduled = run(main())
        direct = ranker.top_k(0, ranker.n_nodes)
        np.testing.assert_array_equal(scheduled.result.indices, direct.indices)

    def test_cache_integration(self, ranker):
        cache = ResultCache(capacity=32)

        async def main():
            async with MicroBatchScheduler(
                ranker, cache=cache
            ) as scheduler:
                cold = await scheduler.search(5, 4)
                warm = await scheduler.search(5, 4)
                return cold, warm

        cold, warm = run(main())
        assert not cold.cached and warm.cached
        np.testing.assert_array_equal(cold.result.indices, warm.result.indices)
        assert cache.hits == 1 and cache.misses == 1


class TestShutdown:
    def test_stop_answers_in_flight_and_fails_the_backlog(self, ranker):
        """One batch on the worker + a backlog + stop(): nothing hangs."""
        engine = GatedEngine(ranker)

        async def main():
            scheduler = MicroBatchScheduler(engine, max_batch_size=2)
            await scheduler.start()
            executor = scheduler._executor
            flying = [
                asyncio.ensure_future(scheduler.search(node, 5)) for node in (0, 1)
            ]
            await engine.wait_entered()
            backlog = [
                asyncio.ensure_future(scheduler.search(node, 5))
                for node in (2, 3, 4)
            ]
            await _turns(1)
            assert scheduler.in_flight == 2 and scheduler.queue_depth == 3
            stopping = asyncio.ensure_future(scheduler.stop())
            await _turns(2)
            # The backlog failed at once; the held batch is still out.
            assert all(request.done() for request in backlog)
            assert not stopping.done()
            assert not any(request.done() for request in flying)
            engine.gate.set()
            await stopping
            assert all(request.done() for request in flying + backlog)
            assert scheduler.in_flight == 0 and scheduler.queue_depth == 0
            with pytest.raises(RuntimeError, match="shutdown"):
                executor.submit(int)
            return await asyncio.gather(*flying, *backlog, return_exceptions=True)

        outcomes = run(main())
        assert engine.calls == [("node", [0, 1])]
        for node, scheduled in zip((0, 1), outcomes[:2]):
            np.testing.assert_array_equal(
                scheduled.result.indices, ranker.top_k(node, 5).indices
            )
        assert all(isinstance(o, SchedulerStoppedError) for o in outcomes[2:])

    def test_stop_fails_requests_of_an_unrun_launch(self, ranker):
        """Submitted this turn, launch scheduled but not yet run: 503."""
        engine = GatedEngine(ranker, gate_open=True)

        async def main():
            scheduler = MicroBatchScheduler(engine)
            await scheduler.start()
            requests = [
                asyncio.ensure_future(scheduler.search(node, 5)) for node in range(3)
            ]
            await _turns(1)  # enqueued; the launch runs next turn
            assert scheduler.queue_depth == 3 and scheduler.in_flight == 0
            await scheduler.stop()
            return await asyncio.gather(*requests, return_exceptions=True)

        outcomes = run(main())
        assert engine.calls == []
        assert all(isinstance(o, SchedulerStoppedError) for o in outcomes)


class TestMutationLanes:
    """Write entry points route through the engine worker (ISSUE 5)."""

    def _live(self, bridged_graph):
        from repro.core.live import LiveEngine

        return LiveEngine(
            bridged_graph.features.copy(), auto_rebuild_fraction=None
        )

    def test_insert_delete_rebuild_round_trip(self, bridged_graph):
        live = self._live(bridged_graph)
        feature = bridged_graph.features[2] + 0.01

        async def main():
            async with MicroBatchScheduler(live) as scheduler:
                new_id = await scheduler.insert(feature)
                served = await scheduler.search(2, 8)
                await scheduler.delete(new_id)
                ticket = await scheduler.trigger_rebuild(wait=True)
                after = await scheduler.search(2, 8)
                return new_id, served, ticket, after, scheduler.snapshot()

        new_id, served, ticket, after, snapshot = run(main())
        assert new_id == bridged_graph.n_nodes
        assert new_id in served.result.indices  # pending estimate, no rebuild
        assert ticket.done and ticket.error is None
        assert new_id not in after.result.indices
        assert live.epoch == 1
        assert snapshot["mutations_dispatched"] == 3
        live.close()

    def test_insert_validates_dimension(self, bridged_graph):
        live = self._live(bridged_graph)

        async def main():
            async with MicroBatchScheduler(live) as scheduler:
                await scheduler.insert(np.zeros(3))

        with pytest.raises(ValueError, match="shape"):
            run(main())
        live.close()

    def test_read_only_engine_refuses_writes(self, ranker):
        async def main():
            async with MicroBatchScheduler(ranker) as scheduler:
                await scheduler.insert(np.zeros(6))

        with pytest.raises(ReadOnlyEngineError, match="read-only"):
            run(main())

    def test_queries_keep_flowing_while_rebuild_waits(self, bridged_graph):
        """trigger_rebuild(wait=True) must not occupy the engine worker."""
        import threading

        live = self._live(bridged_graph)
        gate = threading.Event()
        entered = threading.Event()
        real = live._build_epoch

        def gated(indexed_ids, number):
            entered.set()
            assert gate.wait(30)
            return real(indexed_ids, number)

        live._build_epoch = gated

        async def main():
            async with MicroBatchScheduler(live) as scheduler:
                waiter = asyncio.create_task(scheduler.trigger_rebuild(wait=True))
                await asyncio.get_running_loop().run_in_executor(
                    None, entered.wait, 30
                )
                # The rebuild is deterministically stuck; queries still run.
                served = await scheduler.search(0, 5)
                assert not waiter.done()
                gate.set()
                ticket = await waiter
                return served, ticket

        served, ticket = run(main())
        assert served.result.indices.shape[0] == 5
        assert ticket.error is None and live.epoch == 1
        live.close()
