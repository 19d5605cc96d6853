"""Admission control and deadlines (repro.service.admission + scheduler).

The contract under test: expired requests are answered 504 *without*
touching the engine (pre-enqueue or at batch assembly, attested by the
``admission.expired`` trace span and the dispatch counters), overload
sheds with 429 + ``Retry-After`` (shedding is the only overload
behaviour: nothing is degraded, even on an engine with a cheaper tier),
and a stopping scheduler fails queued requests with 503 instead of
hanging or surfacing a raw cancellation.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.index import MogulRanker
from repro.core.spectral import SpectralEngine, SpectralIndex
from repro.core.tiered import TieredEngine
from repro.obs.trace import Trace
from repro.service.admission import (
    ADMIT,
    SHED,
    AdmissionController,
    DeadlineExceededError,
    SchedulerStoppedError,
    ShedLoadError,
)
from repro.service.cache import ResultCache
from repro.service.client import RetrievalClient
from repro.service.faults import FaultInjector
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import BackgroundServer

#: Event-loop + worker-thread machinery: deadlocks must fail fast.
pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def ranker(bridged_graph):
    return MogulRanker(bridged_graph)


@pytest.fixture(scope="module")
def tiered(bridged_graph, ranker):
    spectral = SpectralEngine.from_index(
        bridged_graph, SpectralIndex.build(bridged_graph, rank=16)
    )
    return TieredEngine(ranker, spectral)


def run(coroutine):
    return asyncio.run(coroutine)


class _StubMetrics:
    """Just enough surface for the controller's delay estimate."""

    class _Hist:
        def __init__(self, count, mean_seconds):
            self.count = count
            self.mean_seconds = mean_seconds

    def __init__(self, dispatch_mean_s=0.1, dispatch_count=10, batch=2.0):
        self._dispatch = self._Hist(dispatch_count, dispatch_mean_s)
        self.mean_batch_size = batch

    def stage_histograms(self):
        return {"engine.dispatch": self._dispatch}


class TestAdmissionController:
    def test_disabled_always_admits(self):
        controller = AdmissionController(max_queue_depth=None)
        assert not controller.enabled
        for depth in (0, 10, 10**6):
            assert controller.decide(depth) == ADMIT
        assert controller.snapshot()["admitted_total"] == 3

    def test_shed_policy_sheds_at_threshold(self):
        controller = AdmissionController(max_queue_depth=4)
        assert controller.decide(3) == ADMIT
        assert controller.decide(4) == SHED
        assert controller.decide(400) == SHED
        # The legacy second positional argument is accepted and ignored.
        assert controller.decide(3, True) == ADMIT
        assert controller.decide(8, False) == SHED

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(TypeError):
            AdmissionController(max_queue_depth=4, policy="shed")
        with pytest.raises(TypeError):
            AdmissionController(max_queue_depth=4, hard_limit_factor=2.0)

    def test_queue_delay_signal_triggers_before_depth(self):
        # 6 queued / batch 2 = 3 dispatches x 100 ms = 300 ms estimate,
        # over the 200 ms budget although well below the depth threshold.
        controller = AdmissionController(
            max_queue_depth=1000,
            max_queue_delay_ms=200.0,
            metrics=_StubMetrics(dispatch_mean_s=0.1, batch=2.0),
        )
        assert not controller.overloaded(2)
        assert controller.overloaded(6)
        assert controller.decide(6) == SHED

    def test_delay_estimate_needs_observations(self):
        controller = AdmissionController(
            max_queue_depth=10, metrics=_StubMetrics(dispatch_count=0)
        )
        assert controller.estimated_queue_delay_seconds(5) is None
        controller_bare = AdmissionController(max_queue_depth=10)
        assert controller_bare.estimated_queue_delay_seconds(5) is None

    def test_retry_after_clamped_to_1_10_seconds(self):
        bare = AdmissionController(max_queue_depth=4)
        assert bare.retry_after_seconds(100) == 1.0
        slow = AdmissionController(
            max_queue_depth=4, metrics=_StubMetrics(dispatch_mean_s=5.0, batch=1.0)
        )
        assert slow.retry_after_seconds(100) == 10.0
        fast = AdmissionController(
            max_queue_depth=4,
            metrics=_StubMetrics(dispatch_mean_s=0.001, batch=8.0),
        )
        assert fast.retry_after_seconds(4) == 1.0

    def test_snapshot_counts_decisions(self):
        controller = AdmissionController(max_queue_depth=2)
        controller.decide(0)
        controller.decide(2)
        snapshot = controller.snapshot()
        assert snapshot["enabled"] is True
        assert "policy" not in snapshot
        assert "degraded_total" not in snapshot
        assert snapshot["admitted_total"] == 1
        assert snapshot["shed_total"] == 1


class TestSchedulerDeadlines:
    def test_already_expired_request_never_queued(self, ranker):
        metrics = ServiceMetrics()

        async def main():
            async with MicroBatchScheduler(ranker, metrics=metrics) as scheduler:
                with pytest.raises(DeadlineExceededError):
                    await scheduler.search(
                        1, 5, deadline_at=time.perf_counter() - 1.0
                    )
                return scheduler.queries_dispatched

        dispatched = run(main())
        assert dispatched == 0
        snapshot = metrics.snapshot()["admission"]
        assert snapshot["deadline_timeouts_total"] == 1
        assert snapshot["expired_in_queue_total"] == 0

    def test_expired_in_queue_504_without_dispatch(self, ranker):
        """A queue stall outlives the deadline: 504, span, no engine time."""
        metrics = ServiceMetrics()
        faults = FaultInjector.parse("scheduler.queue:stall:150")

        async def main():
            async with MicroBatchScheduler(
                ranker, metrics=metrics, faults=faults
            ) as scheduler:
                trace = Trace("search")
                with pytest.raises(DeadlineExceededError) as excinfo:
                    await scheduler.search(
                        2,
                        5,
                        trace=trace,
                        deadline_at=time.perf_counter() + 0.03,
                    )
                return scheduler.queries_dispatched, trace, excinfo.value

        dispatched, trace, error = run(main())
        assert dispatched == 0
        assert error.queued_ms is not None and error.queued_ms > 0
        names = {span.name for span in trace.root.walk()}
        assert "admission.expired" in names
        assert "engine.dispatch" not in names
        snapshot = metrics.snapshot()["admission"]
        assert snapshot["deadline_timeouts_total"] == 1
        assert snapshot["expired_in_queue_total"] == 1

    def test_live_members_survive_expired_batchmates(self, ranker):
        """Only the expired member of a batch is dropped; the rest solve."""
        faults = FaultInjector.parse("scheduler.queue:stall:80")

        async def main():
            async with MicroBatchScheduler(
                ranker, faults=faults
            ) as scheduler:
                doomed = scheduler.search(
                    1, 5, deadline_at=time.perf_counter() + 0.02
                )
                healthy = scheduler.search(2, 5)
                return await asyncio.gather(
                    doomed, healthy, return_exceptions=True
                )

        doomed, healthy = run(main())
        assert isinstance(doomed, DeadlineExceededError)
        assert healthy.result.indices is not None
        assert len(healthy.result) == 5


class TestSchedulerOverload:
    def test_shed_raises_with_retry_guidance(self, ranker):
        metrics = ServiceMetrics()
        admission = AdmissionController(max_queue_depth=1, metrics=metrics)
        faults = FaultInjector.parse("engine.solve:latency:50")

        async def main():
            async with MicroBatchScheduler(
                ranker,
                max_batch_size=1,
                metrics=metrics,
                admission=admission,
                faults=faults,
            ) as scheduler:
                return await asyncio.gather(
                    *(scheduler.search(node, 5) for node in range(8)),
                    return_exceptions=True,
                )

        outcomes = run(main())
        sheds = [o for o in outcomes if isinstance(o, ShedLoadError)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert sheds and served
        assert all(shed.retry_after_seconds >= 1.0 for shed in sheds)
        assert metrics.snapshot()["admission"]["sheds_total"] == len(sheds)
        assert admission.snapshot()["shed_total"] == len(sheds)

    def test_floor_tier_requests_shed_not_degraded(self, tiered):
        """Overload sheds even on an engine with a cheaper tier."""
        admission = AdmissionController(max_queue_depth=1)
        faults = FaultInjector.parse("engine.solve:latency:30")

        async def main():
            async with MicroBatchScheduler(
                tiered,
                max_batch_size=1,
                admission=admission,
                faults=faults,
            ) as scheduler:
                return await asyncio.gather(
                    *(scheduler.search(node, 5) for node in range(6)),
                    return_exceptions=True,
                )

        outcomes = run(main())
        assert any(isinstance(o, ShedLoadError) for o in outcomes)
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert served
        assert not any(hasattr(o, "degraded") for o in served)
        assert admission.snapshot()["shed_total"] == len(outcomes) - len(served)

    def test_cache_hits_served_during_overload(self, ranker):
        """Admission runs after the cache probe: hits are free, never shed."""
        admission = AdmissionController(max_queue_depth=1)
        faults = FaultInjector.parse("engine.solve:latency:50")

        async def main():
            cache = ResultCache(64)
            async with MicroBatchScheduler(
                ranker, cache=cache
            ) as warm:
                await warm.search(3, 5)
            async with MicroBatchScheduler(
                ranker,
                max_batch_size=1,
                cache=cache,
                admission=admission,
                faults=faults,
            ) as scheduler:
                # Saturate the queue with uncached work, then probe the
                # cached entry: it must be served despite the overload.
                background = [
                    asyncio.ensure_future(scheduler.search(node, 5))
                    for node in range(10, 16)
                ]
                await asyncio.sleep(0)
                hit = await scheduler.search(3, 5)
                results = await asyncio.gather(
                    *background, return_exceptions=True
                )
                return hit, results

        hit, _ = run(main())
        assert hit.cached


class TestSchedulerShutdown:
    def test_stop_fails_assembled_batch_with_503_error(self, ranker):
        """Requests in a half-assembled batch get SchedulerStoppedError."""
        faults = FaultInjector.parse("scheduler.queue:stall:5000")

        async def main():
            scheduler = MicroBatchScheduler(
                ranker, faults=faults
            )
            await scheduler.start()
            request = asyncio.ensure_future(scheduler.search(1, 5))
            await asyncio.sleep(0.05)  # batch assembled, stalling
            await scheduler.stop()
            with pytest.raises(SchedulerStoppedError):
                await request

        run(main())

    def test_stop_fails_queued_requests(self, ranker):
        faults = FaultInjector.parse("engine.solve:latency:200")

        async def main():
            scheduler = MicroBatchScheduler(
                ranker, max_batch_size=1, faults=faults
            )
            await scheduler.start()
            requests = [
                asyncio.ensure_future(scheduler.search(node, 5))
                for node in range(4)
            ]
            await asyncio.sleep(0.05)  # first dispatched, rest queued
            await scheduler.stop()
            return await asyncio.gather(*requests, return_exceptions=True)

        outcomes = run(main())
        assert any(isinstance(o, SchedulerStoppedError) for o in outcomes)
        # Nothing hangs and nothing surfaces as a raw CancelledError.
        assert not any(isinstance(o, asyncio.CancelledError) for o in outcomes)


class TestServerDeadlinesAndOverload:
    @pytest.fixture(scope="class")
    def background(self, ranker):
        with BackgroundServer(
            ranker, port=0, max_batch_size=16, cache_capacity=0
        ) as server:
            yield server

    @pytest.fixture()
    def client(self, background):
        with RetrievalClient(port=background.port) as connection:
            yield connection

    def test_tiny_deadline_504(self, client):
        with pytest.raises(RuntimeError, match="504"):
            client.search(1, k=5, deadline_ms=1e-6)
        assert client.counters["timeouts_seen"] == 1

    def test_deadline_zero_opts_out(self, client):
        payload = client.search(1, k=5, deadline_ms=0)
        assert payload["indices"]

    def test_query_param_beats_header(self, client, background):
        # Header says "expired", query param rescinds the deadline.
        status, _, _ = client._raw(
            "POST",
            "/search?deadline_ms=0",
            {"query": 1, "k": 5},
            extra_headers={"X-Repro-Deadline-Ms": "0.000001"},
        )
        assert status == 200

    def test_invalid_deadline_400(self, client):
        status, _, text = client._raw(
            "POST", "/search?deadline_ms=abc", {"query": 1, "k": 5}
        )
        assert status == 400
        assert "deadline_ms" in text
        for bad in ("-5", "inf", "nan"):
            status, _, _ = client._raw(
                "POST", f"/search?deadline_ms={bad}", {"query": 1, "k": 5}
            )
            assert status == 400

    def test_shed_is_429_with_retry_after(self, ranker):
        faults = FaultInjector.parse("engine.solve:latency:60")
        with BackgroundServer(
            ranker,
            port=0,
            max_batch_size=1,
            cache_capacity=0,
            max_queue_depth=1,
            faults=faults,
        ) as server:
            import concurrent.futures

            def one_search(worker):
                with RetrievalClient(port=server.port) as worker_client:
                    return worker_client._raw(
                        "POST", "/search", {"query": worker, "k": 5}
                    )

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                responses = list(pool.map(one_search, range(8)))
            sheds = [r for r in responses if r[0] == 429]
            assert sheds
            for _, headers, text in sheds:
                retry_after = {k.lower(): v for k, v in headers.items()}[
                    "retry-after"
                ]
                assert int(retry_after) >= 1
                assert "shed" in text
            with RetrievalClient(port=server.port) as probe:
                exposition = probe.prometheus_metrics()
            assert "repro_sheds_total" in exposition

    def test_stats_surface_admission_config(self, client):
        stats = client.stats()
        admission = stats["scheduler"]["admission"]
        assert admission["enabled"] is True
        assert "policy" not in admission
        assert admission["max_queue_depth"] == 1024
