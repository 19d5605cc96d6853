"""The chaos harness (repro.service.faults) and its serving-stack wiring.

A disarmed injector must be a no-op; an armed one must fail the stack
through the *same* paths as real faults (InjectedFault is a plain
RuntimeError → 500, queue stalls back pressure into admission control),
with reproducible draws and visible counters.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.index import MogulRanker
from repro.service.client import RequestFailedError, RetrievalClient
from repro.service.faults import (
    FAULTS_ENV_VAR,
    FaultInjector,
    FaultRule,
    InjectedFault,
    parse_fault_spec,
)
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import BackgroundServer

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def ranker(bridged_graph):
    return MogulRanker(bridged_graph)


def run(coroutine):
    return asyncio.run(coroutine)


class TestSpecParsing:
    def test_minimal_spec_defaults(self):
        (rule,) = parse_fault_spec("engine.solve:error")
        assert rule == FaultRule(
            site="engine.solve", kind="error", value_ms=0.0, probability=1.0
        )

    def test_full_spec_and_comma_list(self):
        rules = parse_fault_spec(
            "engine.solve:latency:25:0.5, server.response:error:0:0.1,"
        )
        assert len(rules) == 2
        assert rules[0].value_ms == 25.0 and rules[0].probability == 0.5
        assert rules[1].site == "server.response"

    @pytest.mark.parametrize(
        "spec",
        [
            "engine.solve",  # missing kind
            "a:b:c:d:e",  # too many fields
            "engine.solve:latency:abc",  # non-numeric value
            "engine.solve:latency:10:oops",  # non-numeric probability
            "engine.solve:explode",  # unknown kind
            "engine.solve:stall",  # kind not honored at site
            "scheduler.queue:error",  # kind not honored at site
            "engine.solve:latency:-5",  # negative duration
            "engine.solve:error:0:1.5",  # probability out of range
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_unknown_site_allowed_but_inert(self):
        # Forward compatibility: an unknown site parses (FAULT_SITES only
        # constrains known ones) and simply never fires.
        injector = FaultInjector.parse("future.site:error")
        assert injector.armed
        injector.maybe("engine.solve")  # no rules here: no-op


class TestInjector:
    def test_disarmed_is_inert(self):
        injector = FaultInjector()
        assert not injector.armed
        injector.maybe("engine.solve")
        assert injector.stall_seconds("scheduler.queue") == 0.0
        assert injector.counters() == {}

    def test_error_rule_raises_and_counts(self):
        injector = FaultInjector.parse("engine.solve:error")
        fired = []
        injector.on_inject = lambda: fired.append(1)
        with pytest.raises(InjectedFault) as excinfo:
            injector.maybe("engine.solve")
        assert excinfo.value.site == "engine.solve"
        assert injector.counters() == {"engine.solve:error": 1}
        assert fired == [1]

    def test_latency_rule_sleeps(self):
        injector = FaultInjector.parse("engine.solve:latency:40")
        started = time.perf_counter()
        injector.maybe("engine.solve")
        assert time.perf_counter() - started >= 0.035

    def test_stall_rule_returns_duration_without_blocking(self):
        injector = FaultInjector.parse("scheduler.queue:stall:75")
        started = time.perf_counter()
        stall = injector.stall_seconds("scheduler.queue")
        assert time.perf_counter() - started < 0.05  # asked, not slept
        assert stall == pytest.approx(0.075)

    def test_zero_probability_never_fires(self):
        injector = FaultInjector.parse("engine.solve:error:0:0")
        for _ in range(50):
            injector.maybe("engine.solve")
        assert injector.counters() == {}

    def test_probability_draws_reproducible(self):
        a = FaultInjector.parse("engine.solve:error:0:0.5", seed=7)
        b = FaultInjector.parse("engine.solve:error:0:0.5", seed=7)

        def pattern(injector):
            fired = []
            for _ in range(20):
                try:
                    injector.maybe("engine.solve")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        first, second = pattern(a), pattern(b)
        assert first == second
        assert any(first) and not all(first)

    def test_from_env(self):
        assert FaultInjector.from_env({}) is None
        assert FaultInjector.from_env({FAULTS_ENV_VAR: "  "}) is None
        injector = FaultInjector.from_env(
            {FAULTS_ENV_VAR: "engine.solve:latency:5"}
        )
        assert injector is not None and injector.armed

    def test_snapshot_lists_rules_and_counts(self):
        injector = FaultInjector.parse("engine.solve:error")
        with pytest.raises(InjectedFault):
            injector.maybe("engine.solve")
        snapshot = injector.snapshot()
        assert snapshot["armed"] is True
        assert snapshot["rules"] == [
            {
                "site": "engine.solve",
                "kind": "error",
                "value_ms": 0.0,
                "probability": 1.0,
            }
        ]
        assert snapshot["injected"] == {"engine.solve:error": 1}


class TestSchedulerIntegration:
    def test_engine_fault_fails_batch_scheduler_survives(self, ranker):
        faults = FaultInjector.parse("engine.solve:error:0:0.5")
        metrics = ServiceMetrics()

        async def main():
            async with MicroBatchScheduler(
                ranker, max_batch_size=1,
                metrics=metrics, faults=faults,
            ) as scheduler:
                outcomes = []
                for node in range(12):
                    try:
                        outcomes.append(await scheduler.search(node, 5))
                    except InjectedFault as fault:
                        outcomes.append(fault)
                return outcomes

        outcomes = run(main())
        failures = [o for o in outcomes if isinstance(o, InjectedFault)]
        answers = [o for o in outcomes if not isinstance(o, Exception)]
        assert failures and answers  # chaos fired, and the stack survived
        # Answers that did come back are still exact.
        for node, outcome in enumerate(outcomes):
            if not isinstance(outcome, Exception):
                direct = ranker.top_k(node, 5)
                assert list(outcome.result.indices) == list(direct.indices)


class TestServerIntegration:
    def test_response_fault_is_500_server_keeps_serving(self, ranker):
        faults = FaultInjector.parse("server.response:error")
        with BackgroundServer(
            ranker, port=0, cache_capacity=0, faults=faults
        ) as server:
            with RetrievalClient(port=server.port) as client:
                with pytest.raises(RequestFailedError) as excinfo:
                    client.search(1, k=5)
                assert excinfo.value.status == 500
                assert "injected fault" in str(excinfo.value)
                # Liveness endpoints don't consult the chaos site.
                assert client.healthz()["status"] == "ok"
                metrics = client.metrics()
                assert metrics["admission"]["faults_injected_total"] >= 1
                assert "repro_faults_injected_total" in (
                    client.prometheus_metrics()
                )
                stats = client.stats()
                assert stats["scheduler"]["faults"]["armed"] is True

    def test_engine_fault_maps_to_500_and_recovers(self, ranker):
        faults = FaultInjector.parse("engine.solve:error:0:0.5")
        with BackgroundServer(
            ranker, port=0, cache_capacity=0, faults=faults
        ) as server:
            with RetrievalClient(port=server.port) as client:
                statuses = []
                for node in range(12):
                    try:
                        client.search(node, k=5)
                        statuses.append(200)
                    except RequestFailedError as fail:
                        statuses.append(fail.status)
                assert 500 in statuses and 200 in statuses

    def test_client_retries_ride_out_response_faults(self, ranker):
        faults = FaultInjector.parse("server.response:error:0:0.5")
        with BackgroundServer(
            ranker, port=0, cache_capacity=0, faults=faults
        ) as server:
            with RetrievalClient(
                port=server.port, retries=8, backoff_ms=1.0, backoff_cap_ms=5.0
            ) as client:
                # With 8 budgeted retries against p=0.5 faults, every
                # search should eventually land.
                for node in range(10):
                    payload = client.search(node, k=5)
                    assert payload["indices"]
                assert client.counters["retries"] >= 1
