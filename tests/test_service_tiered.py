"""The service layer has no accuracy dial.

The scheduler takes a payload and a ``k`` and nothing else (its lanes
are exactly ``node`` and ``oos``), and the HTTP server refuses any
search request that still names ``accuracy`` or ``m`` — query string or
body — with a 400 that says the dial was removed.  That holds even when
the served engine is a :class:`repro.core.TieredEngine`, which still
exists as a library composition.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.index import MogulRanker
from repro.core.spectral import SpectralEngine, SpectralIndex
from repro.core.tiered import TieredEngine
from repro.service.cache import ResultCache
from repro.service.client import RetrievalClient
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import BackgroundServer

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def base(bridged_graph):
    return MogulRanker(bridged_graph)


@pytest.fixture(scope="module")
def tiered(bridged_graph, base):
    spectral = SpectralEngine.from_index(
        bridged_graph, SpectralIndex.build(bridged_graph, rank=16)
    )
    return TieredEngine(base, spectral)


def run(coroutine):
    return asyncio.run(coroutine)


def assert_dial_removed(status: int, text: str, name: str) -> None:
    assert status == 400
    error = json.loads(text)["error"]
    assert f"'{name}'" in error
    assert "removed" in error


class TestSchedulerCacheIsolation:
    def test_non_tiered_engine_rejects_dial(self, base):
        async def main():
            async with MicroBatchScheduler(base) as scheduler:
                with pytest.raises(TypeError):
                    await scheduler.search(1, 4, accuracy="fast")
                with pytest.raises(TypeError):
                    await scheduler.search(1, 4, m=16)
                plain = await scheduler.search(1, 4)
                return plain, scheduler.snapshot()

        plain, snapshot = run(main())
        assert not hasattr(plain, "accuracy")
        assert snapshot["lanes"] == ["node", "oos"]

    def test_invalid_dial_rejected_before_submission(self, tiered, bridged_graph):
        feature = bridged_graph.features.mean(axis=0)

        async def main():
            async with MicroBatchScheduler(tiered, cache=ResultCache(64)) as scheduler:
                with pytest.raises(TypeError):
                    await scheduler.search(1, 4, accuracy="turbo")
                with pytest.raises(TypeError):
                    await scheduler.search_out_of_sample(feature, 4, accuracy="fast")
                return scheduler.queries_dispatched, scheduler.snapshot()

        dispatched, snapshot = run(main())
        assert dispatched == 0
        assert snapshot["lanes"] == ["node", "oos"]


class TestTieredServer:
    """A tiered engine behind the server still cannot be dialed."""

    @pytest.fixture(scope="class")
    def background(self, tiered):
        with BackgroundServer(
            tiered, port=0, max_batch_size=8, cache_capacity=64
        ) as server:
            yield server

    @pytest.fixture()
    def client(self, background):
        with RetrievalClient(port=background.port) as connection:
            yield connection

    def test_body_field_equivalent_to_query_param(self, client):
        via_param = client._raw(
            "POST", "/search?accuracy=exact", {"query": 6, "k": 4}
        )
        via_body = client._raw(
            "POST", "/search", {"query": 6, "k": 4, "accuracy": "exact"}
        )
        for status, _, text in (via_param, via_body):
            assert_dial_removed(status, text, "accuracy")

    def test_m_dial_over_http(self, client):
        status, _, text = client._raw("POST", "/search?m=24", {"query": 8, "k": 4})
        assert_dial_removed(status, text, "m")
        status, _, text = client._raw("POST", "/search", {"query": 8, "k": 4, "m": 24})
        assert_dial_removed(status, text, "m")

    def test_unknown_accuracy_400(self, client):
        status, _, text = client._raw(
            "POST", "/search?accuracy=turbo", {"query": 1, "k": 3}
        )
        assert_dial_removed(status, text, "accuracy")

    def test_accuracy_plus_m_400(self, client):
        status, _, _ = client._raw(
            "POST", "/search?accuracy=fast&m=10", {"query": 1, "k": 3}
        )
        assert status == 400

    def test_oos_dial(self, client, base):
        feature = [float(v) for v in base.graph.features.mean(axis=0)]
        status, _, text = client._raw(
            "POST", "/search_oos?accuracy=exact", {"feature": feature, "k": 4}
        )
        assert_dial_removed(status, text, "accuracy")
        status, _, text = client._raw(
            "POST", "/search_oos", {"feature": feature, "k": 4, "m": 32}
        )
        assert_dial_removed(status, text, "m")


class TestNonTieredServer:
    @pytest.fixture(scope="class")
    def background(self, base):
        with BackgroundServer(base, port=0) as server:
            yield server

    @pytest.fixture()
    def client(self, background):
        with RetrievalClient(port=background.port) as connection:
            yield connection

    def test_payload_has_no_accuracy_key(self, client):
        payload = client.search(3, k=4)
        assert "accuracy" not in payload
        assert "degraded" not in payload

    def test_dial_request_400(self, client):
        status, _, text = client._raw(
            "POST", "/search?accuracy=fast", {"query": 3, "k": 4}
        )
        assert_dial_removed(status, text, "accuracy")

    def test_no_tier_surfaces(self, client):
        metrics = client.metrics()
        assert "tiers" not in metrics
        assert "degraded_total" not in metrics["admission"]
        stats = client.stats()
        assert "spectral" not in stats
        assert "tiers" not in stats
        exposition = client.prometheus_metrics()
        assert "repro_tier_" not in exposition
        assert "repro_degraded_total" not in exposition
