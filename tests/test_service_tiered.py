"""Service-layer tests for the accuracy dial.

The cache-correctness property (the satellite regression this file
exists for): the result cache key includes the resolved accuracy label,
so an answer computed at one dial setting is **never** served to a
request for another — ``fast`` can never impersonate ``exact``.  The
flip side also holds: an implicit request and an explicit
``accuracy=balanced`` resolve to the same label and *should* share one
cache entry and one coalescing lane.
"""

from __future__ import annotations

import asyncio

import numpy as np
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


class TestSchedulerCacheIsolation:
    def test_fast_never_served_to_exact(self, tiered, base):
        """The regression: dial levels must not share cache entries."""

        async def main():
            async with MicroBatchScheduler(tiered, cache=ResultCache(64)) as scheduler:
                fast = await scheduler.search(3, 6, accuracy="fast")
                exact = await scheduler.search(3, 6, accuracy="exact")
                repeat_exact = await scheduler.search(3, 6, accuracy="exact")
                return fast, exact, repeat_exact, scheduler.snapshot()

        fast, exact, repeat_exact, snapshot = run(main())
        assert fast.accuracy == "fast"
        assert exact.accuracy == "exact"
        # The exact request computed fresh — it did not hit fast's entry.
        assert not exact.cached
        assert repeat_exact.cached
        direct = base.top_k(3, 6)
        np.testing.assert_array_equal(exact.result.indices, direct.indices)
        np.testing.assert_array_equal(exact.result.scores, direct.scores)
        assert {"node:fast", "node:exact"} <= set(snapshot["lanes"])

    def test_default_and_explicit_balanced_share_entry(self, tiered):
        async def main():
            async with MicroBatchScheduler(tiered, cache=ResultCache(64)) as scheduler:
                implicit = await scheduler.search(5, 4)
                explicit = await scheduler.search(5, 4, accuracy="balanced")
                return implicit, explicit

        implicit, explicit = run(main())
        assert implicit.accuracy == explicit.accuracy == "balanced"
        assert not implicit.cached
        assert explicit.cached
        np.testing.assert_array_equal(
            implicit.result.indices, explicit.result.indices
        )

    def test_explicit_m_gets_its_own_lane(self, tiered):
        async def main():
            async with MicroBatchScheduler(tiered, cache=ResultCache(64)) as scheduler:
                first = await scheduler.search(7, 5, m=32)
                second = await scheduler.search(7, 5, m=48)
                return first, second, scheduler.snapshot()

        first, second, snapshot = run(main())
        assert first.accuracy == "m=32"
        assert second.accuracy == "m=48"
        assert not second.cached  # different budget, different key
        assert {"node:m=32", "node:m=48"} <= set(snapshot["lanes"])

    def test_out_of_sample_levels_isolated(self, tiered, bridged_graph):
        feature = bridged_graph.features.mean(axis=0)

        async def main():
            async with MicroBatchScheduler(tiered, cache=ResultCache(64)) as scheduler:
                fast = await scheduler.search_out_of_sample(
                    feature, 5, accuracy="fast"
                )
                exact = await scheduler.search_out_of_sample(
                    feature, 5, accuracy="exact"
                )
                return fast, exact

        fast, exact = run(main())
        assert fast.accuracy == "fast"
        assert not exact.cached

    def test_non_tiered_engine_rejects_dial(self, base):
        async def main():
            async with MicroBatchScheduler(base) as scheduler:
                with pytest.raises(ValueError, match="no accuracy dial"):
                    await scheduler.search(1, 4, accuracy="fast")
                plain = await scheduler.search(1, 4)
                return plain

        plain = run(main())
        assert plain.accuracy is None

    def test_invalid_dial_rejected_before_submission(self, tiered):
        async def main():
            async with MicroBatchScheduler(tiered, cache=ResultCache(64)) as scheduler:
                with pytest.raises(ValueError, match="unknown accuracy"):
                    await scheduler.search(1, 4, accuracy="turbo")
                with pytest.raises(ValueError, match="not both"):
                    await scheduler.search(1, 4, accuracy="fast", m=9)

        run(main())


class TestTieredServer:
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

    def test_accuracy_echoed_and_exact_bitwise(self, client, base):
        fast = client._request(
            "POST", "/search?accuracy=fast", {"query": 2, "k": 5}
        )
        exact = client._request(
            "POST", "/search?accuracy=exact", {"query": 2, "k": 5}
        )
        assert fast["accuracy"] == "fast"
        assert exact["accuracy"] == "exact"
        direct = base.top_k(2, 5)
        assert exact["indices"] == [int(node) for node in direct.indices]
        np.testing.assert_allclose(
            exact["scores"], direct.scores, rtol=0, atol=0
        )

    def test_default_level_annotated(self, client, tiered):
        payload = client.search(4, k=3)
        assert payload["accuracy"] == tiered.default_accuracy

    def test_body_field_equivalent_to_query_param(self, client):
        via_param = client._request(
            "POST", "/search?accuracy=exact", {"query": 6, "k": 4}
        )
        via_body = client._request(
            "POST", "/search", {"query": 6, "k": 4, "accuracy": "exact"}
        )
        assert via_body["accuracy"] == "exact"
        assert via_body["cached"]  # same resolved label -> same cache entry
        assert via_body["indices"] == via_param["indices"]

    def test_m_dial_over_http(self, client):
        payload = client._request(
            "POST", "/search?m=24", {"query": 8, "k": 4}
        )
        assert payload["accuracy"] == "m=24"

    def test_unknown_accuracy_400(self, client):
        with pytest.raises(RuntimeError, match="400"):
            client._request(
                "POST", "/search?accuracy=turbo", {"query": 1, "k": 3}
            )

    def test_accuracy_plus_m_400(self, client):
        with pytest.raises(RuntimeError, match="400"):
            client._request(
                "POST", "/search?accuracy=fast&m=10", {"query": 1, "k": 3}
            )

    def test_oos_dial(self, client, tiered, base):
        feature = list(base.graph.features.mean(axis=0))
        payload = client._request(
            "POST", "/search_oos?accuracy=exact", {"feature": feature, "k": 4}
        )
        direct = base.top_k_out_of_sample(np.asarray(feature), 4)
        assert payload["accuracy"] == "exact"
        assert payload["indices"] == [int(node) for node in direct.indices]

    def test_metrics_and_stats_expose_tiers(self, client, tiered):
        client._request("POST", "/search?accuracy=fast", {"query": 9, "k": 3})
        client._request("POST", "/search?accuracy=exact", {"query": 9, "k": 3})
        metrics = client.metrics()
        tiers = metrics["tiers"]
        assert {"fast", "exact"} <= set(tiers)
        for entry in tiers.values():
            assert entry["queries"] >= 1
            assert 0.0 <= entry["mean_nomination_recall"] <= 1.0
        assert tiers["exact"]["mean_nomination_recall"] == 1.0
        stats = client.stats()
        assert stats["spectral"]["rank"] == tiered.spectral.rank
        assert stats["spectral"]["default_accuracy"] == "balanced"
        assert "tiers" in stats


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

    def test_dial_request_400(self, client):
        with pytest.raises(RuntimeError, match="400"):
            client._request(
                "POST", "/search?accuracy=fast", {"query": 3, "k": 4}
            )

    def test_no_tier_surfaces(self, client):
        assert "tiers" not in client.metrics()
        stats = client.stats()
        assert "spectral" not in stats
