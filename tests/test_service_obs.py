"""End-to-end observability tests: tracing, /debug/slow, Prometheus.

Real HTTP over a real socket, like test_service_server.py — these tests
exercise the three observability surfaces the PR adds: the inline
``?debug=trace`` span tree (and the ``X-Repro-Trace-Id`` header on every
traced response), the slow-query flight recorder at ``/debug/slow``, and
the Prometheus text exposition at ``/metrics?format=prometheus``.
"""

from __future__ import annotations

import pytest

from repro.core.index import MogulRanker
from repro.core.spectral import SpectralEngine, SpectralIndex
from repro.core.tiered import TieredEngine
from repro.service.client import RetrievalClient
from repro.service.server import BackgroundServer

pytestmark = pytest.mark.timeout(120)


def span_names(tree: dict) -> set[str]:
    names = {tree["name"]}
    for child in tree.get("children", ()):
        names |= span_names(child)
    return names


def find_spans(tree: dict, name: str) -> list[dict]:
    found = [tree] if tree["name"] == name else []
    for child in tree.get("children", ()):
        found.extend(find_spans(child, name))
    return found


@pytest.fixture(scope="module")
def ranker(bridged_graph):
    return MogulRanker(bridged_graph)


@pytest.fixture(scope="module")
def background(ranker):
    with BackgroundServer(
        ranker, port=0, max_batch_size=16, cache_capacity=64
    ) as server:
        yield server


@pytest.fixture()
def client(background):
    with RetrievalClient(port=background.port) as connection:
        yield connection


class TestInlineTrace:
    def test_debug_trace_returns_span_tree(self, client):
        payload = client.search(5, k=4, debug_trace=True)
        assert payload["indices"]  # tracing must not change the answer
        trace = payload["trace"]
        assert trace["trace_id"] == payload["trace_id"]
        assert trace["duration_ms"] > 0
        names = span_names(trace["root"])
        assert {"search", "scheduler.wait", "engine.dispatch"} <= names
        # The flat engine solves through the three-stage exact path.
        assert "solve.seed_forward" in names
        for stage in ("scheduler.wait", "engine.dispatch"):
            (node,) = find_spans(trace["root"], stage)
            assert node["duration_ms"] >= 0.0
        (dispatch,) = find_spans(trace["root"], "engine.dispatch")
        assert dispatch["meta"]["lane"].startswith("node")
        assert dispatch["meta"]["batch_size"] >= 1

    def test_trace_id_header_on_every_traced_response(self, client):
        status, headers, _ = client._raw(
            "POST", "/search", {"query": 6, "k": 3}
        )
        assert status == 200
        assert len(headers["X-Repro-Trace-Id"]) == 16

    def test_untraced_response_has_no_trace_payload(self, client):
        payload = client.search(7, k=3)
        assert "trace" not in payload
        assert "trace_id" in payload  # id still travels for correlation

    def test_cache_hit_traced_without_engine_dispatch(self, client):
        client.search(23, k=5)
        warm = client.search(23, k=5, debug_trace=True)
        assert warm["cached"]
        names = span_names(warm["trace"]["root"])
        assert "cache.hit" in names
        assert "engine.dispatch" not in names

    def test_search_oos_traced(self, client, ranker):
        feature = ranker.graph.features.mean(axis=0)
        vector = [float(v) for v in feature]
        status, _, text = client._raw(
            "POST", "/search_oos?debug=trace", {"feature": vector, "k": 3}
        )
        import json

        assert status == 200
        payload = json.loads(text)
        names = span_names(payload["trace"]["root"])
        assert {"search_oos", "scheduler.wait", "engine.dispatch"} <= names

    def test_traces_feed_stage_histograms(self, client):
        client.search(9, k=4)
        stages = client.metrics()["stages"]
        assert "scheduler.wait" in stages
        assert "engine.dispatch" in stages
        assert stages["engine.dispatch"]["count"] >= 1


class TestSlowlog:
    def test_debug_slow_retains_traces(self, client):
        client.search(31, k=4)
        document = client.slowlog()
        assert document["slowlog"]["tracing"]
        assert document["slowlog"]["policy"] == "slowest"
        assert document["slowlog"]["retained"] >= 1
        entries = document["entries"]
        assert entries
        latencies = [entry["latency_ms"] for entry in entries]
        assert latencies == sorted(latencies, reverse=True)
        slowest = entries[0]
        assert slowest["endpoint"] in {"search", "search_oos"}
        assert len(slowest["trace_id"]) == 16
        assert "scheduler.wait" in span_names(slowest["trace"]["root"])

    def test_metrics_snapshot_reports_slowlog(self, client):
        snapshot = client.metrics()
        assert snapshot["tracing"]
        assert snapshot["slowlog"]["capacity"] == 32


class TestPrometheusEndpoint:
    def test_content_type_and_families(self, background, client):
        client.search(3, k=4)
        status, headers, text = client._raw("GET", "/metrics?format=prometheus")
        assert status == 200
        assert (
            headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        )
        for family in (
            "repro_uptime_seconds",
            "repro_requests_total",
            "repro_queue_depth",
            "repro_cache_hits_total",
            "repro_request_latency_seconds_bucket",
            "repro_stage_duration_seconds_bucket",
            "repro_slowlog_recorded_total",
        ):
            assert family in text, family
        # Parse every sample line: `name{labels} value`.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            float(value)  # must not raise

    def test_bucket_series_cumulative(self, client):
        client.search(4, k=4)
        text = client.prometheus_metrics()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_request_latency_seconds_bucket")
            and 'endpoint="search"' in line
        ]
        assert counts and counts == sorted(counts)

    def test_unknown_format_400(self, client):
        status, _, _ = client._raw("GET", "/metrics?format=xml")
        assert status == 400

    def test_json_format_still_default(self, client):
        assert "requests_total" in client.metrics()
        status, _, _ = client._raw("GET", "/metrics?format=json")
        assert status == 200


class TestTracingDisabled:
    @pytest.fixture(scope="class")
    def untraced_background(self, ranker):
        with BackgroundServer(
            ranker, port=0, tracing=False
        ) as server:
            yield server

    @pytest.fixture()
    def untraced_client(self, untraced_background):
        with RetrievalClient(port=untraced_background.port) as connection:
            yield connection

    def test_answers_identical_without_tracing(self, untraced_client, ranker):
        payload = untraced_client.search(5, k=4)
        direct = ranker.top_k(5, 4)
        assert payload["indices"] == [int(node) for node in direct.indices]
        assert "trace_id" not in payload

    def test_no_trace_header_or_inline_tree(self, untraced_client):
        status, headers, _ = untraced_client._raw(
            "POST", "/search?debug=trace", {"query": 5, "k": 4}
        )
        assert status == 200
        assert "X-Repro-Trace-Id" not in headers

    def test_slowlog_empty_and_flagged(self, untraced_client):
        untraced_client.search(8, k=3)
        document = untraced_client.slowlog()
        assert not document["slowlog"]["tracing"]
        assert document["entries"] == []

    def test_prometheus_still_served(self, untraced_client):
        text = untraced_client.prometheus_metrics()
        assert "repro_requests_total" in text


class TestTieredTracing:
    @pytest.fixture(scope="class")
    def tiered_background(self, bridged_graph):
        base = MogulRanker(bridged_graph)
        spectral = SpectralEngine.from_index(
            bridged_graph, SpectralIndex.build(bridged_graph, rank=16)
        )
        with BackgroundServer(
            TieredEngine(base, spectral), port=0
        ) as server:
            yield server

    @pytest.fixture()
    def tiered_client(self, tiered_background):
        with RetrievalClient(port=tiered_background.port) as connection:
            yield connection

    def test_tiered_search_has_nominate_and_rerank_spans(self, tiered_client):
        """A served tiered engine answers at its own default level (no
        request can dial it), and its stage spans still reach the trace."""
        import json

        status, _, text = tiered_client._raw(
            "POST", "/search?debug=trace", {"query": 3, "k": 5}
        )
        assert status == 200
        payload = json.loads(text)
        root = payload["trace"]["root"]
        names = span_names(root)
        assert {"tier.nominate", "tier.rerank"} <= names
        (nominate,) = find_spans(root, "tier.nominate")
        (rerank,) = find_spans(root, "tier.rerank")
        assert nominate["duration_ms"] > 0
        assert rerank["duration_ms"] > 0
        assert nominate["meta"]["accuracy"] == "balanced"
        assert nominate["meta"]["candidates"] >= 5


class TestBatchSharedEngineSpan:
    def test_coalesced_requests_share_one_dispatch_span(self, background):
        """Concurrent traced requests coalesced into one batch each see
        the same engine.dispatch subtree with batch_size > 1."""
        import threading

        results = []
        barrier = threading.Barrier(4)

        def one_request(query):
            with RetrievalClient(port=background.port) as connection:
                barrier.wait()
                results.append(
                    connection.search(query, k=3, debug_trace=True)
                )

        threads = [
            threading.Thread(target=one_request, args=(40 + i,))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        batch_sizes = []
        for payload in results:
            (dispatch,) = find_spans(
                payload["trace"]["root"], "engine.dispatch"
            )
            batch_sizes.append(dispatch["meta"]["batch_size"])
            (wait,) = find_spans(payload["trace"]["root"], "scheduler.wait")
            assert wait["meta"]["batch_size"] == dispatch["meta"]["batch_size"]
        # At least the batching machinery ran; with 4 simultaneous
        # arrivals and a 1 ms window, usually some coalescing happens —
        # but the invariant we assert is consistency, not luck.
        assert all(size >= 1 for size in batch_sizes)
