"""End-to-end tests: real HTTP over a real socket (repro.service.server).

A :class:`BackgroundServer` serves a small index on an ephemeral port;
requests go through :class:`RetrievalClient` — the exact transport the
CLI's ``serve`` / ``loadtest`` commands use.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.index import MogulRanker
from repro.service.client import (
    RetrievalClient,
    run_load_test,
    wait_until_healthy,
)
from repro.service.server import BackgroundServer

#: Real sockets + worker threads: a deadlock must fail fast, not hang CI.
pytestmark = pytest.mark.timeout(120)


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


class TestEndpoints:
    def test_healthz(self, client, ranker):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["n_nodes"] == ranker.n_nodes
        assert health["uptime_seconds"] >= 0

    def test_search_matches_direct_top_k(self, client, ranker):
        for query in (0, 7, 42, 80):
            payload = client.search(query, k=6)
            direct = ranker.top_k(query, 6)
            assert payload["query"] == query
            assert payload["k"] == 6
            assert payload["indices"] == [int(node) for node in direct.indices]
            np.testing.assert_allclose(
                payload["scores"], direct.scores, rtol=0, atol=1e-8
            )
            assert payload["stats"]["clusters_total"] > 0
            assert payload["latency_ms"] > 0

    def test_search_oos_matches_direct(self, client, ranker):
        feature = ranker.graph.features.mean(axis=0)
        payload = client.search_out_of_sample(feature, k=5)
        direct = ranker.top_k_out_of_sample(feature, 5)
        assert payload["indices"] == [int(node) for node in direct.indices]
        np.testing.assert_allclose(
            payload["scores"], direct.scores, rtol=0, atol=1e-8
        )

    def test_repeat_query_hits_cache(self, client):
        cold = client.search(11, k=4)
        warm = client.search(11, k=4)
        assert not cold["cached"]
        assert warm["cached"]
        assert warm["indices"] == cold["indices"]

    def test_metrics_and_stats(self, client, ranker):
        client.search(2, k=3)
        metrics = client.metrics()
        assert metrics["requests_total"] >= 1
        assert metrics["batches_total"] >= 1
        assert "p95_ms" in metrics["latency"]["search"]
        assert metrics["cache"]["capacity"] == 64
        stats = client.stats()
        assert stats["index"]["n_nodes"] == ranker.n_nodes
        assert stats["scheduler"]["max_batch_size"] == 16
        assert stats["engine_totals"]["nodes_scored"] >= 0
        profile = stats["build_profile"]
        assert profile["factor_backend"] == "csr"
        assert "factorization" in profile["stages"]
        assert profile["total_seconds"] >= 0.0

    def test_wait_until_healthy(self, background):
        health = wait_until_healthy("127.0.0.1", background.port, 5.0)
        assert health["status"] == "ok"


class TestHttpErrors:
    def test_unknown_path_404(self, client):
        with pytest.raises(RuntimeError, match="404"):
            client._request("GET", "/nope")

    def test_wrong_method_405(self, client):
        with pytest.raises(RuntimeError, match="405"):
            client._request("GET", "/search")

    def test_malformed_json_400(self, background):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", background.port)
        try:
            connection.request(
                "POST", "/search", body=b"{not json", headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            connection.close()

    def test_missing_query_400(self, client):
        with pytest.raises(RuntimeError, match="400"):
            client._request("POST", "/search", {"k": 5})

    def test_out_of_range_query_400(self, client, ranker):
        with pytest.raises(RuntimeError, match="400"):
            client.search(ranker.n_nodes + 10, k=5)

    def test_bad_k_400(self, client):
        with pytest.raises(RuntimeError, match="400"):
            client._request("POST", "/search", {"query": 0, "k": 0})

    def test_bad_feature_400(self, client):
        with pytest.raises(RuntimeError, match="400"):
            client._request("POST", "/search_oos", {"feature": [], "k": 3})

    def test_malformed_content_length_400(self, background):
        import socket

        with socket.create_connection(
            ("127.0.0.1", background.port), timeout=5
        ) as raw:
            raw.sendall(b"POST /search HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
            reply = raw.recv(4096).decode()
        assert reply.startswith("HTTP/1.1 400")
        assert "Content-Length" in reply

    def test_oversized_body_413(self, background):
        import socket

        from repro.service.server import MAX_BODY_BYTES

        with socket.create_connection(
            ("127.0.0.1", background.port), timeout=5
        ) as raw:
            raw.sendall(
                f"POST /search HTTP/1.1\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            reply = raw.recv(4096).decode()
        assert reply.startswith("HTTP/1.1 413")

    def test_server_survives_errors(self, client):
        """Bad requests never take the service down."""
        for _ in range(3):
            with pytest.raises(RuntimeError):
                client._request("POST", "/search", {"query": "nope"})
        assert client.healthz()["status"] == "ok"


class TestLoadGenerator:
    def test_load_test_all_correct(self, background, ranker):
        report = run_load_test(
            port=background.port,
            concurrency=6,
            total_requests=48,
            k=5,
            check_against=ranker.top_k,
        )
        assert report.ok
        assert report.n_requests == 48
        assert report.throughput_rps > 0
        summary = report.latency.summary()
        assert summary["p95_ms"] >= summary["p50_ms"] >= 0
        assert report.server_metrics.get("requests_total", 0) >= 48
        document = report.to_dict()
        assert json.dumps(document)  # JSON-serialisable
        assert "p99_ms" in document["latency"]
        assert "throughput" in report.to_text()

    def test_duration_bounded_run(self, background):
        report = run_load_test(
            port=background.port,
            concurrency=2,
            duration_seconds=0.5,
            k=3,
        )
        assert report.ok
        assert report.n_requests > 0

    def test_bounds_are_exclusive(self, background):
        with pytest.raises(ValueError, match="exactly one"):
            run_load_test(
                port=background.port, total_requests=10, duration_seconds=1.0
            )


class TestShardedServing:
    """The HTTP service must serve a sharded engine transparently."""

    @pytest.fixture(scope="class")
    def sharded_ranker(self, bridged_graph):
        from repro.core.sharded import ShardedMogulRanker

        return ShardedMogulRanker(bridged_graph, 2)

    @pytest.fixture(scope="class")
    def sharded_background(self, sharded_ranker):
        with BackgroundServer(
            sharded_ranker, port=0, max_batch_size=16
        ) as server:
            yield server

    @pytest.fixture()
    def sharded_client(self, sharded_background):
        with RetrievalClient(port=sharded_background.port) as connection:
            yield connection

    def test_search_matches_unsharded_engine(
        self, sharded_client, ranker, sharded_ranker
    ):
        for query in (0, 7, 40):
            served = sharded_client.search(query, k=6)
            direct = ranker.top_k(query, 6)
            assert served["indices"] == [int(i) for i in direct.indices]
            np.testing.assert_allclose(
                served["scores"], direct.scores, rtol=0, atol=0
            )

    def test_stats_expose_shard_layout(self, sharded_client, sharded_ranker):
        stats = sharded_client.stats()
        shards = stats["index"]["shards"]
        assert shards["n_shards"] == 2
        assert len(shards["spans"]) == 2
        assert shards["border_size"] == sharded_ranker.index.border_size
        assert stats["index"]["factor_nnz"] == sharded_ranker.index.factor_nnz

    def test_search_oos_served(self, sharded_client, sharded_ranker):
        feature = sharded_ranker.graph.features[3] + 0.01
        served = sharded_client.search_out_of_sample(feature.tolist(), k=5)
        direct = sharded_ranker.top_k_out_of_sample(feature, 5)
        assert served["indices"] == [int(i) for i in direct.indices]
