"""Hostile-input and failure-mode robustness for the serving stack.

Truncated and oversized requests, invalid deadline and Retry-After
values, stale-socket retry semantics, the retry budget, and the
BackgroundServer lifecycle errors (a failed bind must name the port,
not time out silently).
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.index import MogulRanker
from repro.service.client import (
    ALWAYS_RETRYABLE,
    IDEMPOTENT_RETRYABLE,
    RequestFailedError,
    RetrievalClient,
    run_load_test,
)
from repro.service.faults import FaultInjector
from repro.service.server import BackgroundServer

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


class TestHostileHttp:
    def test_truncated_body_does_not_wedge_server(self, background, client):
        """A client that dies mid-body must not take a worker with it."""
        with socket.create_connection(
            ("127.0.0.1", background.port), timeout=5
        ) as raw:
            raw.sendall(
                b"POST /search HTTP/1.1\r\nContent-Length: 500\r\n\r\n"
                b'{"query": 1'  # ...connection dropped mid-body
            )
        # The server abandoned that connection and still answers others.
        assert client.healthz()["status"] == "ok"
        assert client.search(1, k=5)["indices"]

    def test_truncated_header_block(self, background, client):
        with socket.create_connection(
            ("127.0.0.1", background.port), timeout=5
        ) as raw:
            raw.sendall(b"POST /search HTTP/1.1\r\nContent-Le")
        assert client.healthz()["status"] == "ok"

    def test_garbage_request_line(self, background, client):
        with socket.create_connection(
            ("127.0.0.1", background.port), timeout=5
        ) as raw:
            raw.sendall(b"\x00\xff\xfe garbage \r\n\r\n")
        assert client.healthz()["status"] == "ok"

    def test_custom_body_limit_413(self, ranker):
        with BackgroundServer(
            ranker, port=0, cache_capacity=0, max_body_bytes=1024
        ) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as raw:
                raw.sendall(
                    b"POST /search HTTP/1.1\r\nContent-Length: 2048\r\n\r\n"
                )
                reply = raw.recv(4096).decode()
            assert reply.startswith("HTTP/1.1 413")
            assert "1024" in reply
            # In-limit requests still served by the same server.
            with RetrievalClient(port=server.port) as probe:
                assert probe.search(1, k=3)["indices"]

    def test_negative_content_length_400(self, background):
        with socket.create_connection(
            ("127.0.0.1", background.port), timeout=5
        ) as raw:
            raw.sendall(b"POST /search HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
            reply = raw.recv(4096).decode()
        assert reply.startswith("HTTP/1.1 400")

    def test_invalid_deadline_header_400(self, client):
        status, _, text = client._raw(
            "POST",
            "/search",
            {"query": 1, "k": 5},
            extra_headers={"X-Repro-Deadline-Ms": "soon"},
        )
        assert status == 400
        assert "deadline_ms" in text


class TestBackgroundServerLifecycle:
    def test_failed_bind_raises_with_address(self, ranker):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            taken = blocker.getsockname()[1]
            with pytest.raises(RuntimeError) as excinfo:
                BackgroundServer(ranker, port=taken, cache_capacity=0)
            message = str(excinfo.value)
            assert f"127.0.0.1:{taken}" in message
            assert "OSError" in message
            assert isinstance(excinfo.value.__cause__, OSError)
        finally:
            blocker.close()

    def test_stop_is_idempotent(self, ranker):
        server = BackgroundServer(ranker, port=0, cache_capacity=0)
        server.stop()
        server.stop()  # second call is a no-op, not an error


class TestClientResilience:
    def test_retry_classes(self):
        assert 429 in ALWAYS_RETRYABLE and 503 in ALWAYS_RETRYABLE
        assert 500 in IDEMPOTENT_RETRYABLE and 504 in IDEMPOTENT_RETRYABLE
        assert not (ALWAYS_RETRYABLE & IDEMPOTENT_RETRYABLE)

    def test_retry_after_header_wins_and_is_clamped(self):
        client = RetrievalClient(port=1, retries=1)
        assert client._retry_delay(0, {"Retry-After": "2"}) == 2.0
        assert client._retry_delay(0, {"retry-after": "3.5"}) == 3.5
        assert client._retry_delay(0, {"Retry-After": "9999"}) == 10.0

    def test_invalid_retry_after_falls_back_to_jitter(self):
        client = RetrievalClient(port=1, retries=1, backoff_ms=50.0)
        for bad in ("soon", "", "-3", None):
            delay = client._retry_delay(0, {"Retry-After": bad})
            assert 0.0 <= delay <= 0.05

    def test_backoff_is_exponential_full_jitter(self):
        client = RetrievalClient(
            port=1, retries=8, backoff_ms=10.0, backoff_cap_ms=100.0
        )
        for attempt in range(8):
            bound = min(0.1, 0.01 * 2**attempt)
            for _ in range(20):
                assert 0.0 <= client._retry_delay(attempt, None) <= bound

    def test_retry_budget_bounds_spend_and_refills(self):
        client = RetrievalClient(port=1, retries=10, retry_budget=2.0)
        assert client._take_retry_token()
        assert client._take_retry_token()
        assert not client._take_retry_token()  # bucket drained
        assert client.counters["retries"] == 2
        for _ in range(12):  # successes refill 0.1 each
            client._budget = min(client._budget_cap, client._budget + 0.1)
        assert client._take_retry_token()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            RetrievalClient(port=1, retries=-1)

    def test_retries_recover_from_server_restart(self, ranker):
        """A stale keep-alive socket is retried for idempotent requests."""
        first = BackgroundServer(ranker, port=0, cache_capacity=0)
        port = first.port
        with RetrievalClient(port=port, retries=3, backoff_ms=1.0) as client:
            assert client.search(1, k=3)["indices"]
            first.stop()
            # Same port, fresh server: the old socket is dead and the
            # idempotent request reconnects through the retry path.
            with BackgroundServer(ranker, port=port, cache_capacity=0):
                assert client.search(2, k=3)["indices"]

    def test_mutation_not_retried_on_connection_error(self, ranker):
        first = BackgroundServer(ranker, port=0, cache_capacity=0)
        port = first.port
        with RetrievalClient(port=port, retries=3, backoff_ms=1.0) as client:
            assert client.healthz()["status"] == "ok"
            first.stop()
            with BackgroundServer(ranker, port=port, cache_capacity=0):
                # The read-only server would answer 403 — but the client
                # must not even resend over its dead socket: a mutation
                # may already have been applied by the old server.
                with pytest.raises((OSError, ConnectionError, RuntimeError)):
                    client.insert([0.0] * ranker.graph.features.shape[1])

    def test_mutation_still_retries_sheds(self, ranker):
        """429 means "never admitted": safe to retry even for mutations."""
        faults = FaultInjector.parse("engine.solve:latency:40")
        calls = {"n": 0}

        with BackgroundServer(
            ranker,
            port=0,
            max_batch_size=1,
            cache_capacity=0,
            max_queue_depth=1,
            faults=faults,
        ) as server:
            # Saturate the queue from background threads so the mutation
            # attempt (a read-only 403 here, but routed like any POST)
            # meets a loaded server; the point is the retry accounting.
            stop = threading.Event()

            def pressure():
                with RetrievalClient(port=server.port) as noisy:
                    while not stop.is_set():
                        try:
                            noisy.search(calls["n"] % 50, k=5)
                        except RequestFailedError:
                            pass
                        calls["n"] += 1

            threads = [threading.Thread(target=pressure) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                with RetrievalClient(
                    port=server.port, retries=2, backoff_ms=1.0
                ) as client:
                    # 403 (read-only) is NOT retryable: it must surface
                    # after at most the shed retries, never hang.
                    with pytest.raises(RequestFailedError) as excinfo:
                        client.insert(
                            [0.0] * ranker.graph.features.shape[1]
                        )
                    assert excinfo.value.status in (403, 429)
            finally:
                stop.set()
                for thread in threads:
                    thread.join()


class TestLoadGeneratorOverloadAccounting:
    def test_report_breaks_out_sheds_and_degrades(self, ranker):
        faults = FaultInjector.parse("engine.solve:latency:20")
        with BackgroundServer(
            ranker,
            port=0,
            max_batch_size=1,
            cache_capacity=0,
            max_queue_depth=1,
            faults=faults,
        ) as server:
            report = run_load_test(
                port=server.port, concurrency=6, total_requests=60, k=5
            )
        assert report.n_requests == 60
        assert report.n_shed > 0
        assert report.n_errors == 0  # sheds are policy, not failures
        assert report.ok
        assert report.goodput_rps < report.throughput_rps
        as_dict = report.to_dict()
        assert as_dict["n_shed"] == report.n_shed
        assert "n_degraded" not in as_dict
        assert "overload:" in report.to_text()
        assert "degraded" not in report.to_text()

    def test_deadline_expiries_counted_not_errors(self, ranker):
        faults = FaultInjector.parse("scheduler.queue:stall:80")
        with BackgroundServer(
            ranker,
            port=0,
            cache_capacity=0,
            max_queue_depth=None,
            faults=faults,
        ) as server:
            report = run_load_test(
                port=server.port,
                concurrency=4,
                total_requests=24,
                k=5,
                deadline_ms=30.0,
            )
        assert report.n_timeout > 0
        assert report.n_errors == 0

    def test_retried_requests_counted(self, ranker):
        faults = FaultInjector.parse("server.response:error:0:0.3")
        with BackgroundServer(
            ranker, port=0, cache_capacity=0, faults=faults
        ) as server:
            report = run_load_test(
                port=server.port,
                concurrency=4,
                total_requests=40,
                k=5,
                retries=6,
            )
        assert report.n_retried > 0
        assert report.n_errors == 0  # retries absorbed the injected 500s
