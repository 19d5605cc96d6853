"""HTTP client for the retrieval service, plus a concurrent load generator.

:class:`RetrievalClient` wraps one keep-alive ``http.client`` connection
(stdlib only, like the server).  :func:`run_load_test` drives N clients
from N threads in a closed loop — each worker issues its next request
the moment the previous answer lands, the standard way to load a
micro-batching server because concurrency in flight is exactly what the
scheduler coalesces — and reports throughput, latency percentiles and
correctness counters.

Resilience
----------
The client retries transient failures with **exponential backoff and
full jitter** (delay drawn uniformly from ``[0, min(cap, base·2^n)]`` —
the jitter de-synchronises a fleet of retrying clients so they don't
re-stampede the server in lockstep), honours the server's
``Retry-After`` header on 429/503, and spends retries from a **retry
budget** (a token bucket refilled by successful requests) so a hard-down
server gets a bounded amount of retry traffic, not an amplified storm.

What is safe to retry is decided per request:

* **429 (shed)** and **503 (shutting down)** — always retryable, even
  for mutations: the server guarantees the request was never admitted.
* **Connection errors, 500, 504** — retryable only for idempotent
  requests (searches and GETs).  A mutation whose connection died
  mid-flight may or may not have been applied; blindly resending it
  could double-insert, so the error propagates to the caller, who owns
  the dedup decision.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.service.metrics import LatencyHistogram
from repro.utils.rng import SeedLike, spawn_rngs

#: Statuses safe to retry for ANY request: the server guarantees the
#: request was not admitted (429 shed, 503 shutdown).
ALWAYS_RETRYABLE = frozenset({429, 503})

#: Statuses additionally retryable for idempotent requests only.
IDEMPOTENT_RETRYABLE = frozenset({500, 502, 504})


class RequestFailedError(RuntimeError):
    """An HTTP request answered with an error status.

    A ``RuntimeError`` subclass (the client's historical contract) that
    additionally carries the status code and decoded body, so callers —
    the load generator above all — can tell a shed (429) from a deadline
    expiry (504) from a genuine failure.
    """

    def __init__(self, message: str, status: int, payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload if payload is not None else {}


class RetrievalClient:
    """A keep-alive JSON client for one server.

    Not thread-safe (one underlying connection); give each thread its
    own instance, as :func:`run_load_test` does.

    Parameters
    ----------
    retries:
        Budgeted retry attempts per request for retryable failures
        (0 = fail fast, the default).  Idempotent requests additionally
        get one free reconnect when a stale keep-alive socket drops.
    backoff_ms, backoff_cap_ms:
        Exponential backoff base and cap; the actual delay is full
        jitter (uniform in ``[0, min(cap, base·2^attempt)]``), unless
        the server sent a valid ``Retry-After``, which wins.
    retry_budget:
        Token-bucket size bounding total retry spend: each retry costs
        1 token, each successful request refills 0.1 (up to the cap).
        An unhealthy server drains the bucket and the client fails fast
        instead of amplifying the outage.
    deadline_ms:
        Default per-request deadline forwarded as
        ``X-Repro-Deadline-Ms`` on searches (per-call override wins;
        ``None`` defers to the server default).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        retries: int = 0,
        backoff_ms: float = 50.0,
        backoff_cap_ms: float = 2000.0,
        retry_budget: float = 32.0,
        deadline_ms: float | None = None,
        seed: int = 0,
    ):
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff_ms = backoff_ms
        self.backoff_cap_ms = backoff_cap_ms
        self.deadline_ms = deadline_ms
        self._budget_cap = float(retry_budget)
        self._budget = float(retry_budget)
        self._rng = random.Random(seed)
        #: Client-side observability: how often the retry machinery and
        #: the server's overload responses actually engaged.
        self.counters = {
            "retries": 0,
            "sheds_seen": 0,
            "timeouts_seen": 0,
        }
        self._connection = http.client.HTTPConnection(host, port, timeout=timeout)

    # -- raw requests ----------------------------------------------------

    def _send_once(
        self, method: str, path: str, body: str | None, headers: dict, idempotent: bool
    ) -> tuple[int, dict, str]:
        """One wire attempt (plus the stale-keep-alive reconnect)."""
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            text = response.read().decode("utf-8")
        except (http.client.HTTPException, ConnectionError):
            # A dropped keep-alive socket: for idempotent requests one
            # immediate reconnect is safe and free.  A mutation may have
            # been applied before the drop — never resend it blindly.
            self._connection.close()
            if not idempotent:
                raise
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            text = response.read().decode("utf-8")
        return response.status, dict(response.getheaders()), text

    def _retry_delay(self, attempt: int, response_headers: dict | None) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based).

        A valid ``Retry-After`` wins (clamped to 10 s); an invalid one
        is ignored — a hostile or buggy server must not steer the
        client into sleeping forever or crashing.  Otherwise full
        jitter on an exponential schedule.
        """
        for name, value in (response_headers or {}).items():
            if name.lower() == "retry-after":
                try:
                    seconds = float(value)
                except (TypeError, ValueError):
                    break  # invalid header: fall through to backoff
                if seconds >= 0:
                    return min(seconds, 10.0)
                break
        cap = self.backoff_cap_ms / 1e3
        base = self.backoff_ms / 1e3
        return self._rng.uniform(0.0, min(cap, base * (2**attempt)))

    def _take_retry_token(self) -> bool:
        if self._budget < 1.0:
            return False
        self._budget -= 1.0
        self.counters["retries"] += 1
        return True

    def _raw(
        self,
        method: str,
        path: str,
        document: dict | None = None,
        idempotent: bool = True,
        extra_headers: dict | None = None,
    ) -> tuple[int, dict, str]:
        """One request; returns ``(status, response_headers, body_text)``."""
        body = None if document is None else json.dumps(document)
        headers = {"Content-Type": "application/json"} if body else {}
        if extra_headers:
            headers.update(extra_headers)
        attempt = 0
        while True:
            try:
                status, response_headers, text = self._send_once(
                    method, path, body, headers, idempotent
                )
            except (http.client.HTTPException, ConnectionError):
                self._connection.close()
                if not idempotent or attempt >= self.retries:
                    raise
                if not self._take_retry_token():
                    raise
                time.sleep(self._retry_delay(attempt, None))
                attempt += 1
                continue
            if status == 429:
                self.counters["sheds_seen"] += 1
            elif status == 504:
                self.counters["timeouts_seen"] += 1
            retryable = status in ALWAYS_RETRYABLE or (
                idempotent and status in IDEMPOTENT_RETRYABLE
            )
            if retryable and attempt < self.retries and self._take_retry_token():
                time.sleep(self._retry_delay(attempt, response_headers))
                attempt += 1
                continue
            if status < 400:
                # Successes slowly refill the retry budget.
                self._budget = min(self._budget_cap, self._budget + 0.1)
            return status, response_headers, text

    def _request(
        self,
        method: str,
        path: str,
        document: dict | None = None,
        idempotent: bool = True,
        extra_headers: dict | None = None,
    ) -> dict:
        status, _, text = self._raw(
            method, path, document, idempotent=idempotent, extra_headers=extra_headers
        )
        payload = json.loads(text)
        if status >= 400:
            raise RequestFailedError(
                f"{method} {path} -> {status}: {payload.get('error', payload)}",
                status=status,
                payload=payload if isinstance(payload, dict) else {},
            )
        return payload

    def _deadline_header(self, deadline_ms: float | None) -> dict | None:
        effective = self.deadline_ms if deadline_ms is None else deadline_ms
        if effective is None:
            return None
        return {"X-Repro-Deadline-Ms": f"{float(effective):g}"}

    # -- endpoints -------------------------------------------------------

    def search(
        self,
        query: int,
        k: int = 10,
        debug_trace: bool = False,
        deadline_ms: float | None = None,
    ) -> dict:
        """Top-k for an in-database node id.

        ``debug_trace=True`` asks a tracing-enabled server for the
        request's span tree inline (the ``trace`` key of the response).
        ``deadline_ms`` rides the ``X-Repro-Deadline-Ms`` header
        (``0`` opts out of the server's default deadline).
        """
        path = "/search?debug=trace" if debug_trace else "/search"
        return self._request(
            "POST",
            path,
            {"query": int(query), "k": int(k)},
            extra_headers=self._deadline_header(deadline_ms),
        )

    def search_out_of_sample(
        self, feature, k: int = 10, deadline_ms: float | None = None
    ) -> dict:
        """Top-k for a feature vector outside the database."""
        vector = [float(value) for value in np.asarray(feature).ravel()]
        return self._request(
            "POST",
            "/search_oos",
            {"feature": vector, "k": int(k)},
            extra_headers=self._deadline_header(deadline_ms),
        )

    def insert(self, feature) -> dict:
        """Insert a feature vector; the response carries its permanent id.

        Requires a mutable server (``repro serve --mutable``); a
        read-only deployment answers 403.  Not auto-retried on
        connection errors or 5xx (it may already have been applied);
        429/503 are retried — the server never admitted the request.
        """
        vector = [float(value) for value in np.asarray(feature).ravel()]
        return self._request(
            "POST", "/insert", {"feature": vector}, idempotent=False
        )

    def delete(self, node: int) -> dict:
        """Tombstone a node (mutable servers only; see :meth:`insert`
        for the retry stance on mutations)."""
        return self._request("POST", "/delete", {"node": int(node)}, idempotent=False)

    def rebuild(self, wait: bool = False) -> dict:
        """Start (or join) a background rebuild; ``wait=True`` blocks
        until the fresh epoch is swapped in (mutable servers only)."""
        return self._request(
            "POST", "/rebuild", {"wait": bool(wait)}, idempotent=False
        )

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def prometheus_metrics(self) -> str:
        """The text exposition from ``GET /metrics?format=prometheus``."""
        status, _, text = self._raw("GET", "/metrics?format=prometheus")
        if status >= 400:
            raise RequestFailedError(
                f"GET /metrics?format=prometheus -> {status}", status=status
            )
        return text

    def slowlog(self) -> dict:
        """The slow-query flight recorder (``GET /debug/slow``)."""
        return self._request("GET", "/debug/slow")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "RetrievalClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def wait_until_healthy(
    host: str, port: int, timeout_seconds: float = 15.0
) -> dict:
    """Poll ``GET /healthz`` until the server answers; returns the document.

    Lets scripts start the server as a background process and call the
    load generator immediately without racing the bind.
    """
    deadline = time.time() + timeout_seconds
    last_error: Exception | None = None
    while time.time() < deadline:
        try:
            with RetrievalClient(host, port, timeout=2.0) as client:
                return client.healthz()
        except (OSError, RuntimeError, json.JSONDecodeError) as error:
            last_error = error
            time.sleep(0.2)
    raise TimeoutError(
        f"server at {host}:{port} not healthy after {timeout_seconds}s: {last_error}"
    )


@dataclass
class LoadReport:
    """Outcome of one load-test run."""

    n_requests: int
    n_errors: int
    n_empty: int
    elapsed_seconds: float
    concurrency: int
    n_shed: int = 0
    n_timeout: int = 0
    n_retried: int = 0
    latency: LatencyHistogram = field(repr=False, default_factory=LatencyHistogram)
    server_metrics: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_requests / self.elapsed_seconds

    @property
    def goodput_rps(self) -> float:
        """Successfully *answered* requests per second (sheds and
        deadline expiries excluded — the overload benchmark's currency)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        completed = self.n_requests - self.n_errors - self.n_shed - self.n_timeout
        return max(0, completed) / self.elapsed_seconds

    @property
    def ok(self) -> bool:
        """True when every request succeeded with a non-empty answer.

        Sheds and deadline expiries are *policy working as
        configured*, not failures; they are reported separately and do
        not clear ``ok``.
        """
        return self.n_requests > 0 and self.n_errors == 0 and self.n_empty == 0

    def to_dict(self) -> dict:
        """JSON-serialisable summary (for BENCH files and the CLI)."""
        return {
            "n_requests": self.n_requests,
            "n_errors": self.n_errors,
            "n_empty": self.n_empty,
            "n_shed": self.n_shed,
            "n_timeout": self.n_timeout,
            "n_retried": self.n_retried,
            "elapsed_seconds": self.elapsed_seconds,
            "concurrency": self.concurrency,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "latency": self.latency.summary(),
            "server": self.server_metrics,
        }

    def to_text(self) -> str:
        """Human-readable summary block."""
        latency = self.latency.summary()
        lines = [
            f"requests:    {self.n_requests} "
            f"({self.n_errors} errors, {self.n_empty} empty)",
            f"concurrency: {self.concurrency}",
            f"elapsed:     {self.elapsed_seconds:.2f}s",
            f"throughput:  {self.throughput_rps:.1f} req/s",
            f"latency:     p50 {latency['p50_ms']:.2f} ms   "
            f"p95 {latency['p95_ms']:.2f} ms   p99 {latency['p99_ms']:.2f} ms",
        ]
        if self.n_shed or self.n_timeout or self.n_retried:
            lines.append(
                f"overload:    {self.n_shed} shed   "
                f"{self.n_timeout} deadline-expired   "
                f"{self.n_retried} retries"
            )
        batching = self.server_metrics.get("mean_batch_size")
        if batching:
            lines.append(f"server mean batch size: {batching:.2f}")
        cache = self.server_metrics.get("cache", {})
        if cache.get("hits", 0) or cache.get("misses", 0):
            lines.append(f"server cache hit rate:  {cache.get('hit_rate', 0.0):.2f}")
        return "\n".join(lines)


def run_load_test(
    host: str = "127.0.0.1",
    port: int = 8080,
    concurrency: int = 8,
    total_requests: int | None = None,
    duration_seconds: float | None = None,
    k: int = 10,
    seed: SeedLike = 0,
    check_against=None,
    deadline_ms: float | None = None,
    retries: int = 0,
) -> LoadReport:
    """Drive the server with ``concurrency`` closed-loop workers.

    Exactly one of ``total_requests`` (split across workers) or
    ``duration_seconds`` (each worker loops until the clock runs out)
    bounds the run.  Query node ids are sampled uniformly (per-worker
    seeded RNG) from the node count reported by ``GET /healthz``.

    ``check_against`` optionally takes a callable ``(query, k) ->
    TopKResult`` (e.g. a local ``ranker.top_k``); every response is then
    verified against it and mismatches count as errors.

    ``deadline_ms`` and ``retries`` configure each worker's client, and
    the report breaks out shed / deadline-expired / retried
    counts so overload policies are visible, not folded into "errors".
    """
    if concurrency <= 0:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    if (total_requests is None) == (duration_seconds is None):
        raise ValueError("specify exactly one of total_requests / duration_seconds")
    health = wait_until_healthy(host, port)
    n_nodes = int(health["n_nodes"])

    latency = LatencyHistogram()
    counters = {
        "requests": 0,
        "errors": 0,
        "empty": 0,
        "shed": 0,
        "timeout": 0,
        "retried": 0,
    }
    counters_lock = threading.Lock()
    stop_at = (
        time.perf_counter() + duration_seconds
        if duration_seconds is not None
        else None
    )

    worker_rngs = spawn_rngs(seed, concurrency)

    def worker(worker_id: int, budget: int | None) -> None:
        rng = worker_rngs[worker_id]
        done = 0
        with RetrievalClient(
            host, port, retries=retries, deadline_ms=deadline_ms, seed=worker_id
        ) as client:
            while budget is None or done < budget:
                if stop_at is not None and time.perf_counter() >= stop_at:
                    break
                query = int(rng.integers(n_nodes))
                started = time.perf_counter()
                error = empty = shed = timeout = False
                try:
                    payload = client.search(query, k)
                    if not payload.get("indices"):
                        empty = True
                    elif check_against is not None:
                        expected = check_against(query, k)
                        got = np.asarray(payload["indices"], dtype=np.int64)
                        if not (
                            np.array_equal(got, expected.indices)
                            and np.allclose(
                                payload["scores"], expected.scores, atol=1e-8
                            )
                        ):
                            error = True
                except RequestFailedError as fail:
                    if fail.status == 429:
                        shed = True
                    elif fail.status == 504:
                        timeout = True
                    else:
                        error = True
                except Exception:
                    error = True
                else:
                    latency.observe(time.perf_counter() - started)
                done += 1
                with counters_lock:
                    counters["requests"] += 1
                    counters["errors"] += int(error)
                    counters["empty"] += int(empty)
                    counters["shed"] += int(shed)
                    counters["timeout"] += int(timeout)
            with counters_lock:
                counters["retried"] += client.counters["retries"]

    budgets: list[int | None]
    if total_requests is not None:
        base, remainder = divmod(total_requests, concurrency)
        budgets = [base + (1 if i < remainder else 0) for i in range(concurrency)]
    else:
        budgets = [None] * concurrency
    threads = [
        threading.Thread(target=worker, args=(i, budgets[i]), daemon=True)
        for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    try:
        with RetrievalClient(host, port) as client:
            server_metrics = client.metrics()
    except Exception:  # metrics are best-effort decoration
        server_metrics = {}
    return LoadReport(
        n_requests=counters["requests"],
        n_errors=counters["errors"],
        n_empty=counters["empty"],
        n_shed=counters["shed"],
        n_timeout=counters["timeout"],
        n_retried=counters["retried"],
        elapsed_seconds=elapsed,
        concurrency=concurrency,
        latency=latency,
        server_metrics=server_metrics,
    )
