"""Stdlib-only asyncio HTTP server in front of the micro-batching scheduler.

A deliberately small HTTP/1.1 front end — request line + headers +
``Content-Length`` body, keep-alive connections, JSON in and out — built
on ``asyncio.start_server`` so the whole service (transport, scheduling,
engine thread) runs in one process with zero dependencies beyond the
library itself.

Endpoints
---------
``POST /search``
    Body ``{"query": <node id>, "k": 10}``.  Answers come from the
    scheduler (coalesced with whatever else is in flight) or the result
    cache; the response carries the ranked answers, the engine's pruning
    stats, the dispatch batch size and the measured latency.  There is
    no accuracy dial: a request naming ``accuracy`` or ``m`` (query
    string or body) is refused with 400 saying the dial was removed.
``POST /search_oos``
    Body ``{"feature": [<float>, ...], "k": 10}`` — §4.6.2 out-of-sample
    queries by feature vector, batched the same way.
``POST /insert`` / ``POST /delete`` / ``POST /rebuild``
    Write endpoints, available when the served engine is mutable (a
    :class:`repro.core.LiveEngine`; see ``repro serve --mutable``).
    ``/insert`` buffers a feature vector and answers with its permanent
    id; ``/delete`` tombstones a node; ``/rebuild`` starts (or joins) a
    background rebuild — pass ``{"wait": true}`` to block until the
    fresh epoch is swapped in.  Against a read-only engine all three
    answer ``403``.
``GET /healthz``
    Liveness: index identity and uptime.
``GET /metrics``
    Latency percentiles, throughput, queue depth, batch coalescing and
    cache hit rates (:mod:`repro.service.metrics`) — JSON by default,
    Prometheus text exposition with ``?format=prometheus``.
``GET /stats``
    Index statistics plus scheduler configuration and cumulative engine
    pruning counters.
``GET /debug/slow``
    The slow-query flight recorder: full span trees of the slowest (or
    threshold-exceeding) requests (:mod:`repro.obs.flight`; printed by
    ``repro slowlog``).

Tracing
-------
When tracing is on (the default), every ``/search`` / ``/search_oos``
request gets a :class:`repro.obs.trace.Trace`: the scheduler records the
queue wait (or the cache hit), the engine thread attaches the
dispatch tree with per-stage solve spans beneath it, and the finished
trace feeds the per-stage latency histograms and the flight recorder.
Responses carry the trace id in the ``X-Repro-Trace-Id`` header;
``?debug=trace`` returns the span tree inline in the response body.

Use :func:`run_server` from the CLI (blocks until SIGINT or SIGTERM) or
:class:`BackgroundServer` from tests/examples (serves from a daemon
thread, returns the bound port).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
from typing import Callable
from urllib.parse import parse_qs

import numpy as np

from repro.obs.flight import FlightRecorder
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import Trace
from repro.service.admission import (
    AdmissionController,
    DeadlineExceededError,
    SchedulerStoppedError,
    ShedLoadError,
)
from repro.service.cache import ResultCache
from repro.service.encoding import search_result_payload
from repro.service.faults import FaultInjector
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import MicroBatchScheduler, ReadOnlyEngineError

#: Largest accepted request body (a feature vector is ~16 bytes/dim as
#: JSON text; 8 MiB covers any sane dimensionality with huge headroom).
#: The per-server limit is tunable below this via ``--max-body-bytes``.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Default per-request deadline (``--request-timeout-ms``); individual
#: requests override it with ``?deadline_ms=`` / ``X-Repro-Deadline-Ms``
#: (``deadline_ms=0`` opts out entirely).
DEFAULT_REQUEST_TIMEOUT_MS = 30_000.0

#: Default admission-control threshold (``--max-queue-depth``).  Far
#: above anything a healthy scheduler accumulates (batches drain tens of
#: requests per dispatch), so it only engages under genuine overload.
DEFAULT_MAX_QUEUE_DEPTH = 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """An error with a dedicated HTTP status (message goes to the client)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class RetrievalServer:
    """One served index: scheduler + cache + metrics behind HTTP.

    Parameters
    ----------
    ranker:
        The :class:`repro.core.MogulRanker` answering queries (typically
        restored via ``MogulIndex.load`` + ``MogulRanker.from_index``).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    max_batch_size:
        The scheduler's only coalescing setting: the cap on queries per
        engine dispatch (1 = per-request).  Dispatch is work-conserving
        — a free lane launches at once and a busy one batches what
        queued meanwhile; nothing waits for company.
    cache_capacity:
        LRU entries for the result cache (0 disables caching).
    tracing:
        Per-request span tracing (on by default; the off path is
        benchmarked to be indistinguishable from never tracing).
    slowlog_capacity, slow_threshold_ms:
        The flight recorder's retention: the ``slowlog_capacity``
        slowest requests ever (default), or — with a threshold — the
        most recent requests at least that slow.  ``slowlog_capacity=0``
        disables the recorder.
    request_timeout_ms:
        Default per-request deadline for search endpoints; a request's
        own ``?deadline_ms=`` / ``X-Repro-Deadline-Ms`` overrides it
        (``0`` opts the request out).  ``None`` disables the default.
    max_queue_depth, max_queue_delay_ms:
        Admission control (see :mod:`repro.service.admission`):
        ``max_queue_depth`` is the shed threshold (``None`` disables
        admission — unbounded queues), and ``max_queue_delay_ms``
        optionally sheds on estimated queue delay as well as raw depth.
    max_body_bytes:
        Largest accepted request body (413 past it).
    faults:
        Optional armed :class:`repro.service.faults.FaultInjector`
        (chaos harness — tests/CI only; ``None`` in production).
    """

    def __init__(
        self,
        ranker,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_batch_size: int = 32,
        cache_capacity: int = 1024,
        tracing: bool = True,
        slowlog_capacity: int = 32,
        slow_threshold_ms: float | None = None,
        request_timeout_ms: float | None = DEFAULT_REQUEST_TIMEOUT_MS,
        max_queue_depth: int | None = DEFAULT_MAX_QUEUE_DEPTH,
        max_queue_delay_ms: float | None = None,
        max_body_bytes: int = MAX_BODY_BYTES,
        faults: FaultInjector | None = None,
    ):
        self.ranker = ranker
        self.host = host
        self.port = port
        self.tracing = tracing
        if request_timeout_ms is not None and request_timeout_ms <= 0:
            request_timeout_ms = None
        self.request_timeout_ms = request_timeout_ms
        if max_body_bytes <= 0:
            raise ValueError(f"max_body_bytes must be positive, got {max_body_bytes}")
        self.max_body_bytes = max_body_bytes
        self.metrics = ServiceMetrics()
        self.cache = ResultCache(cache_capacity)
        self.flight = FlightRecorder(
            capacity=slowlog_capacity, threshold_ms=slow_threshold_ms
        )
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            max_queue_delay_ms=max_queue_delay_ms,
            metrics=self.metrics,
        )
        self.faults = faults
        if faults is not None:
            faults.on_inject = self.metrics.record_fault
        self.scheduler = MicroBatchScheduler(
            ranker,
            max_batch_size=max_batch_size,
            cache=self.cache,
            metrics=self.metrics,
            admission=self.admission,
            faults=faults,
        )
        self._server: asyncio.AbstractServer | None = None
        self._started_at = time.time()
        # A mutable engine invalidates the result cache on every write
        # (insert/delete/rebuild all change what a correct answer is).
        if hasattr(ranker, "add_invalidation_listener"):
            self.cache.attach(ranker)

    @property
    def mutable(self) -> bool:
        """True when the served engine accepts writes."""
        return hasattr(self.ranker, "rebuild_async")

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> int:
        """Start the scheduler and bind the listening socket; returns the port."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        return self.port

    async def serve_forever(self) -> None:
        """Serve until cancelled (call after :meth:`start`)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the socket and shut the scheduler down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await _read_request(reader, self.max_body_bytes)
                if request is None:  # client closed between requests
                    break
                method, path, headers, body = request
                status, payload, extra_headers = await self._route(
                    method, path, headers, body
                )
                keep_alive = headers.get("connection", "keep-alive") != "close"
                if extra_headers.pop("Connection", None) == "close":
                    # The handler wants the connection gone after this
                    # response (e.g. 503 during shutdown).
                    keep_alive = False
                await _write_response(
                    writer, status, payload, keep_alive, extra_headers
                )
                if not keep_alive:
                    break
        except _HttpError as error:
            # Transport-level bad request (e.g. malformed Content-Length):
            # answer with the error document, then drop the connection —
            # the stream position is no longer trustworthy.
            try:
                await _write_response(
                    writer, error.status, {"error": str(error)}, keep_alive=False
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ValueError,  # StreamReader wraps an over-long line in ValueError
        ):
            pass  # client went away or sent garbage; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down; just close the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover - teardown races
                pass

    async def _route(
        self, method: str, path: str, request_headers: dict, body: bytes
    ) -> tuple[int, dict | str, dict]:
        """Dispatch one request; returns ``(status, payload, headers)``.

        ``payload`` is a dict (JSON response) or a pre-rendered string
        (the Prometheus exposition); ``headers`` carries per-response
        extras such as ``X-Repro-Trace-Id`` (a ``Connection: close``
        entry asks the connection handler to drop keep-alive).
        """
        started = time.perf_counter()
        endpoint, _, query_string = path.partition("?")
        params = parse_qs(query_string) if query_string else {}
        headers: dict[str, str] = {}
        try:
            if endpoint == "/healthz":
                _require(method, "GET")
                payload = self._healthz()
                self.metrics.record_request("healthz", time.perf_counter() - started)
                return 200, payload, headers
            if endpoint == "/metrics":
                _require(method, "GET")
                form = params.get("format", ["json"])[-1]
                if form == "prometheus":
                    exposition = self._prometheus()
                    self.metrics.record_request(
                        "metrics", time.perf_counter() - started
                    )
                    return 200, exposition, headers
                if form != "json":
                    raise _HttpError(
                        400, f"unknown metrics format {form!r} (json|prometheus)"
                    )
                payload = self._metrics()
                self.metrics.record_request("metrics", time.perf_counter() - started)
                return 200, payload, headers
            if endpoint == "/stats":
                _require(method, "GET")
                payload = self._stats()
                self.metrics.record_request("stats", time.perf_counter() - started)
                return 200, payload, headers
            if endpoint == "/debug/slow":
                _require(method, "GET")
                payload = self._slowlog()
                self.metrics.record_request(
                    "debug_slow", time.perf_counter() - started
                )
                return 200, payload, headers
            if endpoint == "/search":
                _require(method, "POST")
                payload = await self._search(
                    _parse_json(body), started, params, request_headers, headers
                )
                return 200, payload, headers
            if endpoint == "/search_oos":
                _require(method, "POST")
                payload = await self._search_oos(
                    _parse_json(body), started, params, request_headers, headers
                )
                return 200, payload, headers
            if endpoint == "/insert":
                _require(method, "POST")
                payload = await self._insert(_parse_json(body), started)
                return 200, payload, headers
            if endpoint == "/delete":
                _require(method, "POST")
                payload = await self._delete(_parse_json(body), started)
                return 200, payload, headers
            if endpoint == "/rebuild":
                _require(method, "POST")
                payload = await self._rebuild(_parse_json(body), started)
                return 200, payload, headers
            raise _HttpError(404, f"unknown path {endpoint}")
        except _HttpError as error:
            self._record_error(endpoint, started)
            return error.status, {"error": str(error)}, headers
        except ShedLoadError as error:
            # Admission control refused the request before it was
            # enqueued: 429, with drain-time guidance for the retry.
            self._record_error(endpoint, started)
            retry_after = max(1, int(math.ceil(error.retry_after_seconds)))
            headers["Retry-After"] = str(retry_after)
            return (
                429,
                {"error": str(error), "retry_after_seconds": retry_after},
                headers,
            )
        except DeadlineExceededError as error:
            self._record_error(endpoint, started)
            return 504, {"error": str(error)}, headers
        except SchedulerStoppedError as error:
            # Shutdown, not an engine bug: 503 and close the connection
            # so the client reconnects elsewhere (or later).
            self._record_error(endpoint, started)
            headers["Connection"] = "close"
            return 503, {"error": str(error)}, headers
        except ReadOnlyEngineError as error:
            self._record_error(endpoint, started)
            return 403, {"error": str(error)}, headers
        except (ValueError, KeyError, TypeError) as error:
            self._record_error(endpoint, started)
            return 400, {"error": str(error)}, headers
        except Exception as error:  # engine failure — report, keep serving
            self._record_error(endpoint, started)
            return 500, {"error": f"{type(error).__name__}: {error}"}, headers

    def _record_error(self, endpoint: str, started: float) -> None:
        """Count one failed request with its *actual* elapsed time.

        Failed requests used to be recorded with a latency of 0.0; real
        elapsed time matters — a 504 that waited out a 30 s deadline and
        a 400 rejected in microseconds are very different events — and
        it lands in the dedicated error histogram, not the success
        percentiles.
        """
        self.metrics.record_request(
            endpoint.lstrip("/"), time.perf_counter() - started, error=True
        )

    # -- endpoints --------------------------------------------------------

    def _start_trace(self, endpoint: str, **meta: object) -> Trace | None:
        """A fresh trace when tracing is on; ``None`` (and no cost) when off."""
        if not self.tracing:
            return None
        return Trace(endpoint, **meta)

    def _finish_trace(
        self,
        trace: Trace | None,
        endpoint: str,
        elapsed: float,
        params: dict,
        payload: dict,
        headers: dict,
    ) -> None:
        """Close a request trace and fan it out to every consumer.

        The finished trace feeds the per-stage latency histograms, is
        offered to the slow-query flight recorder, stamps the response
        with ``X-Repro-Trace-Id``, and — on ``?debug=trace`` — rides the
        response body as a span tree.
        """
        if trace is None:
            return
        trace.finish()
        headers["X-Repro-Trace-Id"] = trace.trace_id
        payload["trace_id"] = trace.trace_id
        self.metrics.record_trace(trace)
        rendered = trace.to_dict()
        self.flight.record(endpoint, elapsed, rendered)
        if "trace" in params.get("debug", ()):
            payload["trace"] = rendered

    def _deadline_at(
        self, started: float, params: dict, request_headers: dict
    ) -> float | None:
        """The request's ``perf_counter`` deadline, or ``None``.

        Precedence: ``?deadline_ms=`` query parameter, then the
        ``X-Repro-Deadline-Ms`` header, then the server default
        (``--request-timeout-ms``).  An explicit ``0`` opts the request
        out of any deadline; garbage is a 400, not a silent default —
        the caller believes a deadline is armed and it would not be.
        """
        raw = None
        if "deadline_ms" in params:
            raw = params["deadline_ms"][-1]
        elif "x-repro-deadline-ms" in request_headers:
            raw = request_headers["x-repro-deadline-ms"]
        if raw is None:
            deadline_ms = self.request_timeout_ms
        else:
            try:
                deadline_ms = float(raw)
            except ValueError:
                raise _HttpError(
                    400, f"invalid deadline_ms {raw!r}: must be milliseconds"
                ) from None
            if not math.isfinite(deadline_ms) or deadline_ms < 0:
                raise _HttpError(
                    400,
                    f"invalid deadline_ms {raw!r}: must be a finite "
                    "non-negative number of milliseconds",
                )
            if deadline_ms == 0:
                deadline_ms = None
        if deadline_ms is None:
            return None
        return started + deadline_ms / 1e3

    def _maybe_fault_response(self) -> None:
        """The ``server.response`` chaos site (a successful answer → 500)."""
        if self.faults is not None and self.faults.armed:
            self.faults.maybe("server.response")

    async def _search(
        self,
        document: dict,
        started: float,
        params: dict,
        request_headers: dict,
        headers: dict,
    ) -> dict:
        query = document.get("query")
        if not isinstance(query, int) or isinstance(query, bool):
            raise _HttpError(400, "body must carry an integer 'query' node id")
        k = _get_k(document)
        _reject_accuracy(document, params)
        deadline_at = self._deadline_at(started, params, request_headers)
        trace = self._start_trace("search", query=query, k=k)
        scheduled = await self.scheduler.search(
            query, k, trace=trace, deadline_at=deadline_at
        )
        self._maybe_fault_response()
        elapsed = time.perf_counter() - started
        self.metrics.record_request("search", elapsed)
        payload = search_result_payload(
            scheduled.result,
            k,
            scheduled.stats,
            query=query,
            cached=scheduled.cached,
            batch_size=scheduled.batch_size,
            latency_ms=1e3 * elapsed,
        )
        self._finish_trace(trace, "search", elapsed, params, payload, headers)
        return payload

    async def _search_oos(
        self,
        document: dict,
        started: float,
        params: dict,
        request_headers: dict,
        headers: dict,
    ) -> dict:
        feature = document.get("feature")
        if not isinstance(feature, list) or not feature:
            raise _HttpError(400, "body must carry a non-empty 'feature' list")
        vector = np.asarray(feature, dtype=np.float64)
        if vector.ndim != 1:
            raise _HttpError(400, "'feature' must be a flat list of numbers")
        k = _get_k(document)
        _reject_accuracy(document, params)
        deadline_at = self._deadline_at(started, params, request_headers)
        trace = self._start_trace("search_oos", dim=vector.shape[0], k=k)
        scheduled = await self.scheduler.search_out_of_sample(
            vector, k, trace=trace, deadline_at=deadline_at
        )
        self._maybe_fault_response()
        elapsed = time.perf_counter() - started
        self.metrics.record_request("search_oos", elapsed)
        payload = search_result_payload(
            scheduled.result,
            k,
            scheduled.stats,
            cached=scheduled.cached,
            batch_size=scheduled.batch_size,
            latency_ms=1e3 * elapsed,
        )
        self._finish_trace(trace, "search_oos", elapsed, params, payload, headers)
        return payload

    async def _insert(self, document: dict, started: float) -> dict:
        feature = document.get("feature")
        if not isinstance(feature, list) or not feature:
            raise _HttpError(400, "body must carry a non-empty 'feature' list")
        vector = np.asarray(feature, dtype=np.float64)
        if vector.ndim != 1:
            raise _HttpError(400, "'feature' must be a flat list of numbers")
        new_id = await self.scheduler.insert(vector)
        elapsed = time.perf_counter() - started
        self.metrics.record_request("insert", elapsed)
        engine = self.ranker
        return {
            "id": new_id,
            "epoch": engine.epoch,
            "n_pending": engine.n_pending,
            "n_live": engine.n_live,
            "rebuild_in_flight": engine.rebuild_in_flight,
            "latency_ms": 1e3 * elapsed,
        }

    async def _delete(self, document: dict, started: float) -> dict:
        node = document.get("node")
        if not isinstance(node, int) or isinstance(node, bool):
            raise _HttpError(400, "body must carry an integer 'node' id")
        await self.scheduler.delete(node)
        elapsed = time.perf_counter() - started
        self.metrics.record_request("delete", elapsed)
        engine = self.ranker
        return {
            "node": node,
            "epoch": engine.epoch,
            "n_live": engine.n_live,
            "latency_ms": 1e3 * elapsed,
        }

    async def _rebuild(self, document: dict, started: float) -> dict:
        wait = document.get("wait", False)
        if not isinstance(wait, bool):
            raise _HttpError(400, "'wait' must be a boolean")
        epoch_before = self.ranker.epoch if self.mutable else None
        ticket = await self.scheduler.trigger_rebuild(wait=wait)
        elapsed = time.perf_counter() - started
        self.metrics.record_request("rebuild", elapsed)
        payload = {
            "epoch_before": epoch_before,
            "in_flight": not ticket.done,
            "latency_ms": 1e3 * elapsed,
        }
        if ticket.done and ticket.error is None:
            payload["epoch"] = ticket.epoch
            payload["build_seconds"] = ticket.build_seconds
            payload["swap_seconds"] = ticket.swap_seconds
        return payload

    def _healthz(self) -> dict:
        payload = {
            "status": "ok",
            "n_nodes": self.ranker.n_nodes,
            "method": self.ranker.name,
            "uptime_seconds": time.time() - self._started_at,
            "mutable": self.mutable,
        }
        if self.mutable:
            payload["epoch"] = self.ranker.epoch
        return payload

    def _metrics(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["queue_depth"] = self.scheduler.queue_depth
        snapshot["engine_wait_seconds"] = self.scheduler.engine_wait_seconds
        snapshot["cache"] = self.cache.stats()
        snapshot["tracing"] = self.tracing
        snapshot["slowlog"] = self.flight.stats()
        residency = self._residency_stats()
        if residency is not None:
            snapshot["residency"] = residency
        return snapshot

    def _prometheus(self) -> str:
        """The ``?format=prometheus`` exposition (same state, second view)."""
        return render_prometheus(
            self.metrics,
            queue_depth=self.scheduler.queue_depth,
            cache_stats=self.cache.stats(),
            slowlog_stats=self.flight.stats(),
            engine_wait_seconds=self.scheduler.engine_wait_seconds,
            residency_stats=self._residency_stats(),
        )

    def _slowlog(self) -> dict:
        """The flight recorder's retained traces (``GET /debug/slow``)."""
        stats = self.flight.stats()
        stats["tracing"] = self.tracing
        return {"slowlog": stats, "entries": self.flight.snapshot()}

    def _residency_stats(self) -> dict | None:
        """Shard-residency accounting of a sharded index (else ``None``).

        Duck-typed: the engine wrapper chain (live) forwards ``index``,
        and only
        :class:`repro.core.sharded.ShardedMogulIndex` exposes
        ``residency_snapshot``.
        """
        index = getattr(self.ranker, "index", None)
        snapshot = getattr(index, "residency_snapshot", None)
        if snapshot is None:
            return None
        return snapshot()

    def _stats(self) -> dict:
        index = self.ranker.index
        payload = {
            "index": {
                "n_nodes": index.n_nodes,
                "n_clusters": index.n_clusters,
                "alpha": index.alpha,
                "factorization": index.factorization,
                "factor_nnz": int(index.factor_nnz),
            },
            "scheduler": self.scheduler.snapshot(),
            "engine_totals": self.metrics.snapshot()["engine"],
        }
        layout = getattr(index, "layout", None)
        if layout is not None:
            # Sharded engine: surface the two-level hierarchy so /stats
            # shows what the scatter-gather router is fanning out over.
            payload["index"]["shards"] = {
                "n_shards": index.n_shards,
                "loaded": index.shards_loaded,
                "border_size": index.border_size,
                "spans": [list(span) for span in layout.spans],
                "nnz": [
                    index.shard_nnz(s) for s in range(index.n_shards)
                ],
            }
            residency = self._residency_stats()
            if residency is not None:
                payload["index"]["residency"] = residency
        if index.profile is not None:
            # Per-stage build cost and, for a loaded index, the measured
            # startup (load) time — the precompute side of the story.
            payload["build_profile"] = index.profile.to_dict()
        if self.mutable:
            # Mutation accounting: epoch, buffer/tombstone sizes, write
            # totals and the swap/stall instrumentation.
            payload["live"] = self.ranker.mutation_counts()
        return payload


# -- HTTP plumbing ---------------------------------------------------------


async def _read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> tuple[str, str, dict, bytes] | None:
    """Parse one HTTP/1.1 request; ``None`` when the peer closed cleanly."""
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, path, _version = request_line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError):
        raise asyncio.IncompleteReadError(request_line, None) from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip().lower()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "invalid Content-Length header") from None
    if length < 0:
        raise _HttpError(400, "invalid Content-Length header")
    if length > max_body_bytes:
        raise _HttpError(
            413,
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte limit",
        )
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | str,
    keep_alive: bool,
    headers: dict | None = None,
) -> None:
    if isinstance(payload, str):
        # Pre-rendered text (the Prometheus exposition); version 0.0.4
        # is the text-format identifier scrapers negotiate on.
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        f"\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise _HttpError(405, f"method {method} not allowed (use {expected})")


def _parse_json(body: bytes) -> dict:
    try:
        document = json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise _HttpError(400, f"request body is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return document


def _get_k(document: dict) -> int:
    k = document.get("k", 10)
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        raise _HttpError(400, f"'k' must be a positive integer, got {k!r}")
    return k


def _reject_accuracy(document: dict, params: dict) -> None:
    """400 for a request still naming the removed accuracy dial."""
    for name in ("accuracy", "m"):
        if name in params or name in document:
            raise _HttpError(
                400,
                f"'{name}' is not supported: the accuracy dial was removed; "
                "drop the parameter to get the exact top-k answer",
            )


# -- entry points ----------------------------------------------------------


def run_server(
    ranker,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_batch_size: int = 32,
    cache_capacity: int = 1024,
    tracing: bool = True,
    slowlog_capacity: int = 32,
    slow_threshold_ms: float | None = None,
    request_timeout_ms: float | None = DEFAULT_REQUEST_TIMEOUT_MS,
    max_queue_depth: int | None = DEFAULT_MAX_QUEUE_DEPTH,
    max_queue_delay_ms: float | None = None,
    max_body_bytes: int = MAX_BODY_BYTES,
    faults: FaultInjector | None = None,
    announce: Callable[[str], None] = print,
) -> None:
    """Serve ``ranker`` until SIGINT or SIGTERM (the CLI's blocking entry point).

    Main thread only (signal handlers are installed on the event loop);
    tests and embedders use :class:`BackgroundServer`.
    """
    server = RetrievalServer(
        ranker,
        host=host,
        port=port,
        max_batch_size=max_batch_size,
        cache_capacity=cache_capacity,
        tracing=tracing,
        slowlog_capacity=slowlog_capacity,
        slow_threshold_ms=slow_threshold_ms,
        request_timeout_ms=request_timeout_ms,
        max_queue_depth=max_queue_depth,
        max_queue_delay_ms=max_queue_delay_ms,
        max_body_bytes=max_body_bytes,
        faults=faults,
    )
    if faults is not None and faults.armed:
        announce(f"chaos harness ARMED: {faults.snapshot()['rules']}")

    async def _main() -> None:
        # SIGINT and SIGTERM both take the graceful path below, and the
        # caller's own cleanup (the CLI persists a mutable engine's live
        # state) runs once this returns.  Installed explicitly because a
        # background job of a non-interactive shell starts with SIGINT
        # ignored, and SIGTERM's default action skips all cleanup.
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        try:
            # The listening socket accepts connections from here on.
            bound = await server.start()
            announce(
                f"serving {ranker.name} index of {ranker.n_nodes} nodes on "
                f"http://{server.host}:{bound} "
                f"(max_batch_size={max_batch_size}, one engine thread)"
            )
            await stopping.wait()
            announce("shutting down")
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        announce("shutting down")


class BackgroundServer:
    """A :class:`RetrievalServer` running on a daemon thread.

    For tests, examples and benchmarks: construction returns only after
    the socket is bound (so :attr:`port` is usable immediately), and
    :meth:`stop` tears the loop down cleanly.

    Example
    -------
    >>> background = BackgroundServer(ranker, port=0)   # doctest: +SKIP
    >>> client = RetrievalClient(port=background.port)  # doctest: +SKIP
    >>> background.stop()                               # doctest: +SKIP
    """

    def __init__(self, ranker, **server_kwargs):
        self.server = RetrievalServer(ranker, **server_kwargs)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="retrieval-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError(
                f"server thread failed to signal readiness within 30s "
                f"(requested bind {self.server.host}:{self.server.port}); "
                "the thread is still running but never bound its socket"
            )
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start on "
                f"{self.server.host}:{self.server.port}: "
                f"{type(self._startup_error).__name__}: {self._startup_error}"
            ) from self._startup_error

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def _run(self) -> None:
        async def _main() -> None:
            try:
                await self.server.start()
            except BaseException as error:
                self._startup_error = error
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            try:
                await self.server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.server.stop()

        asyncio.run(_main())

    def stop(self) -> None:
        """Stop serving and join the thread.

        Idempotent and exception-safe: a second call (or a call racing
        the loop's own teardown — e.g. while a mutable engine's rebuild
        worker is still mid-flight) is a no-op rather than an error.
        The engine itself is left untouched; whoever constructed it owns
        any in-flight background rebuild (``LiveEngine.close``).
        """
        with self._stop_lock:
            first = not self._stopped
            self._stopped = True
        if first:
            loop = self._loop
            if loop is not None and loop.is_running():
                # Cancelling every task unwinds serve_forever and
                # asyncio.run finalises the loop.
                def _cancel_all() -> None:
                    for task in asyncio.all_tasks():
                        task.cancel()

                try:
                    loop.call_soon_threadsafe(_cancel_all)
                except RuntimeError:
                    pass  # loop closed between the check and the call
        self._thread.join(timeout=30)
        if self._thread.is_alive():  # pragma: no cover - hang guard
            raise RuntimeError(
                f"server thread on {self.server.host}:{self.server.port} "
                "failed to stop within 30s (event loop did not unwind; "
                "an engine call may be wedged)"
            )

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
