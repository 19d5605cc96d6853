"""Serving observability: latency histograms and service-wide counters.

The quantities a retrieval service is judged on — tail latency,
throughput, how well the micro-batcher is coalescing, how often the
cache saves a solve — are all cheap to track and expensive to retrofit.
:class:`ServiceMetrics` is the single sink every layer reports into
(server handlers record latencies, the scheduler records batch sizes and
engine stats, the cache keeps its own hit/miss counters and is merged at
snapshot time, finished request traces feed the per-stage histograms),
and ``GET /metrics`` is just its :meth:`snapshot` —
``GET /metrics?format=prometheus`` renders the same state through
:mod:`repro.obs.prometheus`.

Everything here is thread-safe: the scheduler's worker thread, the
asyncio event loop and the load generator's threads all report
concurrently.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

import numpy as np

from repro.core.search import SearchStats

#: Percentiles reported by every latency summary.
PERCENTILES = (50.0, 95.0, 99.0)

#: Fixed histogram bucket upper bounds (seconds) for the Prometheus
#: exposition: 100 µs to 10 s in a 1-2.5-5 ladder.  Lifetime-cumulative
#: bucket counts are kept next to the percentile window because a scrape
#: needs monotone counters, which a sliding window cannot provide.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class LatencyHistogram:
    """Latency percentiles over a bounded window, plus lifetime buckets.

    A ring buffer of the most recent ``capacity`` latencies: percentiles
    are exact over the window (``np.percentile`` on demand), memory is
    bounded, and a long-running server's numbers track current behaviour
    rather than averaging over its entire lifetime.  Alongside the
    window, a fixed-bucket lifetime histogram accumulates monotonically
    for Prometheus scrapes (:meth:`bucket_counts`).

    ``summary()`` reports **both** maxima: ``max_ms`` decays with the
    window (the worst latency among the last ``capacity`` observations),
    while ``lifetime_max_ms`` never decreases — so one ancient outlier
    is visible in the lifetime column without pinning the windowed
    number forever.
    """

    def __init__(self, capacity: int = 8192, buckets=DEFAULT_BUCKETS):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be strictly increasing")
        self._buffer = np.zeros(capacity, dtype=np.float64)
        self._next = 0
        self._count = 0
        self._total = 0
        self._sum = 0.0
        self._lifetime_max = 0.0
        #: A plain tuple, searched with ``bisect`` — :meth:`observe` sits
        #: on the traced hot path (one call per span per request), where
        #: scalar numpy dispatch costs more than the whole update.
        self._buckets = tuple(float(bound) for bound in buckets)
        #: Per-bucket (non-cumulative) lifetime counts; the trailing slot
        #: counts observations above the largest bound (the +Inf bucket).
        self._bucket_counts = [0] * (len(self._buckets) + 1)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one latency (in seconds)."""
        # Prometheus buckets are `le` (inclusive upper bounds).
        bucket = bisect_left(self._buckets, seconds)
        with self._lock:
            self._buffer[self._next] = seconds
            self._next = (self._next + 1) % self._buffer.shape[0]
            self._count = min(self._count + 1, self._buffer.shape[0])
            self._total += 1
            self._sum += seconds
            if seconds > self._lifetime_max:
                self._lifetime_max = seconds
            self._bucket_counts[bucket] += 1

    @property
    def count(self) -> int:
        """Total observations ever recorded (not just the window)."""
        with self._lock:
            return self._total

    @property
    def mean_seconds(self) -> float:
        """Lifetime mean latency in seconds; 0.0 when empty.

        Cheap (no window copy) — the admission controller reads this on
        every queue-delay estimate.
        """
        with self._lock:
            if self._total == 0:
                return 0.0
            return self._sum / self._total

    def percentile(self, q: float) -> float:
        """The q-th percentile (seconds) over the window; 0.0 when empty."""
        with self._lock:
            if self._count == 0:
                return 0.0
            return float(np.percentile(self._buffer[: self._count], q))

    def bucket_counts(self) -> tuple[tuple[float, ...], tuple[int, ...], int, float]:
        """``(bounds, per_bucket_counts, total_count, total_sum)`` — lifetime.

        ``per_bucket_counts[i]`` observations fell at or below
        ``bounds[i]`` (and above ``bounds[i-1]``); observations above the
        last bound are included only in ``total_count``, i.e. the +Inf
        bucket.  All values are monotone across calls, as the exposition
        format requires.
        """
        with self._lock:
            return (
                self._buckets,
                tuple(self._bucket_counts[:-1]),
                self._total,
                self._sum,
            )

    def summary(self) -> dict:
        """Counts plus mean/percentile/max latencies in milliseconds."""
        with self._lock:
            window = self._buffer[: self._count].copy()
            total, running_sum = self._total, self._sum
            lifetime_peak = self._lifetime_max
        out = {
            "count": int(total),
            "mean_ms": 1e3 * running_sum / total if total else 0.0,
            "max_ms": 1e3 * float(window.max()) if window.size else 0.0,
            "lifetime_max_ms": 1e3 * lifetime_peak,
        }
        for q in PERCENTILES:
            key = f"p{q:g}_ms"
            out[key] = 1e3 * float(np.percentile(window, q)) if window.size else 0.0
        return out


class ServiceMetrics:
    """Counters and histograms for one running service instance.

    Attributes are updated through the ``record_*`` methods (each takes
    the lock once); :meth:`snapshot` renders the whole state as a plain
    JSON-serialisable dict.
    """

    #: Window capacity of the per-stage histograms — smaller than the
    #: endpoint windows because there are O(stages) of them per server.
    STAGE_WINDOW = 2048

    def __init__(self):
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.requests_total = 0
        self.errors_total = 0
        self.batches_total = 0
        self.queries_batched = 0
        self.max_batch_size = 0
        self.engine_totals = SearchStats()
        self.latency = {
            "search": LatencyHistogram(),
            "search_oos": LatencyHistogram(),
        }
        #: Failed requests get their own histogram: their latencies are
        #: real signal (how long did callers wait to hear "no"?) but
        #: would poison the per-endpoint success percentiles — a fleet
        #: of fast 429s must not make ``search`` look fast.
        self.error_latency = LatencyHistogram()
        # Overload-management counters (admission control + deadlines).
        self.sheds_total = 0
        self.deadline_timeouts_total = 0
        self.expired_in_queue_total = 0
        self.faults_injected_total = 0
        #: Per-stage histograms keyed by span name ("scheduler.wait",
        #: "engine.dispatch", ...), created lazily as traces arrive.
        self._stages: dict[str, LatencyHistogram] = {}

    def record_request(self, endpoint: str, seconds: float, error: bool = False) -> None:
        """Count one finished request and record its wall-clock latency."""
        with self._lock:
            self.requests_total += 1
            if error:
                self.errors_total += 1
        if error:
            self.error_latency.observe(seconds)
            return
        histogram = self.latency.get(endpoint)
        if histogram is not None:
            histogram.observe(seconds)

    def record_shed(self) -> None:
        """Count one request refused by admission control (a 429)."""
        with self._lock:
            self.sheds_total += 1

    def record_timeout(self, queued: bool = False) -> None:
        """Count one deadline expiry (a 504).

        ``queued`` marks deadlines that lapsed while the request waited
        in the scheduler queue — the subset the overload benchmark
        asserts never reached the engine.
        """
        with self._lock:
            self.deadline_timeouts_total += 1
            if queued:
                self.expired_in_queue_total += 1

    def record_fault(self) -> None:
        """Count one artificially injected fault (chaos harness armed)."""
        with self._lock:
            self.faults_injected_total += 1

    def record_batch(self, batch_size: int, stats: SearchStats | None = None) -> None:
        """Count one engine dispatch of ``batch_size`` coalesced queries."""
        with self._lock:
            self.batches_total += 1
            self.queries_batched += batch_size
            self.max_batch_size = max(self.max_batch_size, batch_size)
            if stats is not None:
                self.engine_totals = SearchStats.aggregate(
                    (self.engine_totals, stats)
                )

    def record_stage(self, stage: str, seconds: float) -> None:
        """Feed one stage duration into its per-stage histogram."""
        # Hot path (one call per span per traced request): the dict read
        # is safe outside the lock, which is only taken to create a
        # stage's histogram the first time that stage is ever seen.
        histogram = self._stages.get(stage)
        if histogram is None:
            with self._lock:
                histogram = self._stages.setdefault(
                    stage, LatencyHistogram(capacity=self.STAGE_WINDOW)
                )
        histogram.observe(seconds)

    def record_trace(self, trace) -> None:
        """Attribute every span of a finished request trace to its stage.

        ``trace`` is a :class:`repro.obs.trace.Trace`; the root span (the
        whole request) is skipped — endpoint latency is already recorded
        by :meth:`record_request` — and shared spans attached to several
        coalesced requests are each request's own wait/dispatch view.
        """
        for name, seconds in trace.stage_durations()[1:]:
            self.record_stage(name, seconds)

    def stage_histograms(self) -> dict[str, LatencyHistogram]:
        """The live per-stage histograms (for the Prometheus renderer)."""
        with self._lock:
            return dict(self._stages)

    @property
    def mean_batch_size(self) -> float:
        """Queries per engine dispatch — the micro-batcher's coalescing rate."""
        with self._lock:
            if self.batches_total == 0:
                return 0.0
            return self.queries_batched / self.batches_total

    def snapshot(self) -> dict:
        """The full metrics document served by ``GET /metrics``."""
        with self._lock:
            uptime = time.time() - self.started_at
            requests, errors = self.requests_total, self.errors_total
            batches, queries = self.batches_total, self.queries_batched
            largest = self.max_batch_size
            engine = self.engine_totals
            stages = dict(self._stages)
            admission = {
                "sheds_total": self.sheds_total,
                "deadline_timeouts_total": self.deadline_timeouts_total,
                "expired_in_queue_total": self.expired_in_queue_total,
                "faults_injected_total": self.faults_injected_total,
            }
        return {
            "uptime_seconds": uptime,
            "requests_total": requests,
            "errors_total": errors,
            "throughput_rps": requests / uptime if uptime > 0 else 0.0,
            "batches_total": batches,
            "queries_batched": queries,
            "mean_batch_size": queries / batches if batches else 0.0,
            "max_batch_size": largest,
            "admission": admission,
            "latency": {
                name: histogram.summary()
                for name, histogram in self.latency.items()
            },
            "error_latency": self.error_latency.summary(),
            "stages": {
                name: histogram.summary() for name, histogram in sorted(stages.items())
            },
            "engine": {
                "clusters_pruned": int(engine.clusters_pruned),
                "clusters_scored": int(engine.clusters_scored),
                "nodes_scored": int(engine.nodes_scored),
                "bound_evaluations": int(engine.bound_evaluations),
                "prune_fraction": float(engine.prune_fraction),
            },
        }
