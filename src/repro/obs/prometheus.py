"""Prometheus text exposition for the serving stack.

``GET /metrics?format=prometheus`` renders the service's counters,
gauges and fixed-bucket histograms in the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ so any
standard scraper can consume the service without a sidecar exporter.
The JSON document served by plain ``GET /metrics`` is unchanged; this
module is a second *view* over the same
:class:`repro.service.metrics.ServiceMetrics` state, not a second sink.

Histograms are exact: :class:`~repro.service.metrics.LatencyHistogram`
maintains lifetime fixed-bucket counts next to its percentile window, so
the exposed ``_bucket`` series are cumulative and monotone as Prometheus
requires (the windowed percentiles would not be — a scrape-to-scrape
decrease is a protocol violation).
"""

from __future__ import annotations

_HELP = {
    "repro_uptime_seconds": ("gauge", "Seconds since the server started."),
    "repro_requests_total": ("counter", "Requests answered, all endpoints."),
    "repro_errors_total": ("counter", "Requests answered with an error status."),
    "repro_batches_total": ("counter", "Engine dispatches (coalesced batches)."),
    "repro_queries_batched_total": (
        "counter",
        "Queries answered through batched dispatches.",
    ),
    "repro_max_batch_size": ("gauge", "Largest batch dispatched so far."),
    "repro_queue_depth": ("gauge", "Requests currently queued in the scheduler."),
    "repro_query_workers": ("gauge", "Size of the engine worker pool."),
    "repro_workers_busy": (
        "gauge",
        "Engine workers currently inside a solve.",
    ),
    "repro_engine_wait_seconds_total": (
        "counter",
        "Seconds dispatched batches spent waiting for a free engine worker.",
    ),
    "repro_cache_hits_total": ("counter", "Result-cache hits."),
    "repro_cache_misses_total": ("counter", "Result-cache misses."),
    "repro_cache_invalidations_total": (
        "counter",
        "Whole-cache invalidations (index mutations).",
    ),
    "repro_cache_size": ("gauge", "Entries currently cached."),
    "repro_engine_clusters_pruned_total": (
        "counter",
        "Clusters pruned by the bound test across all served queries.",
    ),
    "repro_engine_clusters_scored_total": (
        "counter",
        "Clusters back-substituted across all served queries.",
    ),
    "repro_engine_nodes_scored_total": (
        "counter",
        "Nodes scored across all served queries.",
    ),
    "repro_engine_bound_evaluations_total": (
        "counter",
        "Cluster bound evaluations across all served queries.",
    ),
    "repro_slowlog_recorded_total": (
        "counter",
        "Requests retained by the slow-query flight recorder.",
    ),
    "repro_sheds_total": (
        "counter",
        "Requests refused by admission control (429 Too Many Requests).",
    ),
    "repro_deadline_timeouts_total": (
        "counter",
        "Requests whose deadline expired before an answer (504).",
    ),
    "repro_deadline_expired_in_queue_total": (
        "counter",
        "Deadline expiries caught at batch assembly (never dispatched).",
    ),
    "repro_faults_injected_total": (
        "counter",
        "Artificial faults injected by the armed chaos harness.",
    ),
    "repro_request_latency_seconds": (
        "histogram",
        "Request latency by endpoint.",
    ),
    "repro_error_latency_seconds": (
        "histogram",
        "Latency of requests that ended in an error status.",
    ),
    "repro_stage_duration_seconds": (
        "histogram",
        "Per-stage time attribution from request traces.",
    ),
    "repro_resident_bytes": (
        "gauge",
        "Evictable shard-state bytes currently resident in memory.",
    ),
    "repro_memory_budget_bytes": (
        "gauge",
        "Configured shard-residency budget in bytes (0 = accounting only).",
    ),
    "repro_pinned_bytes": (
        "gauge",
        "Resident bytes pinned by in-flight scans (ineligible for eviction).",
    ),
    "repro_shards_resident": (
        "gauge",
        "Shards whose heavy state is currently materialized.",
    ),
    "repro_bounds_bytes": (
        "gauge",
        "Always-resident per-shard bound-table bytes (never evicted).",
    ),
    "repro_shard_loads_total": (
        "counter",
        "Shard-state materializations, cold loads and re-faults alike.",
    ),
    "repro_shard_faults_total": (
        "counter",
        "Shard-state re-materializations after an eviction.",
    ),
    "repro_shard_evictions_total": (
        "counter",
        "Shard states evicted back to their mmap loaders.",
    ),
    "repro_shard_evicted_bytes_total": (
        "counter",
        "Cumulative bytes released by shard evictions.",
    ),
    "repro_bound_fallbacks_total": (
        "counter",
        "Shard scans that fell back from quantized to exact float64 bounds.",
    ),
}


def _fmt(value: float) -> str:
    """A float in the shortest exact-enough exposition form."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.10g}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(**labels: str) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Writer:
    """Accumulates exposition lines, emitting HELP/TYPE once per family."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._declared: set[str] = set()

    def _declare(self, family: str) -> None:
        if family in self._declared:
            return
        self._declared.add(family)
        kind, help_text = _HELP[family]
        self._lines.append(f"# HELP {family} {help_text}")
        self._lines.append(f"# TYPE {family} {kind}")

    def sample(self, family: str, value: float, **labels: str) -> None:
        self._declare(family)
        self._lines.append(f"{family}{_labels(**labels)} {_fmt(float(value))}")

    def histogram(self, family: str, histogram, **labels: str) -> None:
        """One exposed histogram from a LatencyHistogram's lifetime buckets."""
        self._declare(family)
        buckets, counts, total, total_sum = histogram.bucket_counts()
        cumulative = 0
        for upper, count in zip(buckets, counts):
            cumulative += int(count)
            bucket_labels = _labels(le=_fmt(upper), **labels)
            self._lines.append(f"{family}_bucket{bucket_labels} {cumulative}")
        inf_labels = _labels(le="+Inf", **labels)
        self._lines.append(f"{family}_bucket{inf_labels} {total}")
        self._lines.append(f"{family}_sum{_labels(**labels)} {_fmt(total_sum)}")
        self._lines.append(f"{family}_count{_labels(**labels)} {total}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_prometheus(
    metrics,
    queue_depth: int = 0,
    cache_stats: dict | None = None,
    slowlog_stats: dict | None = None,
    worker_stats: dict | None = None,
    residency_stats: dict | None = None,
) -> str:
    """The full exposition document for one scrape.

    ``metrics`` is a :class:`repro.service.metrics.ServiceMetrics`
    (duck-typed: anything exposing ``snapshot()``, ``latency`` and
    ``stage_histograms()``); the optional dicts carry the surfaces owned
    by other components (scheduler queue + worker pool, cache, flight
    recorder, shard residency), mirroring the JSON ``/metrics`` assembly
    in the server.  ``worker_stats`` carries ``query_workers``,
    ``workers_busy`` and ``engine_wait_seconds`` from the scheduler
    snapshot.  ``residency_stats`` is a
    :meth:`repro.core.sharded.ShardedMogulIndex.residency_snapshot`
    dict; the residency gauges and counters are emitted whenever it is
    present (even unbudgeted — accounting without eviction), so
    scrapers see ``repro_resident_bytes`` for every sharded deployment.
    """
    snapshot = metrics.snapshot()
    writer = _Writer()
    writer.sample("repro_uptime_seconds", snapshot["uptime_seconds"])
    writer.sample("repro_requests_total", snapshot["requests_total"])
    writer.sample("repro_errors_total", snapshot["errors_total"])
    writer.sample("repro_batches_total", snapshot["batches_total"])
    writer.sample("repro_queries_batched_total", snapshot["queries_batched"])
    writer.sample("repro_max_batch_size", snapshot["max_batch_size"])
    writer.sample("repro_queue_depth", queue_depth)
    if worker_stats:
        writer.sample("repro_query_workers", worker_stats.get("query_workers", 1))
        writer.sample("repro_workers_busy", worker_stats.get("workers_busy", 0))
        writer.sample(
            "repro_engine_wait_seconds_total",
            worker_stats.get("engine_wait_seconds", 0.0),
        )
    if cache_stats:
        writer.sample("repro_cache_hits_total", cache_stats["hits"])
        writer.sample("repro_cache_misses_total", cache_stats["misses"])
        writer.sample(
            "repro_cache_invalidations_total", cache_stats["invalidations"]
        )
        writer.sample("repro_cache_size", cache_stats["size"])
    engine = snapshot["engine"]
    writer.sample("repro_engine_clusters_pruned_total", engine["clusters_pruned"])
    writer.sample("repro_engine_clusters_scored_total", engine["clusters_scored"])
    writer.sample("repro_engine_nodes_scored_total", engine["nodes_scored"])
    writer.sample(
        "repro_engine_bound_evaluations_total", engine["bound_evaluations"]
    )
    if slowlog_stats:
        writer.sample("repro_slowlog_recorded_total", slowlog_stats["recorded"])
    admission = snapshot.get("admission", {})
    writer.sample("repro_sheds_total", admission.get("sheds_total", 0))
    writer.sample(
        "repro_deadline_timeouts_total",
        admission.get("deadline_timeouts_total", 0),
    )
    writer.sample(
        "repro_deadline_expired_in_queue_total",
        admission.get("expired_in_queue_total", 0),
    )
    writer.sample(
        "repro_faults_injected_total", admission.get("faults_injected_total", 0)
    )
    for endpoint, histogram in sorted(metrics.latency.items()):
        writer.histogram(
            "repro_request_latency_seconds", histogram, endpoint=endpoint
        )
    error_latency = getattr(metrics, "error_latency", None)
    if error_latency is not None:
        writer.histogram("repro_error_latency_seconds", error_latency)
    for stage, histogram in sorted(metrics.stage_histograms().items()):
        writer.histogram("repro_stage_duration_seconds", histogram, stage=stage)
    if residency_stats:
        writer.sample(
            "repro_resident_bytes", residency_stats.get("resident_bytes", 0)
        )
        writer.sample(
            "repro_memory_budget_bytes",
            residency_stats.get("budget_bytes") or 0,
        )
        writer.sample(
            "repro_pinned_bytes", residency_stats.get("pinned_bytes", 0)
        )
        writer.sample(
            "repro_shards_resident", residency_stats.get("shards_resident", 0)
        )
        writer.sample(
            "repro_bounds_bytes", residency_stats.get("bounds_bytes", 0)
        )
        writer.sample(
            "repro_shard_loads_total", residency_stats.get("loads_total", 0)
        )
        writer.sample(
            "repro_shard_faults_total", residency_stats.get("faults_total", 0)
        )
        writer.sample(
            "repro_shard_evictions_total",
            residency_stats.get("evictions_total", 0),
        )
        writer.sample(
            "repro_shard_evicted_bytes_total",
            residency_stats.get("evicted_bytes_total", 0),
        )
        writer.sample(
            "repro_bound_fallbacks_total",
            residency_stats.get("bound_fallbacks_total", 0),
        )
    return writer.render()
