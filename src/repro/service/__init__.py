"""Online retrieval service: serve Mogul top-k queries over HTTP.

The engine's batched execution path (:mod:`repro.core.batch`) only pays
off when concurrent requests actually share a solve.  This package adds
the request-lifecycle layer that makes that happen in a live system:

* :mod:`repro.service.scheduler` — a work-conserving micro-batching
  scheduler: dispatch when the lane is free, batch what queued
  meanwhile into one ``top_k_batch`` call (capped at max-batch-size;
  nothing waits on a timer),
* :mod:`repro.service.server` — a stdlib-only asyncio HTTP front end
  (``POST /search``, ``POST /search_oos``, ``GET /healthz`` /
  ``/metrics`` / ``/stats``),
* :mod:`repro.service.admission` — deadline-aware admission control:
  bounded queues, load shedding (429 + ``Retry-After``) and graceful
  degradation to the fast accuracy tier under overload,
* :mod:`repro.service.faults` — a fault-injection chaos harness
  (env/CLI-armed, off by default) for overload and resilience tests,
* :mod:`repro.service.cache` — an LRU result cache with hit/miss
  accounting, invalidated on dynamic database updates,
* :mod:`repro.service.metrics` — latency histograms, throughput and
  aggregated engine counters,
* :mod:`repro.service.client` — an HTTP client with budgeted
  backoff-and-jitter retries, plus a concurrent load generator,
* :mod:`repro.service.encoding` — the JSON response encoding, shared
  with the CLI's ``search --json`` mode.

Surface from the shell: ``python -m repro serve`` and
``python -m repro loadtest``.
"""

from repro.service.admission import (
    OVERLOAD_POLICIES,
    AdmissionController,
    DeadlineExceededError,
    SchedulerStoppedError,
    ShedLoadError,
)
from repro.service.cache import ResultCache
from repro.service.client import (
    LoadReport,
    RequestFailedError,
    RetrievalClient,
    run_load_test,
)
from repro.service.encoding import (
    search_result_payload,
    stats_to_dict,
    topk_to_dict,
)
from repro.service.faults import FaultInjector, FaultRule, InjectedFault
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.scheduler import (
    MicroBatchScheduler,
    ReadOnlyEngineError,
    ScheduledResult,
)
from repro.service.server import BackgroundServer, RetrievalServer, run_server

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "DeadlineExceededError",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "LatencyHistogram",
    "LoadReport",
    "MicroBatchScheduler",
    "OVERLOAD_POLICIES",
    "ReadOnlyEngineError",
    "RequestFailedError",
    "ResultCache",
    "RetrievalClient",
    "RetrievalServer",
    "ScheduledResult",
    "SchedulerStoppedError",
    "ServiceMetrics",
    "ShedLoadError",
    "run_load_test",
    "run_server",
    "search_result_payload",
    "stats_to_dict",
    "topk_to_dict",
]
