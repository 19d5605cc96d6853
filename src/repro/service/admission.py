"""Admission control: bounded queues and load shedding.

A serving stack without admission control fails collectively: under
overload every queue grows without bound, every request's latency grows
with the queue, and by the time answers emerge nobody is still waiting
for them.  The remedy is old and simple — refuse work you cannot finish
in time, so the work you *do* accept finishes fast.

:class:`AdmissionController` is the scheduler's gatekeeper.  Every
search request consults it before enqueueing; the controller looks at
the scheduler's backlog (and, optionally, the *estimated queue delay*
derived from the per-stage latency histograms) and answers with one of
two decisions:

``ADMIT``
    Below the threshold (``max_queue_depth``) — enqueue normally.
``SHED``
    At or over the threshold: fail fast with 429 + ``Retry-After``
    *before* the request burns queue space or engine time.  A shed
    request provably never executed, so clients may retry it safely —
    which is exactly what :class:`repro.service.client.RetrievalClient`
    does.

Shedding is the only overload behaviour: no request is ever answered
by a cheaper engine instead (the README's "Why serving has no
approximate tier" has the measurements behind that).

Deadlines are the controller's companion (see
:class:`DeadlineExceededError` and the scheduler's drain-time expiry
check): admission bounds how much work enters the queue, deadlines
bound how stale the work we dispatch may be.  Together they give the
benchmarked guarantee of ``benchmarks/bench_overload.py``: under 4x
saturation offered load, the p99 of *accepted* requests stays within a
small multiple of the unloaded p99, and goodput stays near capacity.
"""

from __future__ import annotations

import math
import threading

#: Decision constants returned by :meth:`AdmissionController.decide`.
ADMIT = "admit"
SHED = "shed"


class DeadlineExceededError(RuntimeError):
    """The request's deadline expired before the engine answered.

    Raised *before* enqueueing when the request arrives already expired,
    and at batch-assembly time for requests whose deadline lapsed while
    they waited in the queue — in both cases without dispatching to the
    engine.  The server maps this to ``504 Gateway Timeout``.  The
    request was never executed, so idempotent retries are safe.
    """

    def __init__(self, message: str, queued_ms: float | None = None):
        super().__init__(message)
        #: How long the request sat in the queue (``None`` when it
        #: arrived at the server already expired).
        self.queued_ms = queued_ms


class ShedLoadError(RuntimeError):
    """The request was refused by admission control (load shedding).

    The server maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header carrying :attr:`retry_after_seconds`.  A shed
    request provably never reached the engine, so retrying it (after
    backing off) is always safe — including mutations.
    """

    def __init__(self, message: str, retry_after_seconds: float = 1.0):
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)


class SchedulerStoppedError(RuntimeError):
    """The scheduler shut down while the request was queued.

    Distinguishes "the server is going away" (503 + ``Connection:
    close`` — pick another replica, or retry later) from an engine bug
    (500).  Requests failed this way were never dispatched.
    """


class AdmissionController:
    """Bounded-queue admission decisions for the micro-batching scheduler.

    Parameters
    ----------
    max_queue_depth:
        The overload threshold: when the scheduler's backlog reaches
        this depth, new requests are shed.  ``None`` disables admission
        control entirely (every decision is ``ADMIT`` — kept for
        benchmarks' no-admission baseline).
    max_queue_delay_ms:
        Optional second overload signal: when set, the controller also
        sheds when the *estimated* queue delay (current depth x mean
        engine-dispatch seconds / mean batch size, both read from the
        live service metrics) crosses this budget.  Catches the case
        where a modest queue of expensive requests is worth more delay
        than a deep queue of cheap ones.
    metrics:
        Optional :class:`repro.service.metrics.ServiceMetrics`; used for
        the delay estimate.
    """

    def __init__(
        self,
        max_queue_depth: int | None = None,
        max_queue_delay_ms: float | None = None,
        metrics=None,
    ):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 (or None), got {max_queue_depth}"
            )
        self.max_queue_depth = max_queue_depth
        self.max_queue_delay_ms = max_queue_delay_ms
        self.metrics = metrics
        #: Engine worker pool size, set by the scheduler at construction
        #: (1 until then).  The delay estimate drains the backlog
        #: through this many concurrent solvers, so a pool of 4 halves
        #: the estimated wait twice over — without it the controller
        #: would shed at a quarter of the real capacity.
        self.query_workers = 1
        self._lock = threading.Lock()
        self.admitted_total = 0
        self.shed_total = 0

    @property
    def enabled(self) -> bool:
        """False when the controller admits unconditionally."""
        return self.max_queue_depth is not None

    # -- overload signals -------------------------------------------------

    def estimated_queue_delay_seconds(self, depth: int) -> float | None:
        """Expected wait of a request enqueued *now*, from live metrics.

        ``depth / mean_batch_size`` dispatches must drain ahead of it,
        each costing the mean observed ``engine.dispatch`` stage time,
        spread across :attr:`query_workers` concurrent engine workers.
        Returns ``None`` until tracing has fed the per-stage histograms
        (the depth threshold alone governs admission until then).
        """
        if self.metrics is None or depth <= 0:
            return None
        dispatch = self.metrics.stage_histograms().get("engine.dispatch")
        if dispatch is None or dispatch.count == 0:
            return None
        mean_seconds = dispatch.mean_seconds
        if not math.isfinite(mean_seconds) or mean_seconds <= 0.0:
            # A cold or degenerate drain rate (no batch has completed,
            # a zero/NaN mean) has no estimate — clamp to "unknown"
            # rather than divide into 0/inf downstream.
            return None
        batch = max(1.0, self.metrics.mean_batch_size)
        workers = max(1, int(self.query_workers))
        estimate = (depth / batch) * mean_seconds / workers
        if not math.isfinite(estimate):
            return None
        return estimate

    def overloaded(self, depth: int) -> bool:
        """Whether a request arriving at ``depth`` queued faces overload."""
        if self.max_queue_depth is None:
            return False
        if depth >= self.max_queue_depth:
            return True
        if self.max_queue_delay_ms is not None:
            estimate = self.estimated_queue_delay_seconds(depth)
            if estimate is not None and 1e3 * estimate >= self.max_queue_delay_ms:
                return True
        return False

    # -- the decision ------------------------------------------------------

    # `_ignored`: the frozen benchmarks/suite/probes.py calls decide(8, False).
    def decide(self, depth: int, _ignored: object = None) -> str:
        """One admission decision: :data:`ADMIT` or :data:`SHED`."""
        decision = SHED if self.overloaded(depth) else ADMIT
        with self._lock:
            if decision == ADMIT:
                self.admitted_total += 1
            else:
                self.shed_total += 1
        return decision

    # -- client guidance ---------------------------------------------------

    def retry_after_seconds(self, depth: int) -> float:
        """How long a shed client should wait before retrying.

        The estimated time for the current queue to drain, clamped to
        [1, 10] seconds (whole seconds — the HTTP ``Retry-After`` header
        is integral).  Without a delay estimate, 1 second.
        """
        estimate = self.estimated_queue_delay_seconds(depth)
        if estimate is None or not math.isfinite(estimate):
            return 1.0
        return float(min(10, max(1, math.ceil(estimate))))

    def snapshot(self) -> dict:
        """Configuration and counters for ``GET /stats``."""
        with self._lock:
            counters = {
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
            }
        return {
            "enabled": self.enabled,
            "max_queue_depth": self.max_queue_depth,
            "max_queue_delay_ms": self.max_queue_delay_ms,
            "query_workers": self.query_workers,
            **counters,
        }
