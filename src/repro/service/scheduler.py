"""Micro-batching request scheduler: concurrent requests, shared solves.

The batched engine (:mod:`repro.core.batch`) answers b queries for far
less than b times the cost of one — but only if someone assembles the
batch.  :class:`MicroBatchScheduler` is that someone, and its policy is
**work-conserving**: dispatch when the lane is free; batch what queued
meanwhile.  A request arriving at an idle lane schedules one launch for
the end of the current event-loop turn, so everything submitted in that
turn leaves as one batch (capped at ``max_batch_size``); while that
batch solves, arrivals pile up in the lane's pending list, and the
batch's completion launches the next one from them.  Nothing ever waits
on a timer for company: a batched query costs about what a sequential
one does, so coalescing only amortises dispatch overhead, and a busy
engine gets that for free from whatever queued while it solved.

The engine runs on a pool of ``query_workers`` worker threads so the
event loop keeps accepting requests mid-solve, and the per-query answers
fan back out through futures, resolved straight from the worker's
completion callback.  Each lane keeps **one batch in flight**; engines
are reentrant (per-thread ambient stats, see
:class:`repro.ranking.base.AmbientStatsMixin`) and numpy releases the
GIL for the heavy kernels, so on a multi-core host ``--query-workers 4``
genuinely overlaps the solves of *different* lanes.

Correctness is inherited, not approximated: batching is purely an
execution strategy (answers are bitwise identical to per-request
``top_k`` calls), and requests with different ``k`` coalesce by solving
for the batch maximum and truncating — sound because answers are totally
ordered by (score desc, id asc), so the top-k prefix of a top-K answer
*is* the top-k answer.

In-database and out-of-sample requests are scheduled in separate lanes
(they enter different engine entry points); each lane has its own
pending list, all feeding the shared engine worker pool.  When the
engine is tiered (:class:`repro.core.TieredEngine`), requests carry an
accuracy dial, and each resolved accuracy level gets its **own** lane
(``node:fast``, ``node:balanced``, ...): only requests answered by the
same tier configuration may share a batch, and cache keys carry the
resolved level so a ``fast`` answer is never served to an ``exact``
request.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.search import SearchStats
from repro.core.topk import truncate_result
from repro.obs.trace import Span, Trace, activate
from repro.ranking.base import TopKResult
from repro.service.admission import (
    DEGRADE,
    SHED,
    AdmissionController,
    DeadlineExceededError,
    SchedulerStoppedError,
    ShedLoadError,
)
from repro.service.cache import ResultCache
from repro.service.faults import FaultInjector
from repro.service.metrics import ServiceMetrics


class ReadOnlyEngineError(RuntimeError):
    """A mutation was requested from an engine without a write path.

    The server maps this to ``403 Forbidden``: the deployment must opt
    into mutability (``repro serve --mutable``) for the write endpoints
    to exist.
    """


@dataclass(frozen=True)
class ScheduledResult:
    """One served answer plus its execution context.

    Attributes
    ----------
    result:
        The ranked answers, identical to a direct ``top_k`` call.
    stats:
        The engine's pruning counters for this query (from the batch run
        that computed it; ``None`` only for legacy cache entries).
    batch_size:
        How many requests shared the engine dispatch (1 = no coalescing).
    cached:
        ``True`` when the answer came from the result cache (no solve).
    accuracy:
        The resolved accuracy level that produced this answer (``None``
        on a non-tiered engine, where there is no dial).
    degraded:
        ``True`` when admission control downgraded this request to the
        fast tier under overload — the answer is honest about being
        approximate (``accuracy`` then names the degraded level, not
        the one the client asked for).
    """

    result: TopKResult
    stats: SearchStats | None
    batch_size: int
    cached: bool = False
    accuracy: str | None = None
    degraded: bool = False


@dataclass
class _Pending:
    """One enqueued request: payload plus the future its answer resolves."""

    payload: object  # int node id, or np.ndarray feature vector
    k: int
    future: asyncio.Future
    cache_key: object | None
    #: Cache generation observed at submit; the fill is skipped if the
    #: cache was invalidated while the solve ran (the answer is stale).
    cache_generation: int | None = None
    #: The request's trace (``None`` when tracing is off); completion
    #: records the enqueue→dispatch wait and attaches the engine span tree.
    trace: Trace | None = None
    #: ``perf_counter`` at enqueue — the start of the scheduler wait.
    enqueued_at: float = 0.0
    #: ``perf_counter`` deadline; the batch assembler drops the request
    #: (504, never dispatched) if this lapses while it is queued.
    deadline_at: float | None = None
    #: Whether admission control downgraded this request to the fast tier.
    degraded: bool = False


@dataclass
class _Lane:
    """One coalescing lane: its backlog and the single batch it may fly."""

    #: Engine kwargs of the lane (the resolved accuracy dial); the base
    #: ``node`` / ``oos`` lanes carry none.
    extra: dict
    #: Requests waiting for the lane to be free, FIFO.
    pending: list[_Pending] = field(default_factory=list)
    #: The scheduled launch (a ``call_soon`` handle, or the timer of a
    #: ``scheduler.queue`` stall); its requests are still in ``pending``.
    launch: asyncio.Handle | None = None
    #: The executor future of the batch on a worker, if any.
    solving: Future | None = None


class MicroBatchScheduler:
    """Coalesce concurrent top-k requests into batched engine calls.

    Parameters
    ----------
    ranker:
        Any :class:`repro.core.engine.Engine` — the single-index
        :class:`repro.core.MogulRanker` or the sharded
        :class:`repro.core.ShardedMogulRanker`; the scheduler only uses
        the protocol surface (``top_k`` / ``top_k_batch`` /
        ``top_k_out_of_sample`` / ``top_k_out_of_sample_batch``).
    max_batch_size:
        Upper bound on queries per engine dispatch — the only
        coalescing setting.  1 disables coalescing entirely (the
        per-request baseline); above 1 a dispatch carries whatever
        queued while the lane was busy, or was submitted in the same
        event-loop turn as the first request of an idle lane.  Nothing
        waits for company.
    cache:
        Optional :class:`ResultCache` probed before enqueueing and
        filled after each dispatch.
    metrics:
        Optional :class:`ServiceMetrics` receiving batch-size and engine
        counters.
    admission:
        Optional :class:`repro.service.admission.AdmissionController`
        consulted before every search enqueue (after the cache probe —
        cache hits cost nothing and are always served).  Its decision
        may shed the request (:class:`ShedLoadError` → 429) or downgrade
        it to the fast tier (``degraded: true`` in the answer).
        ``None`` admits everything — unbounded queues, the
        pre-admission behaviour.
    faults:
        Optional armed :class:`repro.service.faults.FaultInjector`; the
        scheduler consults the ``engine.solve`` and ``scheduler.queue``
        sites.  ``None`` (the default) injects nothing.
    exclude_query:
        Whether in-database answers exclude the query node itself
        (the retrieval default, matching ``MogulRanker.top_k``).
    sequential_singletons:
        When a dispatch carries exactly one query, route it through the
        sequential ``top_k`` fast path instead of a one-column
        ``top_k_batch`` call (answers are identical; the sequential path
        skips the batch engine's vectorised machinery and is measurably
        faster for a single query).  On by default — the production
        setting.  ``False`` forces every dispatch through the batch
        engine, which is what benchmarks use to isolate the coalescing
        policy at batch size 1.
    query_workers:
        Size of the engine worker pool.  1 (the default) reproduces the
        historical single-worker behaviour: every dispatch serializes on
        one thread.  Larger values let batches from *different* lanes
        solve concurrently (a lane keeps one batch in flight, so a lone
        busy lane uses one worker) — answers are unchanged at any
        setting (engines are reentrant and batching is semantics-free),
        only the overlap changes.  Sizing guidance lives in the README's
        "Parallel query execution" section; more workers than cores buys
        nothing.
    """

    def __init__(
        self,
        ranker,
        max_batch_size: int = 32,
        cache: ResultCache | None = None,
        metrics: ServiceMetrics | None = None,
        admission: AdmissionController | None = None,
        faults: FaultInjector | None = None,
        exclude_query: bool = True,
        sequential_singletons: bool = True,
        query_workers: int = 1,
    ):
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        query_workers = int(query_workers)
        if query_workers < 1:
            raise ValueError(f"query_workers must be >= 1, got {query_workers}")
        self.ranker = ranker
        self.query_workers = query_workers
        self.max_batch_size = max_batch_size
        self.cache = cache
        self.metrics = metrics
        self.admission = admission
        if admission is not None:
            # The delay estimate drains `depth` requests through
            # `query_workers` concurrent solvers, not one.
            admission.query_workers = query_workers
        self.faults = faults
        self.exclude_query = exclude_query
        self.sequential_singletons = sequential_singletons
        #: Lazily resolved ``(label, engine_kwargs)`` of the degradation
        #: target tier (``(None, None)`` on engines without a dial).
        self._degrade_target_cache: tuple[str | None, dict | None] | None = None
        self._lanes: dict[str, _Lane] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        #: The engine worker pool.  Engines are reentrant (per-thread
        #: ambient stats; numpy releases the GIL for the heavy kernels),
        #: so `query_workers` threads may solve concurrently — the
        #: answers are identical at any pool size.
        self._executor: ThreadPoolExecutor | None = None
        self._running = False
        #: Requests handed to the engine workers but not yet answered.
        #: Admission must see these: a launch takes a whole batch off
        #: its lane at once, so queue depth alone under-counts the real
        #: backlog by up to (lanes x max_batch_size).
        self._in_flight = 0
        #: Guards the worker gauges below (touched from pool threads).
        self._workers_lock = threading.Lock()
        #: Workers currently inside an engine solve (gauge for /metrics).
        self._workers_busy = 0
        #: Cumulative seconds batches spent waiting for a free engine
        #: worker after dispatch (the serialization stall the pool is
        #: meant to shrink; benchmarks read it before/after).
        self._engine_wait_seconds = 0.0
        self.batches_dispatched = 0
        self.queries_dispatched = 0
        self.mutations_dispatched = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Create the worker pool and the two base lanes."""
        if self._running:
            raise RuntimeError("scheduler is already running")
        self._running = True
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.query_workers, thread_name_prefix="mogul-engine"
        )
        self._lanes = {"node": _Lane({}), "oos": _Lane({})}

    async def stop(self) -> None:
        """Fail what never reached a worker, let in-flight batches finish.

        Every request still in a lane's pending list — queued behind a
        batch, taken by a launch that has not run yet, or held in a
        ``scheduler.queue`` stall — fails with
        :class:`SchedulerStoppedError`; the server maps it to 503 +
        ``Connection: close``, so clients can tell "server going away"
        (retry elsewhere) from an engine bug (500).  A batch already on
        a worker finishes and its members are answered normally.
        """
        if not self._running:
            return
        self._running = False
        in_flight = []
        for lane in self._lanes.values():
            if lane.launch is not None:
                lane.launch.cancel()
                lane.launch = None
            for pending in lane.pending:
                if not pending.future.done():
                    pending.future.set_exception(
                        SchedulerStoppedError(
                            "scheduler stopped while the request was queued; "
                            "the request was never dispatched"
                        )
                    )
            lane.pending.clear()
            if lane.solving is not None:
                # The batch's own completion callback was added first and
                # callbacks run in order, so `_complete` has answered the
                # members by the time this wrapper resolves.
                in_flight.append(asyncio.wrap_future(lane.solving))
        if in_flight:
            await asyncio.gather(*in_flight, return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> "MicroBatchScheduler":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    @property
    def queue_depth(self) -> int:
        """Requests currently enqueued (all lanes), excluding in-flight solves."""
        return sum(len(lane.pending) for lane in self._lanes.values())

    @property
    def in_flight(self) -> int:
        """Requests assembled into batches and awaiting an engine worker."""
        return self._in_flight

    @property
    def backlog(self) -> int:
        """Total outstanding requests: queued plus in-flight.

        The admission controller's depth signal.  Queue depth alone is
        gameable by dispatch itself (a launch moves a whole batch off
        its lane, parking it in front of the engine worker pool), so a
        bound on the queue would not bound the wait.  Backlog is what an
        arriving request actually stands behind — the admission
        controller converts it to an expected delay by dividing through
        the pool size (its ``query_workers``, set by this scheduler at
        construction).
        """
        return self.queue_depth + self._in_flight

    @property
    def workers_busy(self) -> int:
        """Workers currently inside an engine solve (0..query_workers)."""
        with self._workers_lock:
            return self._workers_busy

    @property
    def engine_wait_seconds(self) -> float:
        """Cumulative seconds dispatched batches waited for a free worker.

        The serialization stall: with one worker every concurrent batch
        queues behind the solve in progress; with a pool the wait
        shrinks toward zero until all workers are busy.  Monotonic —
        benchmarks difference it across runs.
        """
        with self._workers_lock:
            return self._engine_wait_seconds

    def snapshot(self) -> dict:
        """Scheduler configuration and live counters for ``GET /stats``."""
        out = {
            "max_batch_size": self.max_batch_size,
            "query_workers": self.query_workers,
            "workers_busy": self.workers_busy if self._running else 0,
            "engine_wait_seconds": self.engine_wait_seconds,
            "queue_depth": self.queue_depth if self._running else 0,
            "in_flight": self._in_flight if self._running else 0,
            "lanes": sorted(self._lanes) if self._running else [],
            "batches_dispatched": self.batches_dispatched,
            "queries_dispatched": self.queries_dispatched,
            "mutations_dispatched": self.mutations_dispatched,
        }
        if self.admission is not None:
            out["admission"] = self.admission.snapshot()
        if self.faults is not None and self.faults.armed:
            out["faults"] = self.faults.snapshot()
        return out

    # -- request entry points --------------------------------------------

    def _resolve_accuracy(
        self, accuracy: str | None, m: int | None
    ) -> tuple[str | None, dict]:
        """The engine's canonical accuracy level and kwargs for a request.

        A tiered engine resolves every request — including the implicit
        default — to a canonical label, so ``accuracy=None`` and an
        explicit ``accuracy="balanced"`` share a lane and cache entries.
        On a non-tiered engine the dial does not exist: asking for it is
        a request error (400), not something to silently ignore — the
        caller believes accuracy is being traded and it is not.
        """
        resolver = getattr(self.ranker, "resolve_accuracy", None)
        if resolver is None:
            if accuracy is not None or m is not None:
                raise ValueError(
                    "this engine has no accuracy dial (accuracy/m require "
                    "a tiered engine; serve with a spectral tier)"
                )
            return None, {}
        return resolver(accuracy=accuracy, m=m)

    async def search(
        self,
        node: int,
        k: int,
        accuracy: str | None = None,
        m: int | None = None,
        trace: Trace | None = None,
        deadline_at: float | None = None,
    ) -> ScheduledResult:
        """Top-k for an in-database node (validated before enqueueing).

        ``deadline_at`` is a ``time.perf_counter`` instant: past it the
        request fails with :class:`DeadlineExceededError` — immediately
        if already expired, or at batch assembly if it lapses while
        queued (in both cases without touching the engine).
        """
        node = int(node)
        if not 0 <= node < self.ranker.n_nodes:
            raise ValueError(
                f"query {node} out of range for {self.ranker.n_nodes} nodes"
            )
        k = self._cap_k(k)
        label, extra = self._resolve_accuracy(accuracy, m)

        def make_key(lbl: str | None):
            if self.cache is None:
                return None
            # The resolved level is part of the answer's identity: a
            # `fast` answer must never satisfy an `exact` request.
            params = {"exclude": self.exclude_query}
            if lbl is not None:
                params["accuracy"] = lbl
            return ResultCache.node_key(node, k, **params)

        return await self._submit(
            "node", node, k, label, extra, trace, deadline_at, make_key
        )

    async def search_out_of_sample(
        self,
        feature: np.ndarray,
        k: int,
        accuracy: str | None = None,
        m: int | None = None,
        trace: Trace | None = None,
        deadline_at: float | None = None,
    ) -> ScheduledResult:
        """Top-k for a feature vector outside the database."""
        feature = np.asarray(feature, dtype=np.float64)
        expected = self.ranker.graph.features.shape[1]
        if feature.shape != (expected,):
            raise ValueError(
                f"feature must have shape ({expected},), got {feature.shape}"
            )
        k = self._cap_k(k)
        label, extra = self._resolve_accuracy(accuracy, m)

        def make_key(lbl: str | None):
            if self.cache is None:
                return None
            params = {} if lbl is None else {"accuracy": lbl}
            return ResultCache.feature_key(feature, k, **params)

        return await self._submit(
            "oos", feature, k, label, extra, trace, deadline_at, make_key
        )

    # -- mutation entry points -------------------------------------------

    def _live_engine(self):
        """The engine's write surface, or a 403-mapped refusal."""
        ranker = self.ranker
        if not hasattr(ranker, "rebuild_async"):
            raise ReadOnlyEngineError(
                "this server is read-only; restart with a mutable engine "
                "(repro serve --mutable) to accept writes"
            )
        if not self._running:
            raise RuntimeError("scheduler is not running (call start() first)")
        return ranker

    async def insert(self, feature: np.ndarray) -> int:
        """Insert a point; returns its permanent id.

        The O(1) buffer append runs on the engine worker so it
        serializes with query dispatches; a rebuild it triggers runs on
        the engine's *own* background thread — never here, so queued
        queries are not stalled behind it.
        """
        engine = self._live_engine()
        feature = np.asarray(feature, dtype=np.float64)
        # Shape validation belongs to engine.add (one copy of the rule);
        # its ValueError propagates to the server's 400 handler.
        loop = asyncio.get_running_loop()
        new_id = await loop.run_in_executor(self._executor, engine.add, feature)
        self.mutations_dispatched += 1
        return int(new_id)

    async def delete(self, node: int) -> None:
        """Tombstone a point (validation errors propagate as ValueError)."""
        engine = self._live_engine()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, engine.remove, int(node))
        self.mutations_dispatched += 1

    async def trigger_rebuild(self, wait: bool = False):
        """Kick off (or join) a background rebuild; returns its ticket.

        ``wait=True`` blocks *this request* until the swap lands — on
        the default executor, never the engine worker, so concurrent
        queries keep flowing while the caller waits.
        """
        engine = self._live_engine()
        loop = asyncio.get_running_loop()
        ticket = await loop.run_in_executor(
            self._executor, engine.rebuild_async
        )
        self.mutations_dispatched += 1
        if wait:
            await loop.run_in_executor(None, ticket.result)
        return ticket

    def _cap_k(self, k: int) -> int:
        """Bound k by the database size.

        A request cannot receive more answers than there are nodes, and
        the top-k accumulator allocates O(k) — an unbounded client value
        must not size an allocation (a single huge ``k`` would otherwise
        OOM the engine worker).  Capping is exact: ``top_k(min(k, n))``
        returns the same answers as ``top_k(k)`` for any ``k >= n``.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        return min(int(k), self.ranker.n_nodes)

    def _degrade_target(self) -> tuple[str | None, dict | None]:
        """The tier overloaded requests degrade to (``(None, None)``: no dial)."""
        if self._degrade_target_cache is None:
            resolver = getattr(self.ranker, "resolve_accuracy", None)
            if resolver is None:
                self._degrade_target_cache = (None, None)
            else:
                self._degrade_target_cache = resolver(accuracy="fast")
        return self._degrade_target_cache

    def _probe_cache(
        self,
        cache_key: object | None,
        lane: str,
        label: str | None,
        degraded: bool,
        trace: Trace | None,
    ) -> ScheduledResult | None:
        if cache_key is None:
            return None
        probed = time.perf_counter()
        hit = self.cache.get(cache_key)
        if hit is None:
            return None
        result, stats = hit
        if trace is not None:
            # The cache short-circuit: the whole engine path was
            # skipped, so the lookup is the only stage there is.
            trace.root.add_span("cache.hit", started=probed, lane=lane)
        return ScheduledResult(
            result=result,
            stats=stats,
            batch_size=0,
            cached=True,
            accuracy=label,
            degraded=degraded,
        )

    async def _submit(
        self,
        kind: str,
        payload: object,
        k: int,
        label: str | None,
        extra: dict,
        trace: Trace | None,
        deadline_at: float | None,
        make_key,
    ) -> ScheduledResult:
        if not self._running:
            raise RuntimeError("scheduler is not running (call start() first)")
        if deadline_at is not None and time.perf_counter() >= deadline_at:
            # Arrived already expired (slow network, tiny deadline):
            # nobody is waiting for the answer, so don't queue the work.
            if self.metrics is not None:
                self.metrics.record_timeout()
            raise DeadlineExceededError(
                "deadline expired before the request could be queued"
            )
        degraded = False
        cache_key = make_key(label)
        lane = kind if label is None else f"{kind}:{label}"
        hit = self._probe_cache(cache_key, lane, label, degraded, trace)
        if hit is not None:
            return hit
        if self.admission is not None and self.admission.enabled:
            depth = self.backlog
            degrade_label, degrade_extra = self._degrade_target()
            # Degradable: the engine has a dial, the request is not
            # already at the floor tier, and it did not pin an explicit
            # candidate budget (``m=``) we would be second-guessing.
            can_degrade = (
                degrade_label is not None
                and label is not None
                and label != degrade_label
                and not label.startswith("m=")
            )
            decision = self.admission.decide(depth, can_degrade)
            if decision == SHED:
                if self.metrics is not None:
                    self.metrics.record_shed()
                raise ShedLoadError(
                    f"server overloaded (queue depth {depth}); request shed",
                    retry_after_seconds=self.admission.retry_after_seconds(depth),
                )
            if decision == DEGRADE:
                degraded = True
                if self.metrics is not None:
                    self.metrics.record_degraded()
                if trace is not None:
                    now = time.perf_counter()
                    trace.root.add_span(
                        "admission.degrade",
                        started=now,
                        ended=now,
                        source=label,
                        target=degrade_label,
                    )
                label, extra = degrade_label, dict(degrade_extra)
                cache_key = make_key(label)
                lane = f"{kind}:{label}"
                hit = self._probe_cache(cache_key, lane, label, degraded, trace)
                if hit is not None:
                    return hit
        # Accuracy lanes are open-ended (``m=<any>``), so they are made
        # on first use; a lane's engine kwargs are fixed at creation — a
        # lane name resolves to exactly one tier configuration, which is
        # what makes coalescing inside it safe.
        state = self._lanes.get(lane)
        if state is None:
            state = self._lanes[lane] = _Lane(dict(extra))
        generation = None if self.cache is None else self.cache.generation
        future: asyncio.Future = self._loop.create_future()
        state.pending.append(
            _Pending(
                payload=payload,
                k=k,
                future=future,
                cache_key=cache_key,
                cache_generation=generation,
                trace=trace,
                enqueued_at=time.perf_counter(),
                deadline_at=deadline_at,
                degraded=degraded,
            )
        )
        if state.launch is None and state.solving is None:
            # The lane is free: launch at the end of this loop turn, so
            # every request submitted in the same turn shares the batch.
            state.launch = self._loop.call_soon(self._launch, lane)
        return await future

    # -- dispatch ---------------------------------------------------------

    def _launch(self, lane: str) -> None:
        """Dispatch the lane's next batch now (event loop, lane is free)."""
        if self.faults is not None and self.faults.armed:
            # Chaos site: hold the launch (cooperatively — new requests
            # keep arriving and piling into the lane, which is the
            # overload scenario the deadline and admission tests need to
            # provoke).
            stall = self.faults.stall_seconds("scheduler.queue")
            if stall > 0:
                self._lanes[lane].launch = self._loop.call_later(
                    stall, self._dispatch, lane
                )
                return
        self._dispatch(lane)

    def _dispatch(self, lane: str) -> None:
        """Hand up to ``max_batch_size`` pending requests to a worker."""
        state = self._lanes[lane]
        state.launch = None
        batch: list[_Pending] = []
        while state.pending and not batch:
            taken = state.pending[: self.max_batch_size]
            del state.pending[: self.max_batch_size]
            # Skip members whose deadline lapsed while they waited:
            # solving them would burn engine time nobody is waiting for,
            # and under overload that waste is exactly what collapses
            # goodput.
            now = time.perf_counter()
            for pending in taken:
                if pending.deadline_at is not None and now >= pending.deadline_at:
                    self._expire(pending, lane, now)
                else:
                    batch.append(pending)
        if not batch:
            return
        # One engine span tree is built per dispatch (on the worker
        # thread) and shared by every coalesced member's trace: the
        # engine ran once for all of them, and the shared subtree is the
        # honest record of that.
        traced = any(pending.trace is not None for pending in batch)
        dispatched = time.perf_counter()
        self._in_flight += len(batch)
        state.solving = self._executor.submit(
            self._execute,
            lane,
            [pending.payload for pending in batch],
            [pending.k for pending in batch],
            [pending.deadline_at for pending in batch],
            traced,
            dispatched,
        )
        # The worker hops back to the loop itself: no dispatcher task
        # sits between the executor future and the request futures.
        state.solving.add_done_callback(
            lambda outcome: self._loop.call_soon_threadsafe(
                self._complete, lane, batch, dispatched, outcome
            )
        )

    def _expire(self, pending: _Pending, lane: str, now: float) -> None:
        """Fail one queued request whose deadline lapsed (never dispatched)."""
        queued_ms = 1e3 * (now - pending.enqueued_at)
        if pending.trace is not None:
            pending.trace.root.add_span(
                "admission.expired",
                started=pending.enqueued_at,
                ended=now,
                lane=lane,
            )
        if self.metrics is not None:
            self.metrics.record_timeout(queued=True)
        if not pending.future.done():
            pending.future.set_exception(
                DeadlineExceededError(
                    f"deadline expired after {queued_ms:.1f} ms in queue; "
                    "the request was not dispatched to the engine",
                    queued_ms=queued_ms,
                )
            )

    def _complete(
        self, lane: str, batch: list[_Pending], dispatched: float, outcome: Future
    ) -> None:
        """A worker finished ``batch``: answer it, then refill the lane."""
        state = self._lanes[lane]
        state.solving = None
        self._in_flight -= len(batch)
        try:
            self._answer(lane, batch, dispatched, outcome)
        finally:
            if self._running and state.pending:
                # Work-conserving: whatever queued while this batch
                # solved is the next batch, with no timer in between.
                self._launch(lane)

    def _answer(
        self, lane: str, batch: list[_Pending], dispatched: float, outcome: Future
    ) -> None:
        """Fan one finished batch back out to its request futures."""
        error = outcome.exception()
        if error is not None:  # engine rejected the batch
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        results, per_query, engine_span, kept = outcome.result()
        # Members whose deadline lapsed while the batch waited for the
        # worker thread were dropped at solve start (the second, last
        # possible expiry check): 504 them now, on the event loop.
        kept_set = set(kept)
        ended = time.perf_counter()
        for index, pending in enumerate(batch):
            if index not in kept_set:
                self._expire(pending, lane, ended)
        solved = [batch[index] for index in kept]
        if not solved:
            return
        self.batches_dispatched += 1
        self.queries_dispatched += len(solved)
        if self.metrics is not None:
            self.metrics.record_batch(
                len(solved), SearchStats.aggregate(per_query)
            )
        label = lane.partition(":")[2] or None
        for pending, result, stats in zip(solved, results, per_query):
            if pending.trace is not None:
                pending.trace.root.add_span(
                    "scheduler.wait",
                    started=pending.enqueued_at,
                    ended=dispatched,
                    lane=lane,
                    batch_size=len(solved),
                )
                if engine_span is not None:
                    pending.trace.root.attach(engine_span)
            answer = _truncate(result, pending.k)
            if self.cache is not None and pending.cache_key is not None:
                self.cache.put(
                    pending.cache_key,
                    (answer, stats),
                    generation=pending.cache_generation,
                )
            if not pending.future.done():
                pending.future.set_result(
                    ScheduledResult(
                        result=answer,
                        stats=stats,
                        batch_size=len(solved),
                        accuracy=label,
                        degraded=pending.degraded,
                    )
                )

    def _execute(
        self,
        lane: str,
        payloads: list,
        ks: list[int],
        deadlines: list[float | None],
        traced: bool = False,
        dispatched: float | None = None,
    ) -> tuple[list[TopKResult], tuple[SearchStats, ...], Span | None, list[int]]:
        """Run one coalesced batch on the engine (a pool worker thread).

        Deadlines are re-checked here, at the last instant before the
        solve: a batch can sit behind other dispatches waiting for a
        free pool worker after passing the assembly-time check, and
        solving a member nobody is waiting for is pure waste.  The
        check runs on whichever worker picked the batch up, against
        that worker's own start time — per-worker by construction.  The
        returned ``kept`` index list names the members actually solved
        (``results``/``per_query`` align with it); completion fails
        the dropped ones with 504.

        ``dispatched`` is the ``perf_counter`` at submit to the pool;
        the gap to solve start is the time this batch spent waiting for
        a free worker, accumulated into :attr:`engine_wait_seconds`.

        Stats come back through the engines' explicit ``*_with_stats``
        entry points, never ambient engine attributes — with several
        pool workers solving concurrently, an ambient read could
        otherwise observe a sibling dispatch's counters.  (The ambient
        attributes are per-thread too, so this is belt and braces.)

        A singleton batch takes the sequential fast path when
        ``sequential_singletons`` is on (the default); its answers are
        identical to a one-column batch call.  Accuracy lanes
        (``node:fast``, ``oos:m=256``, ...) forward their resolved tier
        kwargs to the engine on every call.

        When ``traced``, the whole dispatch runs under an activated
        ``engine.dispatch`` span (whose meta names the ``worker_id``
        that ran it), so the instrumentation points down in
        :mod:`repro.core` (tier nominate/re-rank, seed/border solves,
        shard scans, live snapshots) attach their stage spans beneath
        it; the finished tree is returned for completion to graft
        onto each coalesced request's trace.
        """
        now = time.perf_counter()
        with self._workers_lock:
            if dispatched is not None:
                self._engine_wait_seconds += max(0.0, now - dispatched)
            self._workers_busy += 1
        try:
            kept = [
                index
                for index, deadline_at in enumerate(deadlines)
                if deadline_at is None or now < deadline_at
            ]
            if not kept:
                return [], (), None, kept
            if self.faults is not None and self.faults.armed:
                # Chaos site: a raised InjectedFault flows through the same
                # path as a real engine failure (every coalesced member's
                # future gets the exception, the client sees a 500); latency
                # rules sleep right here on the worker thread — the
                # bottleneck resource — so queues genuinely back up.
                self.faults.maybe("engine.solve")
            payloads = [payloads[index] for index in kept]
            k = max(ks[index] for index in kept)
            ranker = self.ranker
            kind = lane.partition(":")[0]
            extra = self._lanes[lane].extra
            singleton = len(payloads) == 1 and self.sequential_singletons
            # "mogul-engine_3" -> worker 3 (executor thread names are
            # `<prefix>_<index>`); the raw name if the pattern changes.
            thread_name = threading.current_thread().name
            worker_id = thread_name.rpartition("_")[2] or thread_name
            engine_span = (
                Span(
                    "engine.dispatch",
                    meta={
                        "lane": lane,
                        "batch_size": len(payloads),
                        "engine": ranker.name,
                        "worker_id": worker_id,
                    },
                )
                if traced
                else None
            )
            with activate(engine_span):
                if kind == "node":
                    if singleton:
                        result, stats = ranker.top_k_with_stats(
                            int(payloads[0]),
                            k,
                            exclude_query=self.exclude_query,
                            **extra,
                        )
                        results, per_query = [result], (stats,)
                    else:
                        results, batch_stats = ranker.top_k_batch_with_stats(
                            np.asarray(payloads, dtype=np.int64),
                            k,
                            exclude_query=self.exclude_query,
                            **extra,
                        )
                        per_query = batch_stats.per_query
                elif singleton:
                    result, stats = ranker.top_k_out_of_sample_with_stats(
                        payloads[0], k, **extra
                    )
                    results, per_query = [result], (stats,)
                else:
                    results, batch_stats = ranker.top_k_out_of_sample_batch_with_stats(
                        np.asarray(payloads), k, **extra
                    )
                    per_query = batch_stats.per_query
            if engine_span is not None:
                engine_span.end()
            return results, per_query, engine_span, kept
        finally:
            with self._workers_lock:
                self._workers_busy -= 1


def _truncate(result: TopKResult, k: int) -> TopKResult:
    """The top-k prefix of a top-K answer (see :mod:`repro.core.topk`)."""
    return truncate_result(result, k)
