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

The engine runs on one dedicated engine thread so the event loop keeps
accepting requests mid-solve, and the per-query answers fan back out
through futures, resolved straight from that thread's completion
callback.  Each lane keeps **one batch in flight**, and batches from the
two lanes take turns on the engine thread.  One thread is a measured
choice, not a placeholder: a query's solve is a few small triangular
solves plus a pruned scan (well under a millisecond), and handing it to
a second solver thread measured no faster (see the README's
"Query-time concurrency" note).

Correctness is inherited, not approximated: batching is purely an
execution strategy (answers are bitwise identical to per-request
``top_k`` calls), and requests with different ``k`` coalesce by solving
for the batch maximum and truncating — sound because answers are totally
ordered by (score desc, id asc), so the top-k prefix of a top-K answer
*is* the top-k answer.

There are exactly two lanes, ``node`` (in-database queries) and
``oos`` (out-of-sample feature vectors), because they enter different
engine entry points; each has its own pending list, both feed the
one engine thread.  A request carries a payload and a ``k`` and
nothing else; there is no per-request accuracy setting.
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
    """

    result: TopKResult
    stats: SearchStats | None
    batch_size: int
    cached: bool = False


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


@dataclass
class _Lane:
    """One coalescing lane: its backlog and the single batch it may fly."""

    #: Requests waiting for the lane to be free, FIFO.
    pending: list[_Pending] = field(default_factory=list)
    #: The scheduled launch (a ``call_soon`` handle, or the timer of a
    #: ``scheduler.queue`` stall); its requests are still in ``pending``.
    launch: asyncio.Handle | None = None
    #: The executor future of the batch on the engine thread, if any.
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
        cache hits cost nothing and are always served).  Past its
        threshold the request is shed (:class:`ShedLoadError` → 429).
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
    ):
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        self.ranker = ranker
        self.max_batch_size = max_batch_size
        self.cache = cache
        self.metrics = metrics
        self.admission = admission
        self.faults = faults
        self.exclude_query = exclude_query
        self.sequential_singletons = sequential_singletons
        self._lanes: dict[str, _Lane] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        #: The one engine thread: every solve and mutation runs here,
        #: never on the event loop.
        self._executor: ThreadPoolExecutor | None = None
        self._running = False
        #: Requests handed to the engine thread but not yet answered.
        #: Admission must see these: a launch takes a whole batch off
        #: its lane at once, so queue depth alone under-counts the real
        #: backlog by up to (lanes x max_batch_size).
        self._in_flight = 0
        #: Guards `_engine_wait_seconds`, written on the engine thread
        #: and read from the event loop.
        self._wait_lock = threading.Lock()
        #: Cumulative seconds dispatched batches spent waiting for the
        #: engine thread (behind the other lane's batch or a mutation).
        self._engine_wait_seconds = 0.0
        self.batches_dispatched = 0
        self.queries_dispatched = 0
        self.mutations_dispatched = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Create the engine thread and the two base lanes."""
        if self._running:
            raise RuntimeError("scheduler is already running")
        self._running = True
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="mogul-engine"
        )
        self._lanes = {"node": _Lane(), "oos": _Lane()}

    async def stop(self) -> None:
        """Fail what never reached the engine, let in-flight batches finish.

        Every request still in a lane's pending list — queued behind a
        batch, taken by a launch that has not run yet, or held in a
        ``scheduler.queue`` stall — fails with
        :class:`SchedulerStoppedError`; the server maps it to 503 +
        ``Connection: close``, so clients can tell "server going away"
        (retry elsewhere) from an engine bug (500).  A batch already on
        the engine thread finishes and its members are answered normally.
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
        """Requests assembled into batches and awaiting the engine thread."""
        return self._in_flight

    @property
    def backlog(self) -> int:
        """Total outstanding requests: queued plus in-flight.

        The admission controller's depth signal.  Queue depth alone is
        gameable by dispatch itself (a launch moves a whole batch off
        its lane, parking it in front of the engine thread), so a bound
        on the queue would not bound the wait.  Backlog is what an
        arriving request actually stands behind — the admission
        controller converts it to an expected delay at the observed
        per-query service time.
        """
        return self.queue_depth + self._in_flight

    @property
    def engine_wait_seconds(self) -> float:
        """Cumulative seconds dispatched batches waited for the engine thread.

        The serialization stall: a batch dispatched while the other
        lane's batch or a mutation holds the engine thread queues
        behind it.  Monotonic — benchmarks difference it across runs.
        """
        with self._wait_lock:
            return self._engine_wait_seconds

    def snapshot(self) -> dict:
        """Scheduler configuration and live counters for ``GET /stats``."""
        out = {
            "max_batch_size": self.max_batch_size,
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

    async def search(
        self,
        node: int,
        k: int,
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
        cache_key = (
            None
            if self.cache is None
            else ResultCache.node_key(node, k, exclude=self.exclude_query)
        )
        return await self._submit("node", node, k, cache_key, trace, deadline_at)

    async def search_out_of_sample(
        self,
        feature: np.ndarray,
        k: int,
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
        cache_key = (
            None if self.cache is None else ResultCache.feature_key(feature, k)
        )
        return await self._submit("oos", feature, k, cache_key, trace, deadline_at)

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

        The O(1) buffer append runs on the engine thread so it
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
        the default executor, never the engine thread, so concurrent
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
        OOM the engine thread).  Capping is exact: ``top_k(min(k, n))``
        returns the same answers as ``top_k(k)`` for any ``k >= n``.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        return min(int(k), self.ranker.n_nodes)

    async def _submit(
        self,
        lane: str,
        payload: object,
        k: int,
        cache_key: object | None,
        trace: Trace | None,
        deadline_at: float | None,
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
        if cache_key is not None:
            probed = time.perf_counter()
            hit = self.cache.get(cache_key)
            if hit is not None:
                if trace is not None:
                    # The cache short-circuit: the whole engine path was
                    # skipped, so the lookup is the only stage there is.
                    trace.root.add_span("cache.hit", started=probed, lane=lane)
                result, stats = hit
                return ScheduledResult(
                    result=result, stats=stats, batch_size=0, cached=True
                )
        if self.admission is not None and self.admission.enabled:
            depth = self.backlog
            if self.admission.decide(depth) == SHED:
                if self.metrics is not None:
                    self.metrics.record_shed()
                raise ShedLoadError(
                    f"server overloaded (queue depth {depth}); request shed",
                    retry_after_seconds=self.admission.retry_after_seconds(depth),
                )
        state = self._lanes[lane]
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
        """Hand up to ``max_batch_size`` pending requests to the engine thread."""
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
        # One engine span tree is built per dispatch (on the engine
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
        # The engine thread hops back to the loop itself: no dispatcher task
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
        """The engine thread finished ``batch``: answer it, then refill the lane."""
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
        # engine thread were dropped at solve start (the second, last
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
                        result=answer, stats=stats, batch_size=len(solved)
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
        """Run one coalesced batch on the engine (on the engine thread).

        Deadlines are re-checked here, at the last instant before the
        solve: a batch can sit behind another dispatch waiting for the
        engine thread after passing the assembly-time check, and
        solving a member nobody is waiting for is pure waste.  The
        returned ``kept`` index list names the members actually solved
        (``results``/``per_query`` align with it); completion fails
        the dropped ones with 504.

        ``dispatched`` is the ``perf_counter`` at submit to the engine
        thread; the gap to solve start is the time this batch spent
        waiting for it, accumulated into :attr:`engine_wait_seconds`.

        Stats come back through the engines' explicit ``*_with_stats``
        entry points, never ambient engine attributes, so a library
        caller sharing the engine from another thread cannot leak its
        counters into a dispatch.

        A singleton batch takes the sequential fast path when
        ``sequential_singletons`` is on (the default); its answers are
        identical to a one-column batch call.

        When ``traced``, the whole dispatch runs under an activated
        ``engine.dispatch`` span, so the instrumentation points down in
        :mod:`repro.core` (seed/border solves, shard scans, live
        snapshots) attach their stage spans beneath it; the finished
        tree is returned for completion to graft onto each coalesced
        request's trace.
        """
        now = time.perf_counter()
        if dispatched is not None:
            with self._wait_lock:
                self._engine_wait_seconds += max(0.0, now - dispatched)
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
            # rules sleep right here on the engine thread — the
            # bottleneck resource — so queues genuinely back up.
            self.faults.maybe("engine.solve")
        payloads = [payloads[index] for index in kept]
        k = max(ks[index] for index in kept)
        ranker = self.ranker
        singleton = len(payloads) == 1 and self.sequential_singletons
        engine_span = (
            Span(
                "engine.dispatch",
                meta={
                    "lane": lane,
                    "batch_size": len(payloads),
                    "engine": ranker.name,
                },
            )
            if traced
            else None
        )
        with activate(engine_span):
            if lane == "node":
                if singleton:
                    result, stats = ranker.top_k_with_stats(
                        int(payloads[0]),
                        k,
                        exclude_query=self.exclude_query,
                    )
                    results, per_query = [result], (stats,)
                else:
                    results, batch_stats = ranker.top_k_batch_with_stats(
                        np.asarray(payloads, dtype=np.int64),
                        k,
                        exclude_query=self.exclude_query,
                    )
                    per_query = batch_stats.per_query
            elif singleton:
                result, stats = ranker.top_k_out_of_sample_with_stats(
                    payloads[0], k
                )
                results, per_query = [result], (stats,)
            else:
                results, batch_stats = ranker.top_k_out_of_sample_batch_with_stats(
                    np.asarray(payloads), k
                )
                per_query = batch_stats.per_query
        if engine_span is not None:
            engine_span.end()
        return results, per_query, engine_span, kept


def _truncate(result: TopKResult, k: int) -> TopKResult:
    """The top-k prefix of a top-K answer (see :mod:`repro.core.topk`)."""
    return truncate_result(result, k)
