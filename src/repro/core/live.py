"""Thread-safe mutable serving: background rebuilds with atomic epoch swap.

The paper's headline argument (Lemma 2 / §4.2.2) is that all of Mogul's
heavy lifting is query independent — cheap enough to *re-run as the
database changes*.  :class:`repro.core.DynamicMogulRanker` already
amortises writes into periodic rebuilds, but its ``rebuild()`` is a
stop-the-world pause: nothing can be answered while the new graph and
factorization are computed.  :class:`LiveEngine` removes that pause:

* **Mutations** (``add`` / ``remove``) take a short mutation lock —
  microseconds, never the build.
* **Queries** capture one :class:`repro.core.dynamic.LiveSnapshot`
  under the same lock (the *only* blocking a query can experience) and
  then run entirely lock-free against the immutable epoch they saw.
  In-flight queries keep draining against the epoch they started on
  even while a newer one is published.
* **Rebuilds** (:meth:`LiveEngine.rebuild_async`) snapshot the live id
  set, build the new graph + index on a background worker thread, and
  *atomically swap* the fresh :class:`~repro.core.dynamic.EngineEpoch`
  in under the mutation lock — the swap is a reference assignment, a
  pending-buffer prune and a tombstone recount (the deletes the new
  epoch still holds), so the serving-visible stall is the lock hold
  of the swap, not the build.  Both the blocking and the background
  paths run the exact same :meth:`_build_epoch` on the exact same id
  snapshot, so their outputs are **bitwise identical**.
* **Consistency**: every answer is consistent with a single epoch —
  there is no interleaving that can mix pre- and post-rebuild id
  mappings, because the id mapping travels inside the snapshot.

The engine exposes critical-path instrumentation
(:attr:`snapshot_stall_seconds`, :attr:`last_swap_seconds`) because on a
single-CPU host a background rebuild *time-shares* with queries: the
honest measure of "queries never block on a rebuild" is the lock-wait on
the query path, not wall-clock overlap (see
``benchmarks/bench_live_mutation.py``).

Mutable state (pending buffer + tombstones + epoch + counters) persists
alongside the index artifact via
:func:`repro.core.serialize.save_live_state` /
:func:`~repro.core.serialize.load_live_state`; the saved state is
expressed relative to the *on-disk* index (a write-ahead buffer), so a
restart with the original artifact replays into the identical logical
database.
"""

from __future__ import annotations

import ctypes
import logging
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.dynamic import DynamicMogulRanker, LiveSnapshot
from repro.obs.trace import add_span as obs_add_span
from repro.ranking.base import DEFAULT_ALPHA

logger = logging.getLogger(__name__)

try:  # glibc only; elsewhere the allocator keeps its own policy
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # pragma: no cover - not glibc
    _malloc_trim = None


class RebuildTicket:
    """Handle on one background rebuild.

    ``wait`` / ``result`` blocks until the rebuild either swapped its
    epoch in or failed; :attr:`error` carries the failure, and the
    timing attributes record where the time went (build = off the
    serving path, swap = the only serving-visible stall).
    """

    def __init__(self) -> None:
        self._finished = threading.Event()
        #: Exception raised by the build worker, if any.
        self.error: BaseException | None = None
        #: Epoch number the rebuild published (set on success).
        self.epoch: int | None = None
        #: Seconds spent building the new graph + index (background).
        self.build_seconds: float | None = None
        #: Seconds the mutation lock was held to swap the epoch in.
        self.swap_seconds: float | None = None

    @property
    def done(self) -> bool:
        """True once the rebuild finished (successfully or not)."""
        return self._finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the rebuild finishes; returns False on timeout."""
        return self._finished.wait(timeout)

    def result(self, timeout: float | None = None) -> int:
        """The published epoch number; re-raises the worker's failure."""
        if not self._finished.wait(timeout):
            raise TimeoutError("rebuild did not finish in time")
        if self.error is not None:
            raise self.error
        assert self.epoch is not None
        return self.epoch


@dataclass
class LiveState:
    """Persistable mutable state: the write-ahead buffer over an artifact.

    Everything is expressed **relative to the on-disk index** (the
    ``n_indexed`` nodes the artifact was built over): ``pending`` holds
    every live id the artifact does not cover, whether it was still
    buffered or had already been folded in by an in-memory rebuild — on
    restart those points replay through the pending path and the next
    rebuild restores the fully indexed state.
    """

    epoch: int
    n_indexed: int
    n_total: int
    pending_ids: np.ndarray
    pending_features: np.ndarray
    tombstones: np.ndarray
    inserts: int = 0
    deletes: int = 0
    rebuilds: int = 0
    feature_dim: int = 0

    def __post_init__(self) -> None:
        self.pending_ids = np.asarray(self.pending_ids, dtype=np.int64)
        self.pending_features = np.asarray(
            self.pending_features, dtype=np.float64
        )
        self.tombstones = np.asarray(self.tombstones, dtype=np.int64)


@dataclass
class _StallCounters:
    """Lock-wait accounting on the query path (critical-path stall)."""

    total_seconds: float = 0.0
    max_seconds: float = 0.0
    samples: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.total_seconds += seconds
            self.max_seconds = max(self.max_seconds, seconds)
            self.samples += 1


class LiveEngine(DynamicMogulRanker):
    """A :class:`DynamicMogulRanker` safe for concurrent serving.

    Same parameters and query semantics as the base class, with three
    behavioural changes:

    * all entry points are thread-safe (one mutation lock, held only
      for O(buffer) work — never a build);
    * automatic rebuilds run in the background instead of blocking the
      inserting caller;
    * :meth:`rebuild` delegates to :meth:`rebuild_async` and waits, so
      blocking and background rebuilds are the same code path (and
      bitwise identical for the same buffer snapshot).

    Answers are fully thread-safe.  The informational stats attributes
    (``last_stats`` / ``last_batch_stats``) are thread-local (see
    :class:`repro.ranking.base.AmbientStatsMixin`), so under concurrent
    calls — including the serving scheduler's multi-worker pool — each
    thread reads back exactly its own call's counters.
    """

    def __init__(
        self,
        features: np.ndarray,
        alpha: float = DEFAULT_ALPHA,
        k: int = 5,
        exact: bool = False,
        auto_rebuild_fraction: float | None = 0.2,
        pending_penalty: float = 1.0,
        n_shards: int = 1,
        jobs: int = 1,
        fill_level: int = 0,
    ):
        self._init_live()
        super().__init__(
            features,
            alpha=alpha,
            k=k,
            exact=exact,
            auto_rebuild_fraction=auto_rebuild_fraction,
            pending_penalty=pending_penalty,
            n_shards=n_shards,
            jobs=jobs,
            fill_level=fill_level,
        )
        self._artifact_n = self.n_total

    def _init_live(self) -> None:
        """Concurrency state, set up before any base-class machinery runs."""
        self._lock = threading.RLock()
        self._rebuild_ticket: RebuildTicket | None = None
        self._rebuild_thread: threading.Thread | None = None
        self._closed = False
        self.inserts = 0
        self.deletes = 0
        self.failed_rebuilds = 0
        #: Message of the most recent failed background rebuild (surfaced
        #: via :meth:`mutation_counts` -> ``/stats``); ``None`` after a
        #: success.  Auto-triggered rebuilds have no caller holding the
        #: ticket, so failures must be observable somewhere durable.
        self.last_rebuild_error: str | None = None
        self.last_swap_seconds: float | None = None
        self.total_swap_seconds = 0.0
        self.stall = _StallCounters()

    @classmethod
    def from_engine(
        cls,
        engine,
        k: int = 5,
        auto_rebuild_fraction: float | None = 0.2,
        pending_penalty: float = 1.0,
        jobs: int = 1,
        fill_level: int = 0,
    ) -> "LiveEngine":
        """Adopt an existing base engine (typically a loaded artifact).

        ``engine`` is a :class:`repro.core.MogulRanker` or
        :class:`repro.core.ShardedMogulRanker` with its feature graph
        attached; it becomes epoch 0 unchanged — no rebuild happens
        until the first one is due.  ``k`` is the k-NN degree future
        rebuild graphs use (pass the same value the serving graph was
        built with).

        Rebuilds replay the adopted engine's search configuration
        (``use_pruning`` / ``use_sparsity`` / ``cluster_order`` /
        ``query_jobs``) so a rebuilt epoch answers the same way epoch 0
        did.  ``fill_level``
        is *not* recorded in index artifacts — pass the value the
        artifact was built with if it was non-zero, or the first rebuild
        reverts to the paper's ICF (fill 0).
        """
        from repro.core.sharded import ShardedMogulRanker

        n_shards = (
            engine.index.n_shards
            if isinstance(engine, ShardedMogulRanker)
            else 1
        )
        live = cls.__new__(cls)
        live._init_live()
        live._init_params(
            np.asarray(engine.graph.features, dtype=np.float64),
            alpha=engine.alpha,
            k=k,
            exact=engine.index.factorization == "complete",
            auto_rebuild_fraction=auto_rebuild_fraction,
            pending_penalty=pending_penalty,
            n_shards=n_shards,
            jobs=jobs,
            fill_level=fill_level,
        )
        live.use_pruning = engine.use_pruning
        live.use_sparsity = getattr(engine, "use_sparsity", True)
        live.cluster_order = engine.cluster_order
        live.query_jobs = int(getattr(engine, "query_jobs", 1))
        live._epoch = cls._adopted_epoch(engine)
        live._artifact_n = live.n_total
        return live

    # -- engine protocol ---------------------------------------------------

    @property
    def name(self) -> str:
        return f"Live({self._epoch.ranker.name})"

    # -- thread-safe snapshots and mutations -------------------------------

    def _snapshot(self) -> LiveSnapshot:
        entered = time.perf_counter()
        with self._lock:
            waited = time.perf_counter() - entered
            snap = super()._snapshot()
        self.stall.observe(waited)
        obs_add_span(
            "live.snapshot",
            started=entered,
            epoch=snap.epoch.number,
            lock_wait_ms=1e3 * waited,
        )
        return snap

    @property
    def snapshot_stall_seconds(self) -> float:
        """Cumulative lock-wait on the query path (the critical-path stall)."""
        return self.stall.total_seconds

    @property
    def max_snapshot_stall_seconds(self) -> float:
        """Worst single query's lock-wait."""
        return self.stall.max_seconds

    def add(self, feature: np.ndarray) -> int:
        """Insert a point (thread-safe, O(1)).

        When the buffer outgrows ``auto_rebuild_fraction`` a *background*
        rebuild is triggered — the caller never waits for it.
        """
        feature = self._check_feature(feature)
        with self._lock:
            new_id = len(self._features)
            self._features.append(feature)
            self._pending_ids = self._pending_ids + (new_id,)
            self.inserts += 1
            due = self._auto_rebuild_due()
        self._notify_invalidation()
        if due:
            try:
                self.rebuild_async()
            except ValueError:  # pragma: no cover - <2 live points
                pass
        return new_id

    def remove(self, node: int) -> None:
        """Tombstone a point (thread-safe).

        Deletes count toward ``auto_rebuild_fraction`` like inserts do;
        a due rebuild runs in the background.
        """
        with self._lock:
            self._apply_remove(node)
            self.deletes += 1
            due = self._auto_rebuild_due() and self.n_live >= 2
        self._notify_invalidation()
        if due:
            self.rebuild_async()

    # -- rebuilds ----------------------------------------------------------

    @property
    def rebuild_in_flight(self) -> bool:
        """True while a background rebuild is running."""
        ticket = self._rebuild_ticket
        return ticket is not None and not ticket.done

    def rebuild_async(self) -> RebuildTicket:
        """Start a background rebuild; returns immediately with a ticket.

        At most one rebuild runs at a time: while one is in flight this
        returns its ticket instead of starting another (writes that land
        meanwhile stay pending and fold into the *next* rebuild).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            ticket = self._rebuild_ticket
            if ticket is not None and not ticket.done:
                return ticket
            snapshot_ids = self._live_ids()
            if snapshot_ids.shape[0] < 2:
                raise ValueError(
                    "cannot rebuild an index with fewer than 2 live points"
                )
            ticket = RebuildTicket()
            self._rebuild_ticket = ticket
            thread = threading.Thread(
                target=self._run_rebuild,
                args=(ticket, snapshot_ids),
                name="live-rebuild",
                daemon=True,
            )
            self._rebuild_thread = thread
            # Started under the lock: close() observes either no thread
            # or a started one — never a registered-but-unstarted thread
            # it would fail to join.
            thread.start()
        return ticket

    def rebuild(self) -> None:
        """Blocking rebuild: :meth:`rebuild_async` + wait.

        Same worker, same code path — a blocking rebuild is simply a
        background one the caller waits for, which is what keeps the two
        bitwise identical.
        """
        self.rebuild_async().result()

    def _run_rebuild(
        self, ticket: RebuildTicket, snapshot_ids: np.ndarray
    ) -> None:
        try:
            started = time.perf_counter()
            # Heavy: graph + factorization, entirely off the lock.  The
            # epoch number is provisional; the real one is stamped at
            # swap time under the lock.
            epoch = self._build_epoch(snapshot_ids, number=-1)
            ticket.build_seconds = time.perf_counter() - started
            self._install_epoch(epoch, snapshot_ids, ticket)
            if _malloc_trim is not None:
                # The build's k-NN panels (~90 MiB at n = 5000) are free
                # now, but glibc keeps their pages mapped between objects
                # allocated meanwhile, so every rebuild would raise the
                # floor under the next one's peak.  Hand them back (~1 ms).
                _malloc_trim(0)
            self.last_rebuild_error = None
            # Listeners (cache invalidation) fire before the ticket
            # resolves so a caller waiting on the rebuild can never race
            # a stale cache hit.
            self._notify_invalidation()
        except BaseException as error:
            ticket.error = error
            # Nobody may be holding the ticket (auto-rebuilds, fire-and-
            # forget POST /rebuild): make the failure operator-visible.
            self.failed_rebuilds += 1
            self.last_rebuild_error = f"{type(error).__name__}: {error}"
            logger.warning("background rebuild failed: %s", self.last_rebuild_error)
        finally:
            ticket._finished.set()

    def _install_epoch(self, epoch, snapshot_ids: np.ndarray, ticket) -> None:
        """Atomically publish a freshly built epoch (the only query stall)."""
        snapshot_set = set(int(g) for g in snapshot_ids)
        started = time.perf_counter()
        with self._lock:
            epoch = self._with_number(epoch, self._epoch.number + 1)
            self._publish_epoch(epoch)
            # Points the snapshot covered are now indexed; later writes
            # stay buffered for the next rebuild.  Tombstoned buffer
            # entries (deleted before ever being indexed) are dead — drop
            # them too, or they would haunt the buffer forever.
            self._pending_ids = tuple(
                gid
                for gid in self._pending_ids
                if gid not in snapshot_set and gid not in self._tombstones
            )
            self._rebuilds += 1
        swap = time.perf_counter() - started
        ticket.swap_seconds = swap
        ticket.epoch = epoch.number
        self.last_swap_seconds = swap
        self.total_swap_seconds += swap

    def rebuild_stop_the_world(self) -> float:
        """The pre-LiveEngine baseline: rebuild while *holding* the lock.

        Every concurrent query stalls for the whole build.  Kept only so
        benchmarks and tests can measure exactly what the background
        path removes; returns the build's duration in seconds.
        """
        started = time.perf_counter()
        with self._lock:
            if self.rebuild_in_flight:
                raise RuntimeError(
                    "cannot run a stop-the-world rebuild while a background "
                    "rebuild is in flight"
                )
            snapshot_ids = self._live_ids()
            if snapshot_ids.shape[0] < 2:
                raise ValueError(
                    "cannot rebuild an index with fewer than 2 live points"
                )
            self._publish_epoch(
                self._build_epoch(snapshot_ids, number=self._epoch.number + 1)
            )
            self._pending_ids = ()
            self._rebuilds += 1
        self._notify_invalidation()
        return time.perf_counter() - started

    def close(self, timeout: float = 60.0) -> None:
        """Refuse new rebuilds and wait out any in-flight one (idempotent)."""
        with self._lock:
            self._closed = True
            thread = self._rebuild_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    # -- introspection / persistence --------------------------------------

    def mutation_counts(self) -> dict:
        """Counters for ``/stats``, ``repro info`` and tests (consistent)."""
        with self._lock:
            return {
                "epoch": self._epoch.number,
                "inserts": self.inserts,
                "deletes": self.deletes,
                "rebuilds": self._rebuilds,
                "n_indexed": self._epoch.n_indexed,
                "n_pending": len(self._pending_ids),
                "n_tombstones": len(self._tombstones),
                "n_live": self.n_live,
                "n_total": self.n_total,
                "rebuild_in_flight": self.rebuild_in_flight,
                "failed_rebuilds": self.failed_rebuilds,
                "last_rebuild_error": self.last_rebuild_error,
                "last_swap_seconds": self.last_swap_seconds,
                "total_swap_seconds": self.total_swap_seconds,
                "max_query_stall_seconds": self.stall.max_seconds,
            }

    def mutable_state(self) -> LiveState:
        """The persistable write-ahead state, relative to the artifact.

        ``pending`` here means *not covered by the on-disk index* — the
        union of the live buffer and everything in-memory rebuilds have
        folded in since the artifact was built (see :class:`LiveState`).
        """
        with self._lock:
            base_n = self._artifact_n
            pending = base_n + np.flatnonzero(self._live_mask()[base_n:])
            features = (
                np.asarray([self._features[g] for g in pending])
                if pending.size
                else np.empty((0, self._dim), dtype=np.float64)
            )
            return LiveState(
                epoch=self._epoch.number,
                n_indexed=base_n,
                n_total=self.n_total,
                pending_ids=pending,
                pending_features=features,
                tombstones=np.asarray(sorted(self._tombstones), dtype=np.int64),
                inserts=self.inserts,
                deletes=self.deletes,
                rebuilds=self._rebuilds,
                feature_dim=self._dim,
            )

    def restore_mutable_state(self, state: LiveState) -> None:
        """Replay a persisted :class:`LiveState` into a fresh engine.

        Must be called before any mutation, on an engine adopted from
        the same artifact the state was saved against.  Ids land exactly
        where they were: indexed ids 0..n_indexed-1 come from the
        artifact, persisted pending points re-enter the buffer, and ids
        that died between rebuilds stay tombstoned placeholders (their
        features are gone, but they can never be queried or answered).
        """
        with self._lock:
            if self._pending_ids or self._tombstones or self._epoch.number:
                raise RuntimeError(
                    "restore_mutable_state requires a freshly adopted engine"
                )
            if state.n_indexed != self.n_total:
                raise ValueError(
                    f"live state was saved against an index of "
                    f"{state.n_indexed} nodes, this engine serves "
                    f"{self.n_total}"
                )
            if state.feature_dim != self._dim:
                raise ValueError(
                    f"live state has feature dimension {state.feature_dim}, "
                    f"this engine serves {self._dim}"
                )
            n_extra = state.n_total - state.n_indexed
            if n_extra < 0:
                raise ValueError("corrupt live state: n_total < n_indexed")
            if state.pending_ids.shape[0] != state.pending_features.shape[0]:
                raise ValueError(
                    "corrupt live state: pending ids and features disagree"
                )
            # Dead ids (tombstoned after the artifact) get zero
            # placeholders: addressable, never answerable.
            extra: list[np.ndarray] = [
                np.zeros(self._dim, dtype=np.float64) for _ in range(n_extra)
            ]
            tombstones = set(int(g) for g in state.tombstones)
            pending_set = set(int(g) for g in state.pending_ids)
            for gid, feature in zip(state.pending_ids, state.pending_features):
                gid = int(gid)
                if not state.n_indexed <= gid < state.n_total:
                    raise ValueError(
                        f"corrupt live state: pending id {gid} outside "
                        f"[{state.n_indexed}, {state.n_total})"
                    )
                extra[gid - state.n_indexed] = np.asarray(
                    feature, dtype=np.float64
                )
            for gid in range(state.n_indexed, state.n_total):
                if gid not in tombstones and gid not in pending_set:
                    raise ValueError(
                        f"corrupt live state: id {gid} is neither pending "
                        "nor tombstoned"
                    )
            self._features.extend(extra)
            self._pending_ids = tuple(int(g) for g in state.pending_ids)
            self._tombstones = frozenset(tombstones)
            self._publish_epoch(self._with_number(self._epoch, int(state.epoch)))
            self.inserts = int(state.inserts)
            self.deletes = int(state.deletes)
            self._rebuilds = int(state.rebuilds)
        self._notify_invalidation()
