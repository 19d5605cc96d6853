"""A mutable, thread-safe database on top of the static Mogul index.

The paper builds a static index (Algorithm 1 + the factorization are
query independent, Lemma 2) and §4.6.2 handles query points *outside*
the database by seeding their nearest in-database neighbours into the
query vector.  :class:`LiveEngine` turns that same mechanism into a
practical **insert path**, the way buffered search indexes (IVF insert
buffers, LSM memtables) absorb writes between rebuilds — and, because
all of Mogul's heavy lifting is query independent (Lemma 2 / §4.2.2),
cheap enough to *re-run as the database changes*, it re-runs it in the
background while serving:

* **Insert** (:meth:`LiveEngine.add`) appends the new feature to a
  pending buffer — O(1), no factorization and no k-NN work.
* **Query**: answers come from the base index as usual; every pending
  point additionally receives the *generalized Manifold Ranking
  estimate* of He et al. [7] — the similarity-weighted average of its
  in-database neighbours' scores, exactly the quantity the paper's
  out-of-sample treatment is built on, read in the opposite direction —
  and competes for the top-k on that estimate.
* **Delete** (:meth:`LiveEngine.remove`) tombstones a node: it stays in
  the graph (its edges still carry smoothness information, like a
  deleted-but-unmerged document in an LSM tree) but can no longer be
  returned as an answer.
* **Rebuild** (:meth:`LiveEngine.rebuild_async`) folds the buffer and
  the tombstones into a fresh graph + index.  With
  ``auto_rebuild_fraction`` set, a rebuild triggers automatically once
  the buffered inserts plus the deletes still inside the index outgrow
  that fraction of the database — the classic amortisation: n writes
  cost one O(n) rebuild.

The estimate for pending points is an approximation (the paper's §4.6.2
argument): tests bound its error against a full rebuild.

Concurrency
-----------
* **Mutations** (``add`` / ``remove``) take a short mutation lock —
  microseconds, never the build.
* **Queries** capture one :class:`LiveSnapshot` under the same lock (the
  *only* blocking a query can experience) and then run entirely
  lock-free against the immutable epoch they saw (see *Epoch-versioned
  state* below).
* **Rebuilds** snapshot the live id set, build the new graph + index on
  a background worker thread, and *atomically swap* the fresh
  :class:`EngineEpoch` in under the mutation lock — the swap is a
  reference assignment, a pending-buffer prune and a tombstone recount
  (the deletes the new epoch still holds), so the serving-visible stall
  is the lock hold of the swap, not the build.  A blocking
  :meth:`LiveEngine.rebuild` is the same background rebuild, waited
  for, so the two are **bitwise identical**.

The engine exposes critical-path instrumentation
(:attr:`snapshot_stall_seconds`, :attr:`last_swap_seconds`) because on a
single-CPU host a background rebuild *time-shares* with queries: the
honest measure of "queries never block on a rebuild" is the lock-wait on
the query path, not wall-clock overlap.  The benchmark suite records
the rebuild as ``core.live.rebuild_s``, and its ``http_mutable_mix``
workload the worst query stall under mixed reads and writes
(``core.live.max_snapshot_stall_ms``).

What a read costs
-----------------
Only the score field is per query.  A pending point's neighbours and
normalised weights depend on the epoch and its feature alone, so the
first read after an insert computes them — one one-row k-NN search —
and every later read on that epoch reuses them: **one k-NN row per
pending point per epoch**.  Each row is computed on its own (never as
part of a batch, whose BLAS rounding depends on the batch shape), so two
engines that reach one state through different histories answer bitwise
alike.  A rebuild starts a fresh memo; deleting a pending point drops
only its own row.

The base index is asked for ``k + 1`` answers plus one per tombstone it
can still return — **the deletes since the last rebuild**, not every
delete ever made (a rebuild drops tombstoned nodes from the graph, so
older deletes cannot come back from it).

What a rebuild costs
--------------------
An epoch whose graph the blas engine built keeps that pass's exact k-NN
state (:class:`repro.graph.knn.KnnState`), and the next rebuild derives
its neighbour lists from it (:func:`repro.graph.knn.knn_update`): the
inserts are nominated against every old row in one float32 panel and
only the new rows, plus any row whose list no longer certifies, search
all points.  Every row is certified, and any that fails sends the
rebuild through the full search, so the graph is bitwise
``build_knn_graph`` on the same ids either way.  A base without state —
loaded, restored, or brute-built — also rebuilds in full;
``mutation_counts`` counts the two paths.

Epoch-versioned state
---------------------
All base-index state lives in one immutable :class:`EngineEpoch` value
(graph + engine + the global-id mapping) and every query entry point
captures one :class:`LiveSnapshot` — the epoch plus the pending buffer
and tombstone set — *once*, then answers entirely against it.  A query
therefore always describes a single consistent database state — no
interleaving can mix pre- and post-rebuild id mappings, because the
mapping travels inside the snapshot — which is what makes lock-free
concurrent serving possible: a background rebuild publishes a fresh
epoch with one reference swap while in-flight queries keep draining
against the epoch they started on.

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
import dataclasses
import logging
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.batch import BatchStats
from repro.core.index import MogulRanker
from repro.core.search import SearchStats
from repro.core.topk import dedupe_ranked
from repro.graph.adjacency import KnnGraph
from repro.graph.build import graph_from_neighbours
from repro.graph.knn import KnnState, knn_search, knn_search_with_state, knn_update
from repro.obs.trace import add_span as obs_add_span
from repro.ranking.base import DEFAULT_ALPHA, AmbientStatsMixin, TopKResult
from repro.utils.validation import check_alpha, check_positive_int

logger = logging.getLogger(__name__)

try:  # glibc only; elsewhere the allocator keeps its own policy
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # pragma: no cover - not glibc
    _malloc_trim = None


@dataclass(frozen=True, eq=False)
class EngineEpoch:
    """One immutable generation of the base index.

    Everything a query needs from the indexed side of the database:
    the feature graph, the engine answering against it, and the mapping
    between index-local rows and stable global ids.  Instances are never
    mutated — a rebuild constructs a new one and swaps the reference.
    """

    #: Generation counter: 0 for the initial build, +1 per rebuild.
    number: int
    graph: KnnGraph
    #: The base :class:`repro.core.engine.Engine` (single or sharded).
    ranker: object
    #: Global id served by each index-local row, in index order.
    indexed_ids: np.ndarray
    #: Inverse of ``indexed_ids``: global id -> index-local row.
    local_by_global: dict
    #: The exact k-NN lists the next rebuild derives its own from (``None``
    #: when the graph was not built by the blas engine, e.g. loaded).
    knn_state: KnnState | None = None
    #: True when :func:`repro.graph.knn.knn_update` built this graph.
    knn_incremental: bool = False

    @property
    def index(self):
        return self.ranker.index

    @property
    def n_indexed(self) -> int:
        return int(self.indexed_ids.shape[0])


@dataclass(frozen=True, eq=False)
class LiveSnapshot:
    """What one query run sees: a single epoch plus the write buffer.

    Captured once at query entry, under the mutation lock; the whole
    answer is computed from these values, so concurrent mutations can
    never produce a torn read mixing two database states.
    """

    epoch: EngineEpoch
    pending: tuple
    tombstones: frozenset
    n_total: int
    #: ``|tombstones ∩ epoch.indexed_ids|``: the deleted nodes the base
    #: index can still return, i.e. what a read must over-fetch for.
    indexed_tombstones: int


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


class LiveEngine(AmbientStatsMixin):
    """Mogul with buffered insertions and tombstone deletions, thread-safe.

    Node ids are *stable across rebuilds*: the i-th point ever added
    (counting the initial features first) keeps id ``i`` forever; deleted
    ids are never reused.

    * All entry points are thread-safe (one mutation lock, held only
      for O(buffer) work — never a build).
    * Automatic rebuilds run in the background instead of blocking the
      inserting caller.
    * :meth:`rebuild` delegates to :meth:`rebuild_async` and waits, so
      blocking and background rebuilds are the same code path (and
      bitwise identical for the same buffer snapshot).

    Answers are fully thread-safe.  The informational stats attributes
    (``last_stats`` / ``last_batch_stats``) are thread-local (see
    :class:`repro.ranking.base.AmbientStatsMixin`), so under concurrent
    calls — a library caller beside the serving scheduler's engine
    thread, or a background rebuild — each thread reads back exactly
    its own call's counters.

    Parameters
    ----------
    features:
        Initial ``(n, m)`` database.
    alpha:
        Damping parameter (paper uses 0.99).
    k:
        k-NN graph degree (paper uses 5).
    exact:
        Build MogulE (Modified Cholesky) indexes instead.
    auto_rebuild_fraction:
        Rebuild when ``(pending + deletes still indexed) / indexed``
        exceeds this fraction (``None`` disables automatic rebuilds).
    n_shards:
        Serve the base index through the sharded engine
        (:class:`repro.core.ShardedMogulRanker`) with this many shards.
        Queries, inserts and deletes route to the owning shard through
        the engine's scatter-gather router; rebuilds rebuild every
        shard.  1 (default) keeps the single-index engine — answers are
        identical either way.
    fill_level:
        ILU(p)-style fill budget replayed by every (re)build (0 = the
        paper's ICF).
    """

    def __init__(
        self,
        features: np.ndarray,
        alpha: float = DEFAULT_ALPHA,
        k: int = 5,
        exact: bool = False,
        auto_rebuild_fraction: float | None = 0.2,
        n_shards: int = 1,
        fill_level: int = 0,
    ):
        features = np.asarray(features, dtype=np.float64)
        self._init_params(
            features,
            alpha=alpha,
            k=k,
            exact=exact,
            auto_rebuild_fraction=auto_rebuild_fraction,
            n_shards=n_shards,
            fill_level=fill_level,
        )
        self._epoch = self._build_epoch(
            np.arange(features.shape[0], dtype=np.int64), number=0
        )

    def _init_params(
        self,
        features: np.ndarray,
        alpha: float,
        k: int,
        exact: bool,
        auto_rebuild_fraction: float | None,
        n_shards: int,
        fill_level: int = 0,
    ) -> None:
        """Validate parameters and set up the mutable (non-epoch) state."""
        if features.ndim != 2 or features.shape[0] < 2:
            raise ValueError(
                f"features must be a 2-D matrix with at least 2 rows, "
                f"got shape {features.shape}"
            )
        self.alpha = check_alpha(alpha)
        self.k = check_positive_int(k, "k")
        self.exact = exact
        if auto_rebuild_fraction is not None and auto_rebuild_fraction <= 0:
            raise ValueError(
                f"auto_rebuild_fraction must be positive or None, "
                f"got {auto_rebuild_fraction}"
            )
        self.auto_rebuild_fraction = auto_rebuild_fraction
        self.n_shards = check_positive_int(n_shards, "n_shards")

        self._dim = features.shape[1]
        #: Callbacks fired after every mutation (insert/delete/rebuild) —
        #: the hook result caches use to drop stale answers.
        self._invalidation_listeners: list[Callable[[], None]] = []
        #: Global id -> feature, append-only.
        self._features: list[np.ndarray] = [row for row in features]
        #: Ids the on-disk artifact (or the initial build) covers.
        self._artifact_n = len(self._features)
        #: Copy-on-write: mutations publish a *new* frozenset/tuple, so a
        #: query snapshot is three reference reads — never an O(buffer)
        #: copy under the mutation lock.
        self._tombstones: frozenset[int] = frozenset()
        self._pending_ids: tuple[int, ...] = ()
        #: ``|tombstones ∩ served epoch's ids|``, kept current by
        #: :meth:`_apply_remove` and :meth:`_publish_epoch`.
        self._indexed_tombstones = 0
        #: epoch -> {pending id: (neighbour rows, normalised weights)}.
        #: Weak on the epoch so a retired epoch is never pinned by it.
        self._neighbour_memo = weakref.WeakKeyDictionary()
        self._rebuilds = 0
        #: Build/search configuration replayed by every rebuild (so a
        #: rebuilt epoch is the same kind of index as the original).
        self.fill_level = fill_level
        self.use_pruning = True
        self.use_sparsity = True
        self.cluster_order = "index"
        # Stats of the most recent single / batched query (the
        # :class:`repro.core.engine.Engine` protocol surface).  These
        # assignments route through AmbientStatsMixin's thread-local
        # descriptors, so concurrent queries never tear each other's.
        self.last_stats = None
        self.last_batch_stats = None

        # Concurrency state.
        self._lock = threading.RLock()
        self._rebuild_ticket: RebuildTicket | None = None
        self._rebuild_thread: threading.Thread | None = None
        self._closed = False
        self.inserts = 0
        self.deletes = 0
        self.failed_rebuilds = 0
        #: Rebuilds (this process) whose k-NN came from the previous
        #: epoch's lists, and those that ran the full search.
        self.knn_incremental_rebuilds = 0
        self.knn_full_rebuilds = 0
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
        (``use_pruning`` / ``use_sparsity`` / ``cluster_order``) so a
        rebuilt epoch answers the same way epoch 0 did.  ``fill_level``
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
        live._init_params(
            np.asarray(engine.graph.features, dtype=np.float64),
            alpha=engine.alpha,
            k=k,
            exact=engine.index.factorization == "complete",
            auto_rebuild_fraction=auto_rebuild_fraction,
            n_shards=n_shards,
            fill_level=fill_level,
        )
        live.use_pruning = engine.use_pruning
        live.use_sparsity = getattr(engine, "use_sparsity", True)
        live.cluster_order = engine.cluster_order
        n = engine.graph.n_nodes
        live._epoch = EngineEpoch(
            number=0,
            graph=engine.graph,
            ranker=engine,
            indexed_ids=np.arange(n, dtype=np.int64),
            local_by_global={i: i for i in range(n)},
        )
        return live

    # -- sizes -----------------------------------------------------------

    @property
    def n_total(self) -> int:
        """All ids ever created (including tombstoned ones)."""
        return len(self._features)

    @property
    def n_nodes(self) -> int:
        """Engine-protocol alias: the addressable id range is [0, n_total)."""
        return self.n_total

    @property
    def n_live(self) -> int:
        """Ids that can be returned as answers."""
        return self.n_total - len(self._tombstones)

    @property
    def n_pending(self) -> int:
        """Points buffered since the last rebuild."""
        return len(self._pending_ids)

    @property
    def n_indexed(self) -> int:
        """Points inside the base index."""
        return self._epoch.n_indexed

    @property
    def rebuild_count(self) -> int:
        """Number of rebuilds performed (auto + manual)."""
        return self._rebuilds

    @property
    def epoch(self) -> int:
        """Generation counter of the currently served base index."""
        return self._epoch.number

    @property
    def name(self) -> str:
        """Human-readable method name (Engine protocol)."""
        return f"Live({self._epoch.ranker.name})"

    @property
    def graph(self) -> KnnGraph:
        """The current epoch's feature graph (Engine protocol)."""
        return self._epoch.graph

    @property
    def index(self):
        """The current epoch's index artifact."""
        return self._epoch.ranker.index

    @property
    def engine(self):
        """The base :class:`repro.core.engine.Engine` answering queries."""
        return self._epoch.ranker

    # -- thread-safe snapshots and mutations -------------------------------

    def _snapshot(self) -> LiveSnapshot:
        """Capture one consistent view of the database for a query run.

        Taking the mutation lock here is the *only* synchronization
        queries need.  The buffer and tombstone values are copy-on-write
        immutables, so this is a few reference reads — O(1) regardless
        of buffer size.
        """
        entered = time.perf_counter()
        with self._lock:
            waited = time.perf_counter() - entered
            snap = LiveSnapshot(
                epoch=self._epoch,
                pending=self._pending_ids,
                tombstones=self._tombstones,
                n_total=len(self._features),
                indexed_tombstones=self._indexed_tombstones,
            )
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

    def add_invalidation_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` after every mutation that changes answers.

        Inserts, deletes and rebuilds all change what a correct top-k
        response is; anything caching served results (e.g.
        :class:`repro.service.ResultCache`) registers here to be told.
        Listeners must be idempotent — a single ``add`` that triggers an
        automatic rebuild notifies twice.
        """
        self._invalidation_listeners.append(listener)

    def _notify_invalidation(self) -> None:
        for listener in self._invalidation_listeners:
            listener()

    def add(self, feature: np.ndarray) -> int:
        """Insert a point (thread-safe, O(1)); returns its permanent id.

        The point lands in the pending buffer.  When the buffer outgrows
        ``auto_rebuild_fraction`` a *background* rebuild is triggered —
        the caller never waits for it.
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

    def _check_feature(self, feature: np.ndarray) -> np.ndarray:
        feature = np.asarray(feature, dtype=np.float64)
        if feature.shape != (self._dim,):
            raise ValueError(
                f"feature must have shape ({self._dim},), got {feature.shape}"
            )
        return feature

    def _auto_rebuild_due(self) -> bool:
        """Buffered inserts plus deletes the index still holds are due.

        Deletes count too: each one the served epoch still holds widens
        every read's over-fetch, so a delete-heavy database must rebuild
        as surely as an insert-heavy one.
        """
        return (
            self.auto_rebuild_fraction is not None
            and self.n_pending + self._indexed_tombstones
            > self.auto_rebuild_fraction * max(1, self.n_indexed)
        )

    def remove(self, node: int) -> None:
        """Tombstone a point (thread-safe): it is never returned again.

        The point's edges keep contributing to score smoothness until the
        next rebuild, at which point it leaves the graph entirely.
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

    def _apply_remove(self, node: int) -> None:
        """Validate and record one delete (callers hold the mutation lock)."""
        if not 0 <= node < self.n_total:
            raise ValueError(f"node {node} does not exist")
        if node in self._tombstones:
            raise ValueError(f"node {node} is already removed")
        self._tombstones = self._tombstones | {node}
        if node in self._epoch.local_by_global:
            self._indexed_tombstones += 1
        if node in self._pending_ids:
            # A buffered point that dies before ever being indexed has
            # nothing left to contribute — drop it from the buffer, and
            # its memoized neighbours with it (no other row changes).
            self._pending_ids = tuple(
                gid for gid in self._pending_ids if gid != node
            )
            rows = self._neighbour_memo.get(self._epoch)
            if rows is not None:
                rows.pop(node, None)

    def _live_mask(self) -> np.ndarray:
        """Boolean mask over ``[0, n_total)``: True where not tombstoned."""
        mask = np.ones(len(self._features), dtype=bool)
        mask[np.fromiter(self._tombstones, dtype=np.int64)] = False
        return mask

    def _live_ids(self) -> np.ndarray:
        """Every non-tombstoned global id, ascending."""
        return np.flatnonzero(self._live_mask()).astype(np.int64, copy=False)

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
            # The epoch the snapshot is taken against: its k-NN lists
            # are what the new ones are derived from.
            thread = threading.Thread(
                target=self._run_rebuild,
                args=(ticket, snapshot_ids, self._epoch),
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
        self, ticket: RebuildTicket, snapshot_ids: np.ndarray, base: EngineEpoch
    ) -> None:
        try:
            started = time.perf_counter()
            # Heavy: graph + factorization, entirely off the lock.  The
            # epoch number is provisional; the real one is stamped at
            # swap time under the lock.
            epoch = self._build_epoch(snapshot_ids, number=-1, base=base)
            ticket.build_seconds = time.perf_counter() - started
            self._install_epoch(epoch, snapshot_ids, ticket)
            if _malloc_trim is not None:
                # A full k-NN search's transients (a traced peak of ~43
                # MiB at n = 5000, m = 128: the float32 panel, one 128-row
                # candidate partition and the re-rank gather; incremental
                # rebuilds allocate a few MiB) are free now, but glibc
                # keeps their pages mapped between objects allocated
                # meanwhile, so every full rebuild would raise the floor
                # under the next one's peak.  Hand them back (~1 ms).
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
            epoch = dataclasses.replace(epoch, number=self._epoch.number + 1)
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
            if epoch.knn_incremental:
                self.knn_incremental_rebuilds += 1
            else:
                self.knn_full_rebuilds += 1
        swap = time.perf_counter() - started
        ticket.swap_seconds = swap
        ticket.epoch = epoch.number
        self.last_swap_seconds = swap
        self.total_swap_seconds += swap

    def _publish_epoch(self, epoch: EngineEpoch) -> None:
        """Serve ``epoch`` from now on (swap, restore; callers hold the lock).

        Recounts the tombstones the new epoch can return and drops the
        pending-neighbour memo: rows are per epoch, so none carry over.
        """
        self._epoch = epoch
        local = epoch.local_by_global
        self._indexed_tombstones = sum(1 for gid in self._tombstones if gid in local)
        # A fresh mapping, not ``clear()``: a reader still on the old epoch
        # may insert into whichever mapping it sees, and the weak key
        # keeps even that from pinning the retired epoch.
        self._neighbour_memo = weakref.WeakKeyDictionary()

    def close(self, timeout: float = 60.0) -> None:
        """Refuse new rebuilds and wait out any in-flight one (idempotent)."""
        with self._lock:
            self._closed = True
            thread = self._rebuild_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    # -- queries ----------------------------------------------------------

    def top_k(self, query: int, k: int, exclude_query: bool = True) -> TopKResult:
        """Top-k live points for a query id (indexed or pending).

        An indexed query runs Algorithm 2 on the base index; a pending
        query runs the out-of-sample path on its feature.  Pending points
        compete for answers with their He-et-al. estimates.
        """
        k = check_positive_int(k, "k")
        snap = self._snapshot()
        self._check_query_id(snap, query)
        ranker = snap.epoch.ranker
        local = snap.epoch.local_by_global.get(int(query))
        overfetch = k + 1 + snap.indexed_tombstones
        if local is not None:
            base = ranker.top_k(int(local), overfetch, exclude_query=False)
            field_fn = lambda: ranker.scores(int(local))  # noqa: E731
        else:
            feature = self._features[query]
            base = ranker.top_k_out_of_sample(feature, overfetch)
            field_fn = lambda: self._score_field(snap, feature)  # noqa: E731
        indices, scores = self._merge_pending(snap, base, field_fn)
        self.last_stats = ranker.last_stats
        skip = query if exclude_query else -1
        return _take_live(indices, scores, snap.tombstones, k, skip)

    def top_k_batch(
        self, queries, k: int, exclude_query: bool = True
    ) -> list[TopKResult]:
        """Answer many queries at once; identical to per-query :meth:`top_k`.

        Indexed queries run through the base engine's batched execution
        path (one shared multi-RHS pass — scatter-gathered when the base
        engine is sharded); pending queries go through the batched
        out-of-sample path; the pending-buffer merge then runs per query
        exactly as in :meth:`top_k`.
        """
        k = check_positive_int(k, "k")
        snap = self._snapshot()
        ranker = snap.epoch.ranker
        queries = [int(q) for q in queries]
        for query in queries:
            self._check_query_id(snap, query)
        overfetch = k + 1 + snap.indexed_tombstones
        indexed_rows = [
            (i, snap.epoch.local_by_global.get(q)) for i, q in enumerate(queries)
        ]
        indexed = [(i, local) for i, local in indexed_rows if local is not None]
        pending = [i for i, local in indexed_rows if local is None]
        base_results: list[TopKResult | None] = [None] * len(queries)
        per_query_stats: list[SearchStats] = [SearchStats()] * len(queries)
        if indexed:
            batch = ranker.top_k_batch(
                np.asarray([local for _, local in indexed], dtype=np.int64),
                overfetch,
                exclude_query=False,
            )
            stats = _read_batch_stats(ranker, len(batch))
            for (i, _), result, stat in zip(indexed, batch, stats):
                base_results[i] = result
                per_query_stats[i] = stat
        if pending:
            feats = np.asarray([self._features[queries[i]] for i in pending])
            batch = ranker.top_k_out_of_sample_batch(feats, overfetch)
            stats = _read_batch_stats(ranker, len(batch))
            for i, result, stat in zip(pending, batch, stats):
                base_results[i] = result
                per_query_stats[i] = stat
        answers: list[TopKResult] = []
        for i, query in enumerate(queries):
            local = indexed_rows[i][1]
            if local is not None:
                field_fn = lambda local=local: ranker.scores(int(local))  # noqa: E731
            else:
                feature = self._features[query]
                field_fn = lambda feature=feature: self._score_field(  # noqa: E731
                    snap, feature
                )
            indices, scores = self._merge_pending(snap, base_results[i], field_fn)
            skip = query if exclude_query else -1
            answers.append(_take_live(indices, scores, snap.tombstones, k, skip))
        self.last_batch_stats = BatchStats(per_query=tuple(per_query_stats))
        return answers

    def top_k_out_of_sample(
        self, feature: np.ndarray, k: int, n_probe: int = 1
    ) -> TopKResult:
        """Top-k live points for a feature vector outside the database."""
        k = check_positive_int(k, "k")
        feature = self._check_feature(feature)
        snap = self._snapshot()
        ranker = snap.epoch.ranker
        overfetch = k + snap.indexed_tombstones
        base = ranker.top_k_out_of_sample(feature, overfetch, n_probe=n_probe)
        indices, scores = self._merge_pending(
            snap, base, lambda: self._score_field(snap, feature)
        )
        self.last_stats = ranker.last_stats
        return _take_live(indices, scores, snap.tombstones, k)

    def top_k_out_of_sample_batch(
        self, features: np.ndarray, k: int, n_probe: int = 1
    ) -> list[TopKResult]:
        """Batched out-of-sample queries; identical to the sequential path."""
        k = check_positive_int(k, "k")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self._dim:
            raise ValueError(
                f"features must have shape (b, {self._dim}), "
                f"got {features.shape}"
            )
        snap = self._snapshot()
        ranker = snap.epoch.ranker
        overfetch = k + snap.indexed_tombstones
        base_results = ranker.top_k_out_of_sample_batch(
            features, overfetch, n_probe=n_probe
        )
        per_query_stats = _read_batch_stats(ranker, len(base_results))
        answers: list[TopKResult] = []
        for row in range(features.shape[0]):
            feature = features[row]
            indices, scores = self._merge_pending(
                snap,
                base_results[row],
                lambda feature=feature: self._score_field(snap, feature),
            )
            answers.append(_take_live(indices, scores, snap.tombstones, k))
        self.last_batch_stats = BatchStats(per_query=per_query_stats)
        return answers

    # -- internals --------------------------------------------------------

    def _check_query_id(self, snap: LiveSnapshot, query: int) -> None:
        if not 0 <= query < snap.n_total:
            raise ValueError(f"query {query} does not exist")
        if query in snap.tombstones:
            raise ValueError(f"query {query} was removed")

    def _build_epoch(
        self,
        indexed_ids: np.ndarray,
        number: int,
        base: EngineEpoch | None = None,
    ) -> EngineEpoch:
        """Build a fresh base index over ``indexed_ids`` (pure function).

        Every rebuild, blocking or background, calls exactly this on its
        id snapshot and the epoch it was taken against — which is what
        makes them bitwise identical.  The k-NN lists are derived from
        ``base``'s when :func:`repro.graph.knn.knn_update` certifies every
        row, and searched in full otherwise; the graph is bitwise
        ``build_knn_graph(features, k)`` either way.
        """
        features = np.asarray([self._features[g] for g in indexed_ids])
        lists = None
        if base is not None and base.knn_state is not None:
            old_to_new, inserted = _id_moves(base.indexed_ids, indexed_ids)
            lists = knn_update(base.knn_state, features, old_to_new, inserted)
        incremental = lists is not None
        if lists is None:
            lists = knn_search_with_state(features, self.k)
        nbr_idx, nbr_dist, knn_state = lists
        graph = graph_from_neighbours(features, nbr_idx, nbr_dist)
        if self.n_shards > 1:
            from repro.core.sharded import ShardedMogulRanker

            ranker = ShardedMogulRanker(
                graph,
                self.n_shards,
                alpha=self.alpha,
                exact=self.exact,
                fill_level=self.fill_level,
                use_pruning=self.use_pruning,
                cluster_order=self.cluster_order,
            )
        else:
            ranker = MogulRanker(
                graph,
                alpha=self.alpha,
                exact=self.exact,
                fill_level=self.fill_level,
                use_pruning=self.use_pruning,
                use_sparsity=self.use_sparsity,
                cluster_order=self.cluster_order,
            )
        local_by_global = {
            int(gid): local for local, gid in enumerate(indexed_ids)
        }
        return EngineEpoch(
            number=number,
            graph=graph,
            ranker=ranker,
            indexed_ids=np.asarray(indexed_ids, dtype=np.int64),
            local_by_global=local_by_global,
            knn_state=knn_state,
            knn_incremental=incremental,
        )

    def _merge_pending(
        self, snap: LiveSnapshot, base: TopKResult, field_fn
    ) -> tuple[np.ndarray, np.ndarray]:
        """Translate base answers to global ids and splice in pending points.

        A pending point's score is the similarity-weighted average of its
        in-database neighbours' scores (generalized MR estimate [7]) over
        the same approximate score field the base answers were ranked by;
        ``field_fn`` produces that field lazily (it costs one solve, paid
        only when the buffer is non-empty).  The neighbours and weights
        come from the per-epoch memo (:meth:`_pending_slots`), and all the
        estimates from one batched product, bitwise each row's ``np.dot``.
        """
        epoch = snap.epoch
        base_global = epoch.indexed_ids[base.indices]
        if not snap.pending:
            return base_global, base.scores.copy()
        field = field_fn()
        memo, slots = self._pending_slots(epoch, snap.pending)
        rows, weights = memo.rows[slots], memo.weights[slots]
        estimates = (weights[:, None, :] @ field[rows][:, :, None])[:, 0, 0]
        merged_ids = np.concatenate(
            [base_global, np.asarray(snap.pending, dtype=np.int64)]
        )
        merged_scores = np.concatenate([base.scores, estimates])
        return merged_ids, merged_scores

    def _pending_slots(
        self, epoch: EngineEpoch, pending: tuple
    ) -> tuple[_NeighbourMemo, np.ndarray]:
        """The epoch's memo and each pending id's slot in its stacked rows.

        Memoized per (epoch, id) and filled here, on the read path: each
        id costs one one-row k-NN search per epoch.  Concurrent readers
        may both compute a missing row; the row is a pure function of
        (epoch, feature), so whichever fill lands first is the same value.
        """
        memo = self._neighbour_memo.get(epoch)
        if memo is None:
            memo = self._neighbour_memo.setdefault(
                epoch, _NeighbourMemo(min(self.k, epoch.n_indexed))
            )
        slots = []
        for gid in pending:
            entry = memo.get(gid)
            if entry is None:
                row = self._neighbour_row(epoch, self._features[gid])
                entry = memo.fill(gid, *row)
            slots.append(entry[0])
        return memo, np.asarray(slots, dtype=np.int64)

    def _neighbour_row(
        self, epoch: EngineEpoch, feature: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One point's base neighbours and normalised heat-kernel weights.

        Always a one-row query: a batched search's BLAS rounding depends
        on the batch shape, and a row must not depend on which other
        points happened to be computed with it.
        """
        count = min(self.k, epoch.n_indexed)
        idx, dist = knn_search(epoch.graph.features, count, queries=feature[None, :])
        sigma = epoch.graph.sigma
        if sigma > 0:
            weights = np.exp(-np.square(dist[0]) / (2.0 * sigma * sigma))
        else:
            weights = np.ones(count)
        total = float(weights.sum())
        if total <= 0:
            weights = np.full(count, 1.0 / count)
        else:
            weights = weights / total
        return idx[0], weights

    def _score_field(
        self, snap: LiveSnapshot, seed_feature: np.ndarray
    ) -> np.ndarray:
        """Approximate scores of every indexed node for this query."""
        from repro.core.out_of_sample import build_query_seeds

        epoch = snap.epoch
        index = epoch.index
        seeds = build_query_seeds(
            seed_feature,
            index.cluster_means,
            index.cluster_members,
            epoch.graph.features,
            n_neighbors=self.k,
            sigma=epoch.graph.sigma,
        )
        q = np.zeros(epoch.n_indexed, dtype=np.float64)
        q[seeds.nodes] = seeds.weights
        return epoch.ranker.scores_for_vector(q)

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
                "knn_incremental_rebuilds": self.knn_incremental_rebuilds,
                "knn_full_rebuilds": self.knn_full_rebuilds,
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
            self._publish_epoch(
                dataclasses.replace(self._epoch, number=int(state.epoch))
            )
            self.inserts = int(state.inserts)
            self.deletes = int(state.deletes)
            self._rebuilds = int(state.rebuilds)
        self._notify_invalidation()


class _NeighbourMemo(dict):
    """One epoch's pending-point rows: ``gid -> (slot, rows, weights)``.

    Each filled row is also appended at ``slot`` of the stacked
    ``(slots, k)`` arrays :attr:`rows` and :attr:`weights`, so a read
    gathers every pending estimate in one product.  Fills take a lock;
    reads take none: a slot is published only after its row is written,
    and growth copies the stack before it swaps the reference.  A
    deleted pending id just leaves the mapping (its slot stays unused).
    """

    def __init__(self, width: int) -> None:
        super().__init__()
        self._lock = threading.Lock()
        self._used = 0
        self.rows = np.zeros((8, width), dtype=np.int64)
        self.weights = np.zeros((8, width), dtype=np.float64)

    def fill(self, gid: int, rows: np.ndarray, weights: np.ndarray) -> tuple:
        """Append one id's row unless another reader already did."""
        with self._lock:
            entry = self.get(gid)
            if entry is None:
                slot = self._used
                if slot == self.rows.shape[0]:
                    self.rows = np.vstack([self.rows, np.zeros_like(self.rows)])
                    self.weights = np.vstack(
                        [self.weights, np.zeros_like(self.weights)]
                    )
                self.rows[slot] = rows
                self.weights[slot] = weights
                self._used += 1
                entry = self[gid] = (slot, rows, weights)
        return entry


def _id_moves(
    old_ids: np.ndarray, new_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each old row sits among ascending ``new_ids`` (-1: gone), and
    the rows of ``new_ids`` that ``old_ids`` did not hold."""
    pos = np.minimum(np.searchsorted(new_ids, old_ids), new_ids.size - 1)
    old_to_new = np.where(new_ids[pos] == old_ids, pos, -1)
    fresh = np.ones(new_ids.size, dtype=bool)
    fresh[old_to_new[old_to_new >= 0]] = False
    return old_to_new, np.flatnonzero(fresh)


def _read_batch_stats(ranker, expected: int) -> tuple[SearchStats, ...]:
    """Per-query stats of the base engine's last batch call, length-safe.

    The base rankers publish stats as instance state *after* the call
    returns, so under unsynchronized concurrent use another thread's
    call can replace them in between.  Answers are unaffected (they are
    computed from locals); the stats are informational — when the
    published tuple does not match this call's batch size, pad with
    empty counters instead of letting a short ``zip`` silently drop
    results downstream.
    """
    published = getattr(ranker.last_batch_stats, "per_query", ())
    if len(published) == expected:
        return tuple(published)
    return tuple(
        published[i] if i < len(published) else SearchStats()
        for i in range(expected)
    )


def _take_live(
    indices: np.ndarray,
    scores: np.ndarray,
    tombstones: frozenset,
    k: int,
    skip: int = -1,
) -> TopKResult:
    """Drop tombstoned ids (and ``skip``), then order and truncate to k.

    Ordering is (score desc, id asc) with duplicates dropped: a pending
    point can also come back from the base index after a partial
    rebuild, and the higher score wins.
    """
    keep = [
        i
        for i, gid in enumerate(indices.tolist())
        if gid != skip and gid not in tombstones
    ]
    return dedupe_ranked(indices[keep], scores[keep], k)
