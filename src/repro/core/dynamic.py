"""A dynamic database on top of the static Mogul index.

The paper builds a static index (Algorithm 1 + the factorization are
query independent, Lemma 2) and §4.6.2 handles query points *outside*
the database by seeding their nearest in-database neighbours into the
query vector.  :class:`DynamicMogulRanker` turns that same mechanism into
a practical **insert path**, the way buffered search indexes
(IVF insert buffers, LSM memtables) absorb writes between rebuilds:

* **Insert** (:meth:`DynamicMogulRanker.add`) appends the new feature to
  a pending buffer — O(1), no factorization and no k-NN work.
* **Query**: answers come from the base index as usual; every pending
  point additionally receives the *generalized Manifold Ranking
  estimate* of He et al. [7] — the similarity-weighted average of its
  in-database neighbours' scores, exactly the quantity the paper's
  out-of-sample treatment is built on, read in the opposite direction —
  and competes for the top-k on that estimate.
* **Delete** (:meth:`DynamicMogulRanker.remove`) tombstones a node: it
  stays in the graph (its edges still carry smoothness information, like
  a deleted-but-unmerged document in an LSM tree) but can no longer be
  returned as an answer.
* **Rebuild** (:meth:`DynamicMogulRanker.rebuild`) folds the buffer and
  the tombstones into a fresh graph + index.  With
  ``auto_rebuild_fraction`` set, a rebuild triggers automatically once
  the buffered inserts plus the deletes still inside the index outgrow
  that fraction of the database — the classic amortisation: n writes
  cost one O(n) rebuild.

The estimate for pending points is an approximation (the paper's §4.6.2
argument): tests bound its error against a full rebuild, and the
``pending_penalty`` factor (default 1.0 = off) lets deployments shade
buffered points' scores to favour fully indexed data.

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

Epoch-versioned state
---------------------
All base-index state lives in one immutable :class:`EngineEpoch` value
(graph + engine + the global-id mapping) and every query entry point
captures one :class:`LiveSnapshot` — the epoch plus the pending buffer
and tombstone set — *once*, then answers entirely against it.  A query
therefore always describes a single consistent database state, which is
what makes the lock-free concurrent serving layer
(:class:`repro.core.live.LiveEngine`) possible: a background rebuild
publishes a fresh epoch with one reference swap while in-flight queries
keep draining against the epoch they started on.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.batch import BatchStats
from repro.core.index import MogulRanker
from repro.core.search import SearchStats
from repro.core.topk import dedupe_ranked, truncate_result
from repro.graph.adjacency import KnnGraph
from repro.graph.build import build_knn_graph
from repro.graph.knn import knn_search
from repro.ranking.base import DEFAULT_ALPHA, AmbientStatsMixin, TopKResult
from repro.utils.validation import check_alpha, check_positive_int


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

    @property
    def index(self):
        return self.ranker.index

    @property
    def n_indexed(self) -> int:
        return int(self.indexed_ids.shape[0])


@dataclass(frozen=True, eq=False)
class LiveSnapshot:
    """What one query run sees: a single epoch plus the write buffer.

    Captured once at query entry (under the mutation lock in
    :class:`repro.core.live.LiveEngine`); the whole answer is computed
    from these values, so concurrent mutations can never produce a torn
    read mixing two database states.
    """

    epoch: EngineEpoch
    pending: tuple
    tombstones: frozenset
    n_total: int
    #: ``|tombstones ∩ epoch.indexed_ids|``: the deleted nodes the base
    #: index can still return, i.e. what a read must over-fetch for.
    indexed_tombstones: int


class DynamicMogulRanker(AmbientStatsMixin):
    """Mogul with buffered insertions and tombstone deletions.

    Node ids are *stable across rebuilds*: the i-th point ever added
    (counting the initial features first) keeps id ``i`` forever; deleted
    ids are never reused.

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
    pending_penalty:
        Multiplier in ``(0, 1]`` applied to pending points' estimated
        scores (1.0 = estimates compete at face value).
    n_shards:
        Serve the base index through the sharded engine
        (:class:`repro.core.ShardedMogulRanker`) with this many shards.
        Queries, inserts and deletes route to the owning shard through
        the engine's scatter-gather router; rebuilds rebuild every
        shard (shard-parallel when ``jobs`` permits).  1 (default) keeps
        the single-index engine — answers are identical either way.
    jobs:
        Worker budget forwarded to the base engine's builds (shard-
        parallel factorization for ``n_shards > 1``).
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
        pending_penalty: float = 1.0,
        n_shards: int = 1,
        jobs: int = 1,
        fill_level: int = 0,
    ):
        features = np.asarray(features, dtype=np.float64)
        self._init_params(
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
        pending_penalty: float,
        n_shards: int,
        jobs: int,
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
        if not 0.0 < pending_penalty <= 1.0:
            raise ValueError(
                f"pending_penalty must be in (0, 1], got {pending_penalty}"
            )
        self.auto_rebuild_fraction = auto_rebuild_fraction
        self.pending_penalty = pending_penalty
        self.n_shards = check_positive_int(n_shards, "n_shards")
        self.jobs = check_positive_int(jobs, "jobs")

        self._dim = features.shape[1]
        #: Callbacks fired after every mutation (insert/delete/rebuild) —
        #: the hook result caches use to drop stale answers.
        self._invalidation_listeners: list[Callable[[], None]] = []
        #: Global id -> feature, append-only.
        self._features: list[np.ndarray] = [row for row in features]
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
        self.query_jobs = 1
        # Stats of the most recent single / batched query (the
        # :class:`repro.core.engine.Engine` protocol surface).  These
        # assignments route through AmbientStatsMixin's thread-local
        # descriptors, so concurrent queries never tear each other's.
        self.last_stats = None
        self.last_batch_stats = None

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
        return f"Dynamic({self._epoch.ranker.name})"

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

    # -- mutation ---------------------------------------------------------

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
        """Insert a new point; returns its permanent id.

        O(1): the point lands in the pending buffer.  May trigger an
        automatic rebuild when the buffer outgrows
        ``auto_rebuild_fraction``.
        """
        feature = self._check_feature(feature)
        new_id = len(self._features)
        self._features.append(feature)
        self._pending_ids = self._pending_ids + (new_id,)
        self._notify_invalidation()
        if self._auto_rebuild_due():
            self.rebuild()
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
        """Tombstone a point: it is never returned as an answer again.

        The point's edges keep contributing to score smoothness until the
        next rebuild, at which point it leaves the graph entirely.  May
        trigger an automatic rebuild (see ``auto_rebuild_fraction``).
        """
        self._apply_remove(node)
        self._notify_invalidation()
        if self._auto_rebuild_due() and self.n_live >= 2:
            self.rebuild()

    def _apply_remove(self, node: int) -> None:
        """Validate and record one delete (callers hold any mutation lock)."""
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

    def rebuild(self) -> None:
        """Fold pending points and tombstones into a fresh index (O(n))."""
        live = self._live_ids()
        if live.shape[0] < 2:
            raise ValueError("cannot rebuild an index with fewer than 2 live points")
        self._publish_epoch(
            self._build_epoch(live, number=self._epoch.number + 1)
        )
        self._pending_ids = ()
        self._rebuilds += 1
        self._notify_invalidation()

    def _publish_epoch(self, epoch: EngineEpoch) -> None:
        """Serve ``epoch`` from now on (swap, restore; callers hold any lock).

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

    # -- queries ----------------------------------------------------------

    def _snapshot(self) -> LiveSnapshot:
        """Capture one consistent view of the database for a query run.

        The base class reads plain attributes (single-threaded use);
        :class:`repro.core.live.LiveEngine` overrides this to take its
        mutation lock, which is the *only* synchronization queries need.
        The buffer and tombstone values are copy-on-write immutables, so
        this is a few reference reads — O(1) regardless of buffer size.
        """
        return LiveSnapshot(
            epoch=self._epoch,
            pending=self._pending_ids,
            tombstones=self._tombstones,
            n_total=len(self._features),
            indexed_tombstones=self._indexed_tombstones,
        )

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

    def _build_epoch(self, indexed_ids: np.ndarray, number: int) -> EngineEpoch:
        """Build a fresh base index over ``indexed_ids`` (pure function).

        Both the blocking and the background rebuild paths call exactly
        this — which is what makes them bitwise identical for the same
        id snapshot.
        """
        features = np.asarray([self._features[g] for g in indexed_ids])
        graph = build_knn_graph(features, k=self.k)
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
                jobs=self.jobs,
                query_jobs=self.query_jobs,
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
        )

    @classmethod
    def _adopted_epoch(cls, engine) -> EngineEpoch:
        """Epoch 0 wrapped around an existing (e.g. loaded) base engine."""
        n = engine.graph.n_nodes
        return EngineEpoch(
            number=0,
            graph=engine.graph,
            ranker=engine,
            indexed_ids=np.arange(n, dtype=np.int64),
            local_by_global={i: i for i in range(n)},
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
        come from the per-epoch memo (:meth:`_pending_neighbours`).
        """
        epoch = snap.epoch
        base_global = epoch.indexed_ids[base.indices]
        if not snap.pending:
            return base_global, base.scores.copy()
        field = field_fn()
        rows = self._pending_neighbours(epoch, snap.pending)
        estimates = np.empty(len(rows), dtype=np.float64)
        for row, (idx, weights) in enumerate(rows):
            estimates[row] = float(np.dot(weights, field[idx]))
        estimates *= self.pending_penalty
        merged_ids = np.concatenate(
            [base_global, np.asarray(snap.pending, dtype=np.int64)]
        )
        merged_scores = np.concatenate([base.scores, estimates])
        return merged_ids, merged_scores

    def _pending_neighbours(
        self, epoch: EngineEpoch, pending: tuple
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(neighbour rows, normalised weights)`` of each pending id.

        Memoized per (epoch, id) and filled here, on the read path: each
        id costs one one-row k-NN search per epoch.  Concurrent readers
        may both compute a missing row; the row is a pure function of
        (epoch, feature), so whichever write lands is the same value.
        """
        memo = self._neighbour_memo.get(epoch)
        if memo is None:
            memo = self._neighbour_memo.setdefault(epoch, {})
        rows = []
        for gid in pending:
            row = memo.get(gid)
            if row is None:
                row = memo[gid] = self._neighbour_row(epoch, self._features[gid])
            rows.append(row)
        return rows

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

    # Re-export for subclasses that need to stamp a fresh number onto a
    # prebuilt epoch at swap time (see LiveEngine._install_epoch).
    @staticmethod
    def _with_number(epoch: EngineEpoch, number: int) -> EngineEpoch:
        return dataclasses.replace(epoch, number=number)


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


def _take_top(indices: np.ndarray, scores: np.ndarray, k: int) -> TopKResult:
    """Order (score desc, id asc) and truncate to k."""
    return truncate_result(rank_scores_by_pairs(indices, scores), k)


def _take_live(
    indices: np.ndarray,
    scores: np.ndarray,
    tombstones: frozenset,
    k: int,
    skip: int = -1,
) -> TopKResult:
    """Drop tombstoned ids (and ``skip``), then order and truncate to k."""
    keep = [
        i for i, gid in enumerate(indices) if gid != skip and gid not in tombstones
    ]
    return _take_top(indices[keep], scores[keep], k)


def rank_scores_by_pairs(indices: np.ndarray, scores: np.ndarray) -> TopKResult:
    """Sort (id, score) pairs by (score desc, id asc), dropping duplicates.

    Duplicates can arise when a pending point was also returned by the
    base index after a partial rebuild; the higher score wins.  (Thin
    wrapper over :func:`repro.core.topk.dedupe_ranked`, the shared
    canonical-order implementation.)
    """
    return dedupe_ranked(indices, scores)
