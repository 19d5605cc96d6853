"""Two-level sharded Mogul: hierarchical multi-shard index + scatter-gather search.

The paper's single index already has a two-level idea inside it: interior
clusters that never couple to each other, plus one border cluster that
couples to everything (Lemma 3).  This module lifts that exact scheme one
level up so databases larger than one factorization budget can be built
and served:

* **Shards** are contiguous groups of Louvain communities, balanced by
  node count (:func:`plan_shards`).  A shard owns its clusters' factor
  rows, packed per-cluster solvers, border couplings and bound tables —
  everything needed to answer "which of *my* clusters can contain a
  top-k answer, and what are their scores".
* **The top-level border block is shared**: the permutation's border
  cluster (every node with a cross-cluster — hence every node with a
  cross-shard — edge) is factored once and owned by the router, exactly
  as the paper's border cluster is owned by the single index.  Folding
  the cut edges into this shared block is what keeps per-query answers
  *exact*: the factorization is the same global :math:`LDL^T`, merely
  partitioned, so every score a shard computes is bitwise identical to
  the unsharded engine's.
* **Scatter-gather search** (:func:`scatter_gather_search`): the router
  runs the seed-cluster forward pass and the shared border solves, then
  one pass visits every shard's clusters in cluster-id order under each
  query's single running top-k frontier, solving each visited cluster
  on the shard that owns it.  Shards own contiguous cluster ranges, so
  this is the unsharded engine's visit order under the unsharded
  threshold: answers — indices, scores, tie-breaks — *and* the
  per-query :class:`SearchStats` equal the unsharded engine's.  Each
  shard's aggregate counters (``last_shard_stats``) are the per-query
  counters summed over its cluster range.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.clustering.louvain import louvain
from repro.core.batch import BatchQuery, BatchStats, _offer_border_batch
from repro.core.bounds import BOUND_TABLE_DTYPES, BoundsTable, CompactBoundsTable
from repro.core.index import cluster_features, factor_graph
from repro.core.out_of_sample import build_query_seeds, build_query_seeds_batch
from repro.core.permutation import ClusterFn, Permutation
from repro.core.profile import BuildProfile
from repro.core.search import SearchStats, TopKAccumulator
from repro.core.solver import BorderSolver, ClusterSpan, _csr_rows
from repro.obs.trace import span as obs_span
from repro.core.topk import merge_answer_pairs, sorted_result
from repro.graph.adjacency import KnnGraph
from repro.linalg.ldl import LDLFactors
from repro.linalg.packed import PackedUnitLower
from repro.ranking.base import (
    DEFAULT_ALPHA,
    Ranker,
    TopKResult,
    ambient_stat,
    normalize_seed_weights,
)
from repro.utils.timer import Timer
from repro.utils.validation import check_alpha, check_positive_int


# -- shard planning --------------------------------------------------------


@dataclass(frozen=True)
class ShardLayout:
    """Assignment of interior clusters to contiguous, balanced shards.

    Attributes
    ----------
    cluster_ranges:
        Per shard, the half-open range ``[lo, hi)`` of *global interior
        cluster ids* it owns (ranges partition ``[0, n_interior)``).
    spans:
        Per shard, the matching contiguous position span ``[start, stop)``
        in the global permutation (spans partition ``[0, border_start)``).
    """

    cluster_ranges: tuple[tuple[int, int], ...]
    spans: tuple[tuple[int, int], ...]

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.spans)

    @cached_property
    def shard_of(self) -> np.ndarray:
        """Owning shard of every interior cluster id, as a lookup array."""
        return np.repeat(
            np.arange(self.n_shards, dtype=np.int64),
            [hi - lo for lo, hi in self.cluster_ranges],
        )

    def shard_of_cluster(self, cluster_id: int) -> int:
        """Shard owning an interior cluster id."""
        if not 0 <= cluster_id < self.shard_of.size:
            raise ValueError(f"cluster {cluster_id} is not an interior cluster")
        return int(self.shard_of[cluster_id])

    def to_dict(self) -> dict:
        """JSON-ready representation (for the manifest)."""
        return {
            "cluster_ranges": [list(r) for r in self.cluster_ranges],
            "spans": [list(s) for s in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardLayout":
        return cls(
            cluster_ranges=tuple(
                (int(a), int(b)) for a, b in payload["cluster_ranges"]
            ),
            spans=tuple((int(a), int(b)) for a, b in payload["spans"]),
        )


def plan_shards(
    cluster_slices: tuple[slice, ...], n_shards: int
) -> ShardLayout:
    """Group interior clusters into contiguous shards balanced by node count.

    Cut points sit at the cluster boundaries nearest the ideal equal-size
    positions, never splitting a cluster (a cluster is the unit of both
    factorization independence and bound pruning).  ``n_shards`` is
    clamped to the interior cluster count; the result is deterministic
    for a given permutation.
    """
    n_shards = check_positive_int(n_shards, "n_shards")
    n_interior = len(cluster_slices) - 1
    if n_interior <= 0:
        raise ValueError("cannot shard a permutation with no interior clusters")
    n_shards = min(n_shards, n_interior)
    stops = np.asarray([sl.stop for sl in cluster_slices[:n_interior]])
    total = int(stops[-1])
    cuts: list[int] = []  # first cluster id of shards 1..S-1
    previous = 0
    for i in range(1, n_shards):
        target = round(total * i / n_shards)
        j = int(np.argmin(np.abs(stops - target))) + 1
        j = max(j, previous + 1)
        j = min(j, n_interior - (n_shards - i))
        cuts.append(j)
        previous = j
    edges = [0] + cuts + [n_interior]
    cluster_ranges = tuple(
        (edges[i], edges[i + 1]) for i in range(len(edges) - 1)
    )
    spans = tuple(
        (cluster_slices[lo].start, cluster_slices[hi - 1].stop)
        for lo, hi in cluster_ranges
    )
    return ShardLayout(cluster_ranges=cluster_ranges, spans=spans)


# -- per-shard state -------------------------------------------------------


class ShardState(ClusterSpan):
    """One shard's query-time state: its span of the flat carve.

    The :class:`repro.core.solver.ClusterSpan` of the shard's clusters —
    the flat :class:`repro.core.ClusterSolver`'s blocks, couplings,
    bounds and kernels, cut at the shard's cluster range — plus the
    shard's factor rows and its bound table.  The shared border block
    lives on the :class:`ShardedMogulIndex`, not here.
    """

    def __init__(
        self,
        shard_id: int,
        layout: ShardLayout,
        permutation: Permutation,
        rows: sp.csr_matrix,
        border_rows: sp.csr_matrix,
        diag: np.ndarray,
    ):
        span = layout.spans[shard_id]
        c_lo, c_hi = layout.cluster_ranges[shard_id]
        super().__init__(
            rows, span[0], permutation.cluster_slices[c_lo:c_hi], border_rows, diag
        )
        self.shard_id = shard_id
        self.span = span
        self.first_cluster = c_lo
        #: The shard's factor rows (strict lower of L, global columns).
        self.rows = rows
        self.bounds_table = BoundsTable.from_bounds(
            self.bounds, permutation.border_slice.start, permutation.n_nodes
        )
        self.sizes = np.asarray(
            [sl.stop - sl.start for sl in self.cluster_slices], dtype=np.int64
        )

    @property
    def n_clusters(self) -> int:
        """Interior clusters owned by this shard."""
        return len(self.cluster_slices)

    @property
    def n_nodes(self) -> int:
        """Positions covered by this shard's span."""
        return self.span[1] - self.span[0]

    @property
    def nnz(self) -> int:
        """Factor non-zeros in this shard's rows."""
        return int(self.rows.nnz)


# -- memory-budgeted residency ---------------------------------------------


def _csr_member_nbytes(matrix) -> int:
    """Bytes of a CSR matrix's three member arrays."""
    return int(
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    )


def _bounds_table_nbytes(table: BoundsTable) -> int:
    """Bytes of an exact bound table's packed arrays."""
    return _csr_member_nbytes(table.matrix) + int(table.growth.nbytes)


def _shard_state_nbytes(state: ShardState, bounds_dtype: str) -> int:
    """``sizeof``-style accounting of one shard's *evictable* bytes.

    Sums the CSR members of the factor rows and couplings, the packed
    cluster solvers and the per-cluster bound ingredients.  The exact
    bound table counts only under a compact ``bounds_dtype``: with
    float64 bounds the table itself is the always-resident pruning
    surface (held by the shard's :class:`ShardBounds` view), so evicting
    the state cannot reclaim it.
    """
    total = _csr_member_nbytes(state.rows)
    total += sum(block.nbytes for block in state.blocks)
    total += sum(_csr_member_nbytes(c) for c in state.couplings)
    total += sum(
        int(b.border_cols.nbytes + b.border_maxima.nbytes)
        for b in state.bounds
    )
    if bounds_dtype != "float64":
        total += _bounds_table_nbytes(state.bounds_table)
    return int(total)


class ShardBounds:
    """One shard's always-resident pruning surface.

    Every query batch evaluates every shard's cluster bounds, so the
    bound table can never be evicted without defeating pruning.  This
    view pins down exactly what stays resident when the heavy
    :class:`ShardState` (factor rows, packed solvers, couplings) is
    evicted: the cluster geometry plus either the exact float64 table
    (``bounds_dtype="float64"``) or its compact representation
    (``float32`` / ``int8``), whose ambiguous decisions fall back to the
    exact table by re-materialising the shard.
    """

    __slots__ = (
        "shard_id",
        "first_cluster",
        "cluster_slices",
        "sizes",
        "table",
        "compact",
        "nbytes",
    )

    def __init__(self, state: ShardState, bounds_dtype: str):
        self.shard_id = state.shard_id
        self.first_cluster = state.first_cluster
        self.cluster_slices = state.cluster_slices
        self.sizes = state.sizes
        if bounds_dtype == "float64":
            self.table: BoundsTable | None = state.bounds_table
            self.compact: CompactBoundsTable | None = None
            self.nbytes = _bounds_table_nbytes(state.bounds_table)
        else:
            self.table = None
            self.compact = CompactBoundsTable.from_table(
                state.bounds_table, bounds_dtype
            )
            self.nbytes = self.compact.nbytes

    @property
    def n_clusters(self) -> int:
        """Interior clusters owned by this shard."""
        return len(self.cluster_slices)


class ShardResidencyManager:
    """Byte accounting, refcounted pins and LRU policy for shard states.

    The manager is pure bookkeeping: it never touches shard state
    itself.  :class:`ShardedMogulIndex` drives it — registering bytes on
    materialisation, pinning around in-flight scans, asking for LRU
    victims when the budget is exceeded — under the manager's single
    lock, so concurrent callers and eviction cannot race the
    counters.  A ``budget_bytes`` of ``None`` disables eviction but
    keeps the accounting surface (``/stats`` residency) live.
    """

    def __init__(self, budget_bytes: int | None, n_shards: int):
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self.n_shards = int(n_shards)
        self._lock = threading.Lock()
        self._resident = [False] * n_shards
        self._bytes = [0] * n_shards
        self._pins = [0] * n_shards
        self._last_used = [0] * n_shards
        self._evicted_once = [False] * n_shards
        self._clock = 0
        self._resident_total = 0
        self.loads_total = 0
        self.faults_total = 0
        self.evictions_total = 0
        self.evicted_bytes_total = 0
        self.bound_fallbacks_total = 0
        self.peak_resident_bytes = 0

    # -- transitions (driven by the index) --------------------------------

    def on_materialize(self, shard_id: int, nbytes: int) -> None:
        """Register a freshly materialised shard (idempotent while resident)."""
        with self._lock:
            if self._resident[shard_id]:
                return
            self._resident[shard_id] = True
            self._bytes[shard_id] = int(nbytes)
            self._resident_total += int(nbytes)
            self.loads_total += 1
            if self._evicted_once[shard_id]:
                self.faults_total += 1
            if self._resident_total > self.peak_resident_bytes:
                self.peak_resident_bytes = self._resident_total
            self._touch_locked(shard_id)

    def begin_evict(self, shard_id: int) -> bool:
        """Claim a shard for eviction; ``False`` if pinned or already gone."""
        with self._lock:
            if not self._resident[shard_id] or self._pins[shard_id] > 0:
                return False
            nbytes = self._bytes[shard_id]
            self._resident[shard_id] = False
            self._bytes[shard_id] = 0
            self._resident_total -= nbytes
            self._evicted_once[shard_id] = True
            self.evictions_total += 1
            self.evicted_bytes_total += nbytes
            return True

    def touch(self, shard_id: int) -> None:
        """Mark a shard most-recently-used."""
        with self._lock:
            self._touch_locked(shard_id)

    def _touch_locked(self, shard_id: int) -> None:
        self._last_used[shard_id] = self._clock
        self._clock += 1

    def pin(self, shard_id: int) -> None:
        """Take a refcounted pin: a pinned shard is never an LRU victim."""
        with self._lock:
            self._pins[shard_id] += 1
            self._touch_locked(shard_id)

    def unpin(self, shard_id: int) -> None:
        """Drop one pin (clamped at zero for late-configured managers)."""
        with self._lock:
            self._pins[shard_id] = max(0, self._pins[shard_id] - 1)

    def note_bound_fallback(self, count: int = 1) -> None:
        """Count a compact-bound ambiguity resolved against exact bounds."""
        with self._lock:
            self.bound_fallbacks_total += int(count)

    def pick_victim(self, skip=()) -> int | None:
        """The LRU unpinned resident shard, or ``None`` if under budget.

        ``skip`` excludes shards whose state lock a previous eviction
        attempt could not take without blocking.
        """
        with self._lock:
            if (
                self.budget_bytes is None
                or self._resident_total <= self.budget_bytes
            ):
                return None
            victim, victim_used = None, None
            for shard_id in range(self.n_shards):
                if (
                    shard_id in skip
                    or not self._resident[shard_id]
                    or self._pins[shard_id] > 0
                ):
                    continue
                used = self._last_used[shard_id]
                if victim is None or used < victim_used:
                    victim, victim_used = shard_id, used
            return victim

    # -- accounting surface ------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes of currently materialised shard state."""
        with self._lock:
            return self._resident_total

    @property
    def pinned_bytes(self) -> int:
        """Resident bytes held by shards with at least one pin."""
        with self._lock:
            return sum(
                self._bytes[s]
                for s in range(self.n_shards)
                if self._pins[s] > 0
            )

    def snapshot(self) -> dict:
        """Counters, gauges and the per-shard LRU table for ``/stats``."""
        with self._lock:
            clock = self._clock
            shards = [
                {
                    "shard_id": shard_id,
                    "resident": self._resident[shard_id],
                    "bytes": self._bytes[shard_id],
                    "pins": self._pins[shard_id],
                    "lru_age": (
                        clock - 1 - self._last_used[shard_id]
                        if self._resident[shard_id]
                        else None
                    ),
                }
                for shard_id in range(self.n_shards)
            ]
            return {
                "budget_bytes": self.budget_bytes,
                "resident_bytes": self._resident_total,
                "pinned_bytes": sum(
                    self._bytes[s]
                    for s in range(self.n_shards)
                    if self._pins[s] > 0
                ),
                "shards_resident": sum(self._resident),
                "n_shards": self.n_shards,
                "loads_total": self.loads_total,
                "faults_total": self.faults_total,
                "evictions_total": self.evictions_total,
                "evicted_bytes_total": self.evicted_bytes_total,
                "bound_fallbacks_total": self.bound_fallbacks_total,
                "peak_resident_bytes": self.peak_resident_bytes,
                "shards": shards,
            }


# -- the sharded index -----------------------------------------------------


class ShardedMogulIndex:
    """A Mogul index partitioned into shards under a shared border block.

    The factorization is the *same* global :math:`LDL^T` the unsharded
    :class:`repro.core.MogulIndex` would build (bitwise) — sharding
    partitions its rows and the derived query-time state, it never
    changes the math.  Construction paths:

    * :meth:`build` — from a graph: the unsharded factorization, then
      :meth:`from_factors`.
    * :meth:`from_factors` — carve shards out of an existing
      factorization (the build's last step, and equivalence tests).
    * :meth:`load` / :func:`repro.core.serialize.load_sharded_index` —
      from the directory layout, with lazy per-shard materialisation.

    Shard states materialise on first touch (:meth:`shard_state`);
    a loaded index only pays for the shards its queries visit.
    """

    def __init__(
        self,
        permutation: Permutation,
        alpha: float,
        factorization: str,
        layout: ShardLayout,
        diag: np.ndarray,
        border_rows: sp.csr_matrix,
        cluster_means: np.ndarray,
        cluster_members: tuple[np.ndarray, ...],
        pivot_perturbations: int = 0,
        profile: BuildProfile | None = None,
        shard_states: list[ShardState | None] | None = None,
        shard_sources=None,
        shard_nnz: list[int] | None = None,
        factors: LDLFactors | None = None,
        graph=None,
    ):
        self.permutation = permutation
        self.alpha = alpha
        self.factorization = factorization
        self.layout = layout
        self.diag = np.asarray(diag, dtype=np.float64)
        self.border_rows = border_rows
        self.cluster_means = cluster_means
        self.cluster_members = cluster_members
        self.pivot_perturbations = int(pivot_perturbations)
        self.profile = profile
        #: The k-NN graph the index was built from (the build's own
        #: KnnGraph, or a loaded artifact's StoredGraph); save() writes it.
        self.graph = graph
        #: The shared top-level border block's solves (one per query
        #: batch, shared by all shards).
        self.border_solver = BorderSolver(border_rows, self.diag)
        n_shards = layout.n_shards
        self._states: list[ShardState | None] = (
            list(shard_states) if shard_states is not None else [None] * n_shards
        )
        if len(self._states) != n_shards:
            raise ValueError(
                f"{len(self._states)} shard states for {n_shards} shards"
            )
        self._sources = shard_sources  # per-shard () -> rows csr, or None
        self._shard_nnz = shard_nnz
        self._factors = factors
        self._full_block: PackedUnitLower | None = None
        #: Per-shard materialisation locks: the first-touch carve (and
        #: eviction) is exactly-once even under concurrent scans.
        self._state_locks = [threading.Lock() for _ in range(n_shards)]
        #: Always-resident pruning surfaces, built at first materialisation.
        self._resident_bounds: list[ShardBounds | None] = [None] * n_shards
        self._bounds_dtype = "float64"
        #: The float64 resident tables stacked in shard order (lazy).
        self._stacked_bounds: BoundsTable | None = None
        #: Node count of every interior cluster, by cluster id.
        self.cluster_sizes = np.asarray(
            [sl.stop - sl.start for sl in permutation.cluster_slices[:-1]],
            dtype=np.int64,
        )
        #: Residency accounting/eviction; ``None`` until
        #: :meth:`configure_memory_budget` opts in.
        self.residency: ShardResidencyManager | None = None

    # -- shape -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of indexed nodes."""
        return self.permutation.n_nodes

    @property
    def n_clusters(self) -> int:
        """Cluster count including the border cluster."""
        return self.permutation.n_clusters

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self.layout.n_shards

    @property
    def border_size(self) -> int:
        """Nodes in the shared border block."""
        border = self.permutation.border_slice
        return border.stop - border.start

    @property
    def factor_nnz(self) -> int:
        """Non-zeros in the strict lower triangle of the global factor."""
        return self.shard_nnz_total + int(self.border_rows.nnz)

    @property
    def shard_nnz_total(self) -> int:
        """Factor non-zeros across all shard rows (border excluded)."""
        return sum(self.shard_nnz(s) for s in range(self.n_shards))

    def shard_nnz(self, shard_id: int) -> int:
        """Factor non-zeros in one shard's rows."""
        if self._shard_nnz is not None:
            return int(self._shard_nnz[shard_id])
        with self.pinned_shard(shard_id) as state:
            return state.nnz

    @property
    def shards_loaded(self) -> int:
        """Shards whose state is materialised."""
        return sum(1 for state in self._states if state is not None)

    # -- shard access ----------------------------------------------------

    def shard_state(self, shard_id: int) -> ShardState:
        """The shard's query-time state, materialised on first touch.

        Thread-safe: a per-shard lock makes the lazy carve exactly-once
        even when several concurrent callers (or a query racing
        eviction) hit a cold shard together.  The state is *not*
        pinned: an eviction may unmap its memory-mapped ``rows`` at any
        time, so readers of ``rows`` use :meth:`pinned_shard` instead.
        """
        state = self._states[shard_id]
        if state is not None:
            mgr = self.residency
            if mgr is not None:
                mgr.touch(shard_id)
            return state
        with self._state_locks[shard_id]:
            state = self._materialize_locked(shard_id)
        self._maybe_evict()
        return state

    def acquire_shard(self, shard_id: int) -> ShardState:
        """Materialise (if needed) and *pin* a shard for an in-flight scan.

        The pin is refcounted on the residency manager and taken under
        the shard's state lock, so eviction can never interleave between
        materialisation and pinning.  Pair with :meth:`release_shard`
        (``try/finally``).  Without a configured budget this is
        :meth:`shard_state` plus a no-op.
        """
        with self._state_locks[shard_id]:
            state = self._materialize_locked(shard_id)
            mgr = self.residency
            if mgr is not None:
                mgr.pin(shard_id)
        self._maybe_evict()
        return state

    @contextmanager
    def pinned_shard(self, shard_id: int) -> Iterator[ShardState]:
        """:meth:`acquire_shard` and :meth:`release_shard` as a ``with`` block.

        Readers of a shard's ``rows`` hold it: a loaded shard's rows are
        memory-mapped, and an eviction unmaps them.
        """
        state = self.acquire_shard(shard_id)
        try:
            yield state
        finally:
            self.release_shard(shard_id)

    def release_shard(self, shard_id: int) -> None:
        """Drop the pin taken by :meth:`acquire_shard`.

        The budget is enforced again once the pin is gone, so it holds
        between scans, not only when the next scan acquires a shard.
        """
        mgr = self.residency
        if mgr is not None:
            mgr.unpin(shard_id)
            self._maybe_evict()

    def shard_bounds(self, shard_id: int) -> ShardBounds:
        """The shard's always-resident pruning surface.

        Built at first materialisation and never evicted — pruning
        consults every shard's bounds on every batch, so this is the
        floor of the memory budget.  Touching a cold shard materialises
        it once to derive the view.
        """
        view = self._resident_bounds[shard_id]
        if view is not None:
            return view
        with self._state_locks[shard_id]:
            self._materialize_locked(shard_id)
            view = self._resident_bounds[shard_id]
        self._maybe_evict()
        return view

    def bounds_table(self) -> BoundsTable:
        """Every interior cluster's exact bounds as one table.

        The shards' resident float64 tables stacked in shard order.
        Shards own contiguous cluster ranges, so row ``i`` is cluster
        ``i``, and one SpMV evaluates every bound of a search pass,
        bitwise equal to the per-shard rows.
        """
        table = self._stacked_bounds
        if table is None:
            tables = [self.shard_bounds(s).table for s in range(self.n_shards)]
            table = BoundsTable(
                matrix=sp.vstack([t.matrix for t in tables], format="csr"),
                growth=np.concatenate([t.growth for t in tables]),
            )
            self._stacked_bounds = table
        return table

    def _materialize_locked(self, shard_id: int) -> ShardState:
        """Load + carve a shard under its state lock; register residency."""
        state = self._states[shard_id]
        if state is None:
            if self._sources is None:
                raise RuntimeError(
                    f"shard {shard_id} has no state and no source to load it"
                )
            rows = self._sources[shard_id]()
            state = ShardState(
                shard_id,
                self.layout,
                self.permutation,
                rows,
                self.border_rows,
                self.diag,
            )
            self._states[shard_id] = state
        self._note_materialized(shard_id, state)
        return state

    def _note_materialized(self, shard_id: int, state: ShardState) -> None:
        """Build the resident bounds view and register the shard's bytes."""
        if self._resident_bounds[shard_id] is None:
            self._resident_bounds[shard_id] = ShardBounds(
                state, self._bounds_dtype
            )
        mgr = self.residency
        if mgr is not None:
            mgr.on_materialize(
                shard_id, _shard_state_nbytes(state, self._bounds_dtype)
            )
            mgr.touch(shard_id)

    def _maybe_evict(self) -> None:
        """Evict LRU shards until the budget holds (or nothing is evictable).

        Called *after* releasing any shard state lock (never while one is
        held) and takes victim locks non-blocking, so it cannot deadlock
        against concurrent materialisations.  Shards whose lock is busy
        or that get pinned underneath us are skipped; if everything is
        pinned the budget is allowed to overshoot rather than block a
        scan.  Indexes with no loaders (built in-process) never evict —
        there would be nothing to fault the state back in from.
        """
        mgr = self.residency
        if mgr is None or self._sources is None:
            return
        skip: set[int] = set()
        while True:
            victim = mgr.pick_victim(skip)
            if victim is None:
                return
            lock = self._state_locks[victim]
            if not lock.acquire(blocking=False):
                skip.add(victim)
                continue
            try:
                state = self._states[victim]
                if state is None or not mgr.begin_evict(victim):
                    skip.add(victim)
                    continue
                self._states[victim] = None
                state = None
                # Close under the lock: a re-fault of this shard maps a
                # new generation through the same loader, and a close
                # that ran after it would unmap the arrays it returned.
                close = getattr(self._sources[victim], "close", None)
                if close is not None:
                    close()
            finally:
                lock.release()

    def configure_memory_budget(
        self,
        memory_budget_mb: float | None = None,
        bounds_dtype: str = "float64",
    ) -> ShardResidencyManager:
        """Opt in to residency accounting, LRU eviction and compact bounds.

        ``memory_budget_mb`` bounds the evictable shard-state bytes
        (``None`` keeps everything resident but still accounts);
        ``bounds_dtype`` selects the always-resident bound-table
        representation (``float64`` exact, ``float32``/``int8`` compact
        with certified exact fallback).  Answers and per-query stats are
        bitwise identical to the unbudgeted engine under any setting.
        Already-materialised shards are registered immediately and the
        budget enforced before returning.
        """
        if bounds_dtype not in BOUND_TABLE_DTYPES:
            raise ValueError(
                f"bounds_dtype must be one of {BOUND_TABLE_DTYPES}, "
                f"got {bounds_dtype!r}"
            )
        budget_bytes = None
        if memory_budget_mb is not None:
            budget = float(memory_budget_mb)
            if budget <= 0:
                raise ValueError(
                    f"memory budget must be positive, got {memory_budget_mb!r}"
                )
            budget_bytes = int(budget * (1 << 20))
        if bounds_dtype != self._bounds_dtype:
            self._bounds_dtype = bounds_dtype
            self._resident_bounds = [None] * self.n_shards
            self._stacked_bounds = None
        self.residency = ShardResidencyManager(budget_bytes, self.n_shards)
        for shard_id, state in enumerate(self._states):
            if state is not None:
                with self._state_locks[shard_id]:
                    state = self._states[shard_id]
                    if state is not None:
                        self._note_materialized(shard_id, state)
        self._maybe_evict()
        return self.residency

    def residency_snapshot(self) -> dict:
        """The residency accounting surface for ``/stats`` and ``/metrics``."""
        bounds_bytes = sum(
            view.nbytes
            for view in self._resident_bounds
            if view is not None
        )
        mgr = self.residency
        if mgr is None:
            return {
                "enabled": False,
                "bounds_dtype": self._bounds_dtype,
                "bounds_bytes": int(bounds_bytes),
                "shards_resident": self.shards_loaded,
                "n_shards": self.n_shards,
            }
        payload = mgr.snapshot()
        payload["enabled"] = True
        payload["bounds_dtype"] = self._bounds_dtype
        payload["bounds_bytes"] = int(bounds_bytes)
        return payload

    def shard_of_node(self, node: int) -> int:
        """Shard owning an original node id (-1 for border nodes)."""
        position = int(self.permutation.inverse[node])
        if position >= self.permutation.border_slice.start:
            return -1
        cid = int(self.permutation.cluster_of_position[position])
        return self.layout.shard_of_cluster(cid)

    # -- whole-factor views ----------------------------------------------

    def assemble_factors(self) -> LDLFactors:
        """The global :math:`LDL^T` factors (assembled from the shards).

        Bitwise identical to what the unsharded build produces with the
        same backend.  Cached; loaded indexes pay one concatenation.
        """
        if self._factors is None:
            parts = []
            for shard_id in range(self.n_shards):
                with self.pinned_shard(shard_id) as state:
                    parts.append(state.rows.copy())
            parts.append(self.border_rows)
            n = self.n_nodes
            indptr = np.zeros(n + 1, dtype=np.int64)
            cursor, offset = 0, 0
            data = np.concatenate([np.asarray(p.data) for p in parts])
            indices = np.concatenate(
                [np.asarray(p.indices, dtype=np.int64) for p in parts]
            )
            for part in parts:
                rows = part.shape[0]
                indptr[cursor + 1 : cursor + rows + 1] = (
                    np.asarray(part.indptr[1:], dtype=np.int64) + offset
                )
                cursor += rows
                offset += int(part.nnz)
            lower = sp.csr_matrix((data, indices, indptr), shape=(n, n))
            self._factors = LDLFactors(
                lower=lower,
                upper=lower.T.tocsr(),
                diag=self.diag,
                pivot_perturbations=self.pivot_perturbations,
            )
        return self._factors

    def solve_full(self, q_vec: np.ndarray) -> np.ndarray:
        """Full :math:`LDL^T x = q` solve over all rows (off the hot path).

        Backs ``scores`` / ``scores_for_vector`` on the sharded ranker;
        the whole-factor packed solver is built lazily on first use.
        """
        if self._full_block is None:
            self._full_block = PackedUnitLower.from_strict_lower_trusted(
                self.assemble_factors().lower.tocsr()
            )
        z = self._full_block.solve_lower(np.asarray(q_vec, dtype=np.float64))
        y = z / (self.diag if z.ndim == 1 else self.diag[:, None])
        return self._full_block.solve_upper(y)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: KnnGraph,
        n_shards: int,
        alpha: float = DEFAULT_ALPHA,
        factorization: str = "incomplete",
        cluster_labels: np.ndarray | None = None,
        clusterer: ClusterFn = louvain,
        fill_level: int = 0,
    ) -> "ShardedMogulIndex":
        """Precompute the sharded index for a graph.

        One factorization for every shard count: the clustering,
        permutation, ranking matrix and :math:`LDL^T` factorization are
        :meth:`repro.core.MogulIndex.build`'s own stages, so the factors
        are the unsharded ones, bitwise.  :meth:`from_factors` then cuts
        them into one row span per shard and carves each.
        """
        alpha = check_alpha(alpha)
        profile = BuildProfile(n_shards=n_shards)
        permutation, factors = factor_graph(
            graph, alpha, factorization, cluster_labels, clusterer, fill_level,
            profile,
        )
        started = time.perf_counter()
        index = cls.from_factors(
            permutation,
            factors,
            alpha=alpha,
            factorization=factorization,
            n_shards=n_shards,
            graph=graph,
            profile=profile,
        )
        profile.stages["shard_state"] = time.perf_counter() - started
        return index

    @classmethod
    def from_factors(
        cls,
        permutation: Permutation,
        factors: LDLFactors,
        alpha: float,
        factorization: str,
        layout: ShardLayout | None = None,
        n_shards: int | None = None,
        graph: KnnGraph | None = None,
        cluster_means: np.ndarray | None = None,
        cluster_members: tuple[np.ndarray, ...] | None = None,
        profile: BuildProfile | None = None,
    ) -> "ShardedMogulIndex":
        """Carve a sharded index out of an existing global factorization.

        Either ``layout`` or ``n_shards`` selects the partition; cluster
        means/members come from ``graph`` when not given directly, and
        the index keeps a reference to ``graph`` for :meth:`save`.  A
        ``profile`` records each shard's carve in ``shard_seconds``.
        """
        if layout is None:
            if n_shards is None:
                raise ValueError("provide layout or n_shards")
            layout = plan_shards(permutation.cluster_slices, n_shards)
        lower = factors.lower.tocsr()
        lower.sort_indices()
        border_rows = _csr_rows(
            lower, permutation.border_slice.start, permutation.n_nodes
        )
        diag = np.asarray(factors.diag, dtype=np.float64)

        if cluster_members is None or cluster_means is None:
            if graph is None:
                raise ValueError(
                    "provide graph or (cluster_means, cluster_members)"
                )
            cluster_means, cluster_members = cluster_features(
                permutation, graph.features
            )

        states: list[ShardState] = []
        carve_seconds: list[float] = []
        for shard_id, (rs, re) in enumerate(layout.spans):
            carve_started = time.perf_counter()
            states.append(
                ShardState(
                    shard_id,
                    layout,
                    permutation,
                    _csr_rows(lower, rs, re),
                    border_rows,
                    diag,
                )
            )
            carve_seconds.append(time.perf_counter() - carve_started)
        if profile is not None:
            profile.shard_seconds = carve_seconds
        return cls(
            permutation=permutation,
            alpha=alpha,
            factorization=factorization,
            layout=layout,
            diag=diag,
            border_rows=border_rows,
            cluster_means=cluster_means,
            cluster_members=cluster_members,
            pivot_perturbations=factors.pivot_perturbations,
            profile=profile,
            shard_states=states,
            shard_nnz=[state.nnz for state in states],
            factors=factors,
            graph=graph,
        )

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Persist to the sharded directory layout (manifest + per-shard npz)."""
        from repro.core.serialize import save_sharded_index

        save_sharded_index(self, path)

    @classmethod
    def load(cls, path, lazy: bool = True) -> "ShardedMogulIndex":
        """Restore an index saved with :meth:`save`."""
        from repro.core.serialize import load_sharded_index

        return load_sharded_index(path, lazy=lazy)


# -- scatter-gather search -------------------------------------------------


class _ShardPins:
    """The shards a pass holds pinned, and their release.

    Calling it pins a shard the first time the pass solves in it or
    resolves its exact bounds; :meth:`release_below` drops the pins of
    the shards an in-order pass has left (``release_below(n_shards)``
    ends the pass).
    """

    def __init__(self, index: "ShardedMogulIndex"):
        self.index = index
        self.held: dict[int, ShardState] = {}

    def __call__(self, shard_id: int) -> ShardState:
        if shard_id not in self.held:
            self.held[shard_id] = self.index.acquire_shard(shard_id)
        return self.held[shard_id]

    def release_below(self, shard_id: int) -> None:
        for held in [s for s in self.held if s < shard_id]:
            del self.held[held]
            self.index.release_shard(held)


def _solve_router(index: ShardedMogulIndex, queries, pin: _ShardPins):
    """Stages 1-2 of a sharded batch: the seed and shared border solves.

    Each seeded cluster is forward-substituted on its owning shard
    (pinned through ``pin``) for the columns seeded there; the shared
    border block is solved once for every column; then each seeded
    cluster is back-substituted on its shard.  Returns ``(seed cluster
    sets, y, x)``, where ``x`` holds every border and seed-cluster score.
    """
    perm = index.permutation
    n = perm.n_nodes
    n_queries = len(queries)
    shard_of = index.layout.shard_of
    q_mat = np.zeros((n, n_queries), dtype=np.float64)
    seed_cluster_sets: list[set[int]] = []
    seeded_columns: dict[int, list[int]] = {}
    for j, query in enumerate(queries):
        positions = np.asarray(query.seed_positions, dtype=np.int64)
        q_mat[positions, j] = np.asarray(query.seed_weights, dtype=np.float64)
        seeds = {int(perm.cluster_of_position[int(p)]) for p in positions}
        seed_cluster_sets.append(seeds)
        for cid in seeds - {perm.border_cluster}:
            seeded_columns.setdefault(cid, []).append(j)
    seeded = [
        (cid, np.asarray(seeded_columns[cid], dtype=np.int64))
        for cid in sorted(seeded_columns)
    ]
    z_mat = np.zeros((n, n_queries), dtype=np.float64)
    y_mat = np.zeros((n, n_queries), dtype=np.float64)
    for cid, cols in seeded:
        shard = pin(int(shard_of[cid]))
        shard.forward_seed_block(
            cid - shard.first_cluster, q_mat, z_mat, y_mat, cols=cols
        )
    index.border_solver.forward(q_mat, z_mat, y_mat)

    x_mat = np.zeros((n, n_queries), dtype=np.float64)
    index.border_solver.back(y_mat, x_mat)
    for cid, cols in seeded:
        shard = pin(int(shard_of[cid]))
        shard.back_cluster(cid - shard.first_cluster, y_mat, x_mat, cols=cols)
    return seed_cluster_sets, y_mat, x_mat


def scatter_gather_search(
    index: ShardedMogulIndex,
    queries,
    k: int,
    use_pruning: bool = True,
    cluster_order: str = "index",
) -> tuple[list[list[tuple[int, float]]], BatchStats, list[SearchStats]]:
    """Answer a batch of queries in one pass over every shard's clusters.

    The algorithm of :func:`repro.core.batch.top_k_batch_search`, with
    each solve run on the shard that owns the rows: the router performs
    the seed-cluster forward substitutions, the shared border solves and
    the seed/border frontier; then one pass visits the interior clusters
    in id order — shards own contiguous cluster ranges, so this is the
    unsharded visit order — under each query's single running frontier.
    Every score comes from the same packed solves and every prune
    decision compares the same bound with the same threshold, so the
    answers *and* the per-query :class:`SearchStats` equal the unsharded
    engine's.

    Returns ``(answers, per-query stats, per-shard aggregate stats)``; a
    shard's aggregate is the per-query counters summed over its cluster
    range.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if cluster_order not in ("index", "bound_desc"):
        raise ValueError(f"unknown cluster_order {cluster_order!r}")
    n_queries = len(queries)
    n_shards = index.n_shards
    if n_queries == 0:
        return [], BatchStats(per_query=()), [SearchStats() for _ in range(n_shards)]
    perm = index.permutation
    n = perm.n_nodes
    border = perm.border_slice
    border_start = border.start
    border_id = perm.border_cluster
    layout = index.layout
    shard_of = layout.shard_of
    sizes = index.cluster_sizes
    n_interior = sizes.size

    accs = [TopKAccumulator(k, n, query.exclude_positions) for query in queries]
    stats = [
        SearchStats(clusters_total=perm.n_clusters) for _ in range(n_queries)
    ]
    # The (cluster, query) pairs the pass decides, and those it scored.
    eligible = np.ones((n_interior, n_queries), dtype=bool)
    scored = np.zeros((n_interior, n_queries), dtype=bool)

    # A shard is released once the pass has left its cluster range, or
    # at the end of the pass.
    pin = _ShardPins(index)
    try:
        # Stages 1-2 — seed and border solves, then the frontiers.
        seed_cluster_sets, y_mat, x_mat = _solve_router(index, queries, pin)
        for j, seeds in enumerate(seed_cluster_sets):
            column = x_mat[:, j]
            for cid in sorted(seeds - {border_id}):
                eligible[cid, j] = False
                sl = perm.cluster_slices[cid]
                stats[j].nodes_scored += sl.stop - sl.start
                accs[j].offer_block(column, sl.start, sl.stop)
            stats[j].nodes_scored += border.stop - border.start
            stats[j].clusters_scored = len(seeds | {border_id})
        _offer_border_batch(x_mat, border, accs, queries, k)

        # Stage 3 — one pass over the interior clusters.  ``lo``/``hi``
        # bracket each bound: equal (one SpMV over the stacked exact
        # table) with float64 bounds, the concatenated certified bands of
        # the shards' compact tables otherwise.  A compact decision the
        # band cannot certify resolves the owning shard's exact table,
        # after which its rows read exactly (``lo == hi``).
        thresholds = None
        exact: np.ndarray | None = None
        in_order = True
        if not use_pruning:
            scan = np.flatnonzero(eligible.any(axis=1))
        else:
            x_border_abs = np.abs(x_mat[border_start:, :])
            compact = [index.shard_bounds(s).compact for s in range(n_shards)]
            if compact[0] is None:
                lo = hi = index.bounds_table().estimate_all(x_border_abs)
            else:
                bands = [table.estimate_bands(x_border_abs) for table in compact]
                lo = np.concatenate([band[0] for band in bands])
                hi = np.concatenate([band[1] for band in bands])
                exact = np.zeros(n_shards, dtype=bool)

            def resolve(shard_id: int) -> None:
                c_lo, c_hi = layout.cluster_ranges[shard_id]
                lo[c_lo:c_hi] = hi[c_lo:c_hi] = (
                    pin(shard_id).bounds_table.estimate_all(x_border_abs)
                )
                exact[shard_id] = True
                index.residency.note_bound_fallback()

            thresholds = np.asarray([acc.threshold for acc in accs])
            if exact is not None:
                ambiguous = eligible & ~(lo >= thresholds) & ~(hi < thresholds)
                for shard_id in np.unique(shard_of[ambiguous.any(axis=1)]):
                    resolve(int(shard_id))
            # Thresholds only rise, so a cluster below every eligible
            # query's starting threshold stays pruned whenever it would
            # be visited: prune those in one vectorised pass and loop
            # over the rest only.
            scan = np.flatnonzero((eligible & (lo >= thresholds)).any(axis=1))
            if cluster_order == "bound_desc":
                # The visit order shapes the threshold trajectory, so it
                # sorts by exact bounds, by the batch maximum.
                if exact is not None:
                    for shard_id in np.unique(shard_of[scan]):
                        if not exact[shard_id]:
                            resolve(int(shard_id))
                scan = sorted(scan, key=lambda cid: -float(lo[cid].max()))
                in_order = False

        for cid in scan:
            shard_id = int(shard_of[cid])
            if in_order:
                pin.release_below(shard_id)
            row = eligible[cid]
            if thresholds is not None:
                if exact is not None and not exact[shard_id]:
                    unsure = row & ~(lo[cid] >= thresholds) & ~(hi[cid] < thresholds)
                    if np.any(unsure):
                        resolve(shard_id)
                row = row & ~(hi[cid] < thresholds)
            active = np.flatnonzero(row)
            if active.size == 0:
                continue
            shard = pin(shard_id)
            shard.back_cluster(
                cid - shard.first_cluster,
                y_mat,
                x_mat,
                cols=None if active.size == n_queries else active,
            )
            scored[cid, active] = True
            sl = perm.cluster_slices[cid]
            # Columns whose best score cannot enter their frontier skip
            # the (no-op) offer.
            block_maxima = (
                x_mat[sl.start : sl.stop, active].max(axis=0)
                if sl.stop > sl.start
                else np.zeros(active.size)
            )
            for idx, j in enumerate(active):
                acc = accs[j]
                if block_maxima[idx] >= acc.threshold:
                    acc.offer_block(x_mat[:, j], sl.start, sl.stop)
                    if thresholds is not None:
                        thresholds[j] = acc.threshold
    finally:
        pin.release_below(n_shards)

    # Every eligible (cluster, query) pair was either scored or pruned.
    # Summed over clusters that gives each query's counters, and over
    # queries and a shard's cluster range that shard's aggregate.
    weights = np.stack([np.ones_like(sizes), sizes])
    query_eligible = (weights @ eligible).T.tolist()
    query_scored = (weights @ scored).T.tolist()
    for stat, (clusters, nodes), (done, done_nodes) in zip(
        stats, query_eligible, query_scored
    ):
        stat.clusters_scored += done
        stat.nodes_scored += done_nodes
        stat.clusters_pruned = clusters - done
        stat.pruned_nodes = nodes - done_nodes
        stat.bound_evaluations = clusters if use_pruning else 0
        stat.extra["n_shards"] = n_shards
    per_cluster = np.stack([eligible.sum(axis=1), scored.sum(axis=1)])
    per_shard = np.add.reduceat(
        np.concatenate([per_cluster, per_cluster * sizes]),
        [c_lo for c_lo, _ in layout.cluster_ranges],
        axis=1,
    ).T.tolist()
    shard_totals = [
        SearchStats(
            clusters_total=(c_hi - c_lo) * n_queries,
            clusters_pruned=clusters - done,
            clusters_scored=done,
            nodes_scored=done_nodes,
            bound_evaluations=clusters if use_pruning else 0,
            pruned_nodes=nodes - done_nodes,
        )
        for (c_lo, c_hi), (clusters, done, nodes, done_nodes) in zip(
            layout.cluster_ranges, per_shard
        )
    ]
    answers = [acc.collect() for acc in accs]
    return answers, BatchStats(per_query=tuple(stats)), shard_totals


def scatter_gather_rerank(
    index: ShardedMogulIndex,
    queries,
    k: int,
    candidates_list,
    use_pruning: bool = True,
    cluster_order: str = "index",
) -> tuple[list[list[tuple[int, float]]], BatchStats, list[SearchStats]]:
    """Candidate-restricted scatter-gather: the sharded exact re-rank.

    The sharded counterpart of :func:`repro.core.search.top_k_rerank`:
    each query ``j`` may only answer from ``candidates_list[j]``
    (permuted positions).  Stages 1-2 match
    :func:`scatter_gather_search` — the substitutions are what make the
    scores exact — but the router offers only the candidates that fall
    in the seed/border region, shards only visit clusters holding a
    pending candidate, and every shard accumulator starts at the
    router's threshold (:class:`repro.core.TopKAccumulator`'s
    ``initial_threshold``), so bound pruning applies against the
    candidates from the first cluster.

    Returns ``(answers, per-query stats, per-shard aggregate stats)``;
    ``stats.extra["candidates"]`` records each query's candidate count,
    and ``pruned_nodes`` counts candidates dropped by pruning (the
    restricted scan never touches non-candidate nodes).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if cluster_order not in ("index", "bound_desc"):
        raise ValueError(f"unknown cluster_order {cluster_order!r}")
    n_queries = len(queries)
    if len(candidates_list) != n_queries:
        raise ValueError(
            f"got {n_queries} queries but {len(candidates_list)} candidate sets"
        )
    n_shards = index.n_shards
    if n_queries == 0:
        return [], BatchStats(per_query=()), [SearchStats() for _ in range(n_shards)]
    perm = index.permutation
    n = perm.n_nodes
    border = perm.border_slice
    border_start = border.start
    border_id = perm.border_cluster

    stats = [
        SearchStats(clusters_total=perm.n_clusters) for _ in range(n_queries)
    ]
    candidate_arrays: list[np.ndarray] = []
    for j, candidates in enumerate(candidates_list):
        positions = np.unique(np.asarray(candidates, dtype=np.int64))
        if positions.size == 0:
            raise ValueError("every query needs a non-empty candidate set")
        if positions[0] < 0 or positions[-1] >= n:
            raise ValueError("candidate positions out of range")
        candidate_arrays.append(positions)
        stats[j].extra["candidates"] = int(positions.size)

    # Stages 1-2 as in scatter_gather_search.  A shard stays pinned from
    # its seed solves until its own scan below is done.
    pin = _ShardPins(index)
    try:
        seed_cluster_sets, y_mat, x_mat = _solve_router(index, queries, pin)

        # Router frontier: only the candidates landing in the scored region.
        router_accs = [
            TopKAccumulator(k, n, query.exclude_positions) for query in queries
        ]
        scored_sets: list[set[int]] = []
        pending: list[dict[int, np.ndarray]] = []
        for j, seeds in enumerate(seed_cluster_sets):
            scored = seeds | {border_id}
            scored_sets.append(scored)
            for cid in scored:
                sl = perm.cluster_slices[cid]
                stats[j].nodes_scored += sl.stop - sl.start
            stats[j].clusters_scored = len(scored)
            positions = candidate_arrays[j]
            clusters = perm.cluster_of_position[positions]
            in_scored = np.isin(clusters, sorted(scored))
            ready = positions[in_scored]
            if ready.size:
                router_accs[j].offer_candidates(x_mat[ready, j], ready)
            rest = positions[~in_scored]
            rest_clusters = clusters[~in_scored]
            by_cluster: dict[int, np.ndarray] = {}
            for cid in np.unique(rest_clusters):
                by_cluster[int(cid)] = rest[rest_clusters == cid]
            pending.append(by_cluster)
        initial_thresholds = np.asarray(
            [acc.threshold for acc in router_accs], dtype=np.float64
        )

        # Stage 3 — scatter over candidate-owning clusters only: each
        # shard scan writes its own x_mat rows, keeps local accumulators
        # and returns its counter deltas.
        x_border_abs = np.abs(x_mat[border_start:, :])

        def scan_shard(shard_id: int):
            # The shard is pinned on first use, and its compact bounds
            # resolve to the exact table as in scatter_gather_search.
            bounds = index.shard_bounds(shard_id)
            n_local = bounds.n_clusters
            first = bounds.first_cluster
            accs = [
                TopKAccumulator(
                    k,
                    n,
                    query.exclude_positions,
                    initial_threshold=initial_thresholds[j],
                )
                for j, query in enumerate(queries)
            ]
            shard_stats = SearchStats(clusters_total=n_local * n_queries)
            eligible = np.zeros((n_local, n_queries), dtype=bool)
            cand_counts = np.zeros((n_local, n_queries), dtype=np.int64)
            for j, by_cluster in enumerate(pending):
                for cid, members in by_cluster.items():
                    if first <= cid < first + n_local:
                        eligible[cid - first, j] = True
                        cand_counts[cid - first, j] = members.size
            bound_evals = eligible.sum(axis=0).astype(np.int64)
            shard_stats.bound_evaluations = int(bound_evals.sum())

            pruned_clusters = np.zeros(n_queries, dtype=np.int64)
            pruned_nodes = np.zeros(n_queries, dtype=np.int64)
            scored_clusters = np.zeros(n_queries, dtype=np.int64)
            scored_nodes = np.zeros(n_queries, dtype=np.int64)

            exact_est: np.ndarray | None = None

            def exact_estimates() -> np.ndarray:
                nonlocal exact_est
                if exact_est is None:
                    if bounds.table is not None:
                        exact_est = bounds.table.estimate_all(x_border_abs)
                    else:
                        exact_est = pin(shard_id).bounds_table.estimate_all(
                            x_border_abs
                        )
                        mgr = index.residency
                        if mgr is not None:
                            mgr.note_bound_fallback()
                return exact_est

            lo = hi = None
            if not use_pruning:
                scan = [lc for lc in range(n_local) if eligible[lc].any()]
                estimates = None
            else:
                if bounds.compact is None:
                    estimates = exact_estimates()
                else:
                    lo, hi = bounds.compact.estimate_bands(x_border_abs)
                    estimates = None
                thresholds = np.asarray([acc.threshold for acc in accs])
                if estimates is None:
                    at_least = lo >= thresholds
                    ambiguous = eligible & ~at_least & ~(hi < thresholds)
                    if np.any(ambiguous):
                        estimates = exact_estimates()
                        may_need = eligible & (estimates >= thresholds)
                    else:
                        may_need = eligible & at_least
                else:
                    may_need = eligible & (estimates >= thresholds)
                visit_mask = may_need.any(axis=1)
                skipped = ~visit_mask
                if np.any(skipped):
                    pruned_clusters += eligible[skipped].sum(axis=0)
                    pruned_nodes += cand_counts[skipped].sum(axis=0)
                scan = [lc for lc in range(n_local) if visit_mask[lc]]
                if cluster_order == "bound_desc":
                    estimates = exact_estimates()
                    scan.sort(key=lambda lc: -float(estimates[lc].max()))

            for lc in scan:
                row_eligible = eligible[lc]
                sl = bounds.cluster_slices[lc]
                size = sl.stop - sl.start
                if use_pruning:
                    if estimates is None:
                        below = hi[lc] < thresholds
                        unsure = (
                            row_eligible
                            & ~below
                            & ~(lo[lc] >= thresholds)
                        )
                        if np.any(unsure):
                            estimates = exact_estimates()
                    if estimates is not None:
                        below = estimates[lc] < thresholds
                    pruned = row_eligible & below
                    if np.any(pruned):
                        pruned_clusters[pruned] += 1
                        pruned_nodes[pruned] += cand_counts[lc][pruned]
                    active = np.flatnonzero(row_eligible & ~pruned)
                    if active.size == 0:
                        continue
                else:
                    active = np.flatnonzero(row_eligible)
                cols = None if active.size == n_queries else active
                pin(shard_id).back_cluster(lc, y_mat, x_mat, cols=cols)
                for j in active:
                    scored_clusters[j] += 1
                    scored_nodes[j] += size
                    members = pending[j][first + lc]
                    acc = accs[j]
                    acc.offer_candidates(x_mat[members, j], members)
                    if use_pruning:
                        thresholds[j] = acc.threshold

            shard_stats.clusters_pruned = int(pruned_clusters.sum())
            shard_stats.pruned_nodes = int(pruned_nodes.sum())
            shard_stats.clusters_scored = int(scored_clusters.sum())
            shard_stats.nodes_scored = int(scored_nodes.sum())
            deltas = (
                bound_evals,
                pruned_clusters,
                pruned_nodes,
                scored_clusters,
                scored_nodes,
            )
            return shard_stats, [acc.collect() for acc in accs], deltas

        shard_answer_lists: list[list[list[tuple[int, float]]]] = []
        shard_totals: list[SearchStats] = []
        for shard_id in range(n_shards):
            shard_stats, answer_list, deltas = scan_shard(shard_id)
            pin.release_below(shard_id + 1)
            shard_totals.append(shard_stats)
            shard_answer_lists.append(answer_list)
            bound_evals, pruned_c, pruned_n, scored_c, scored_n = deltas
            for j in range(n_queries):
                stats[j].bound_evaluations += int(bound_evals[j])
                stats[j].clusters_pruned += int(pruned_c[j])
                stats[j].pruned_nodes += int(pruned_n[j])
                stats[j].clusters_scored += int(scored_c[j])
                stats[j].nodes_scored += int(scored_n[j])
    finally:
        pin.release_below(n_shards)

    answers = [
        merge_answer_pairs(
            [router_accs[j].collect()]
            + [shard_answer_lists[s][j] for s in range(n_shards)],
            k,
        )
        for j in range(n_queries)
    ]
    for j in range(n_queries):
        stats[j].extra["n_shards"] = n_shards
    return answers, BatchStats(per_query=tuple(stats)), shard_totals


# -- the sharded engine ----------------------------------------------------


class ShardedMogulRanker(Ranker):
    """Top-k Manifold Ranking served by the sharded index.

    Implements the same :class:`repro.core.engine.Engine` surface as
    :class:`repro.core.MogulRanker` — single, multi-seed, batched and
    out-of-sample queries — routing each through
    :func:`scatter_gather_search`.  A query is one pass over the
    clusters of every shard under one frontier, so its answer and its
    ``last_stats`` / ``last_batch_stats`` counters equal the unsharded
    engine's on every entry point; ``last_shard_stats`` splits the most
    recent call's counters by shard (per-thread, like every ambient
    stats attribute).

    The pass runs on the calling thread.  Entry points are reentrant,
    so concurrent callers share one engine safely; a second thread per
    query measured slower, not faster (see the README's "Query-time
    concurrency" note).
    """

    #: Per-shard aggregate stats of this thread's most recent engine call.
    last_shard_stats = ambient_stat(
        "last_shard_stats",
        "Per-shard aggregate :class:`SearchStats` of this thread's most "
        "recent engine call (``None`` before the first).",
    )

    def __init__(
        self,
        graph: KnnGraph,
        n_shards: int,
        alpha: float = DEFAULT_ALPHA,
        exact: bool = False,
        cluster_labels: np.ndarray | None = None,
        clusterer: ClusterFn = louvain,
        fill_level: int = 0,
        use_pruning: bool = True,
        cluster_order: str = "index",
    ):
        super().__init__(graph, alpha)
        index = ShardedMogulIndex.build(
            graph,
            n_shards,
            alpha=self.alpha,
            factorization="complete" if exact else "incomplete",
            cluster_labels=cluster_labels,
            clusterer=clusterer,
            fill_level=0 if exact else fill_level,
        )
        self._init_from_index(index, use_pruning, cluster_order)

    @classmethod
    def from_index(
        cls,
        graph: KnnGraph,
        index: ShardedMogulIndex,
        use_pruning: bool = True,
        cluster_order: str = "index",
    ) -> "ShardedMogulRanker":
        """Attach a prebuilt (e.g. loaded) sharded index to a feature graph."""
        if graph.n_nodes != index.n_nodes:
            raise ValueError(
                f"graph has {graph.n_nodes} nodes but the index covers "
                f"{index.n_nodes}"
            )
        if graph.features.shape[1] != index.cluster_means.shape[1]:
            raise ValueError(
                f"graph features have dimension {graph.features.shape[1]} but "
                f"the index was built on dimension {index.cluster_means.shape[1]}"
            )
        ranker = cls.__new__(cls)
        Ranker.__init__(ranker, graph, index.alpha)
        ranker._init_from_index(index, use_pruning, cluster_order)
        return ranker

    def _init_from_index(
        self,
        index: ShardedMogulIndex,
        use_pruning: bool,
        cluster_order: str,
    ) -> None:
        self.index = index
        self.exact = index.factorization == "complete"
        self.name = (
            f"Sharded{'MogulE' if self.exact else 'Mogul'}"
            f"(S={index.n_shards})"
        )
        self.use_pruning = use_pruning
        self.cluster_order = cluster_order
        # Ambient stats (thread-local descriptors): start every slot
        # empty for the constructing thread.
        self.last_stats = None
        self.last_batch_stats = None
        self.last_shard_stats = None
        self.last_breakdown = None

    # -- scoring ----------------------------------------------------------

    def scores(self, query: int) -> np.ndarray:
        """Full (approximate) score vector via the whole-factor solve."""
        self._check_query(query)
        perm = self.index.permutation
        q_vec = np.zeros(self.n_nodes, dtype=np.float64)
        q_vec[perm.inverse[query]] = 1.0 - self.alpha
        return perm.unpermute_vector(self.index.solve_full(q_vec))

    def scores_for_vector(self, q: np.ndarray) -> np.ndarray:
        """Approximate scores for an arbitrary query vector (one solve)."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n_nodes,):
            raise ValueError(f"q must have shape ({self.n_nodes},), got {q.shape}")
        perm = self.index.permutation
        q_permuted = (1.0 - self.alpha) * perm.permute_vector(q)
        return perm.unpermute_vector(self.index.solve_full(q_permuted))

    # -- engine entry points ----------------------------------------------

    def top_k(self, query: int, k: int, exclude_query: bool = True) -> TopKResult:
        """Bound-pruned top-k for an in-database query, scatter-gathered."""
        k = check_positive_int(k, "k")
        self._check_query(query)
        position = int(self.index.permutation.inverse[query])
        batch = [
            BatchQuery(
                seed_positions=np.asarray([position]),
                seed_weights=np.asarray([1.0 - self.alpha]),
                exclude_positions=(position,) if exclude_query else (),
            )
        ]
        return self._run(batch, k, single=True)[0]

    def top_k_multi(
        self,
        queries,
        k: int,
        weights: np.ndarray | None = None,
        exclude_queries: bool = True,
    ) -> TopKResult:
        """Multi-seed top-k with the native scatter-gather search."""
        k = check_positive_int(k, "k")
        seeds = np.asarray(queries, dtype=np.int64)
        if seeds.ndim != 1 or seeds.size == 0:
            raise ValueError("queries must be a non-empty 1-D sequence of node ids")
        if np.unique(seeds).size != seeds.size:
            raise ValueError("queries contains duplicate node ids")
        for node in seeds:
            self._check_query(int(node))
        weights = normalize_seed_weights(weights, seeds.size)
        positions = self.index.permutation.inverse[seeds]
        batch = [
            BatchQuery(
                seed_positions=positions,
                seed_weights=(1.0 - self.alpha) * weights,
                exclude_positions=tuple(int(p) for p in positions)
                if exclude_queries
                else (),
            )
        ]
        return self._run(batch, k, single=True)[0]

    def top_k_batch(
        self, queries, k: int, exclude_query: bool = True
    ) -> list[TopKResult]:
        """Independent single-node queries in one scatter-gather pass."""
        k = check_positive_int(k, "k")
        nodes = self._check_batch_queries(queries)
        perm = self.index.permutation
        batch = []
        for node in nodes:
            position = int(perm.inverse[node])
            batch.append(
                BatchQuery(
                    seed_positions=np.asarray([position]),
                    seed_weights=np.asarray([1.0 - self.alpha]),
                    exclude_positions=(position,) if exclude_query else (),
                )
            )
        return self._run(batch, k)

    def top_k_out_of_sample(
        self, feature: np.ndarray, k: int, n_probe: int = 1
    ) -> TopKResult:
        """§4.6.2 out-of-sample top-k, routed through the owning shard(s)."""
        k = check_positive_int(k, "k")
        feature = np.asarray(feature, dtype=np.float64)
        if feature.shape != (self.graph.features.shape[1],):
            raise ValueError(
                f"feature must have shape ({self.graph.features.shape[1]},), "
                f"got {feature.shape}"
            )
        nn_timer = Timer()
        with nn_timer:
            seeds = build_query_seeds(
                feature,
                self.index.cluster_means,
                self.index.cluster_members,
                self.graph.features,
                n_neighbors=self.graph.k,
                sigma=self.graph.sigma,
                n_probe=n_probe,
            )
        perm = self.index.permutation
        search_timer = Timer()
        with search_timer:
            batch = [
                BatchQuery(
                    seed_positions=perm.inverse[seeds.nodes],
                    seed_weights=(1.0 - self.alpha) * seeds.weights,
                )
            ]
            result = self._run(batch, k, single=True)[0]
        self.last_breakdown = {
            "nearest_neighbor": nn_timer.elapsed,
            "top_k": search_timer.elapsed,
            "overall": nn_timer.elapsed + search_timer.elapsed,
        }
        return result

    def top_k_out_of_sample_batch(
        self, features: np.ndarray, k: int, n_probe: int = 1
    ) -> list[TopKResult]:
        """Batched out-of-sample queries through the scatter-gather engine."""
        k = check_positive_int(k, "k")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.graph.features.shape[1]:
            raise ValueError(
                f"features must have shape (b, {self.graph.features.shape[1]}), "
                f"got {features.shape}"
            )
        seeds_list = build_query_seeds_batch(
            features,
            self.index.cluster_means,
            self.index.cluster_members,
            self.graph.features,
            n_neighbors=self.graph.k,
            sigma=self.graph.sigma,
            n_probe=n_probe,
        )
        perm = self.index.permutation
        batch = [
            BatchQuery(
                seed_positions=perm.inverse[seeds.nodes],
                seed_weights=(1.0 - self.alpha) * seeds.weights,
            )
            for seeds in seeds_list
        ]
        return self._run(batch, k)

    # -- candidate-restricted re-ranking ----------------------------------

    def _candidate_positions(self, candidates) -> np.ndarray:
        nodes = np.asarray(candidates, dtype=np.int64)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("candidates must be a non-empty 1-D sequence of node ids")
        if nodes.min() < 0 or nodes.max() >= self.n_nodes:
            raise ValueError(f"candidate ids out of range for n={self.n_nodes}")
        return self.index.permutation.inverse[nodes]

    def top_k_rerank(
        self,
        query: int,
        k: int,
        candidates,
        exclude_query: bool = True,
    ) -> TopKResult:
        """Exact top-k restricted to ``candidates`` (original node ids).

        The sharded counterpart of
        :meth:`repro.core.MogulRanker.top_k_rerank`: scores are bitwise
        the engine's own, only answer eligibility is restricted.
        """
        k = check_positive_int(k, "k")
        self._check_query(query)
        position = int(self.index.permutation.inverse[query])
        batch = [
            BatchQuery(
                seed_positions=np.asarray([position]),
                seed_weights=np.asarray([1.0 - self.alpha]),
                exclude_positions=(position,) if exclude_query else (),
            )
        ]
        return self._run_rerank(
            batch, k, [self._candidate_positions(candidates)], single=True
        )[0]

    def top_k_rerank_seeded(
        self,
        seed_nodes,
        seed_weights: np.ndarray,
        k: int,
        candidates,
    ) -> TopKResult:
        """Candidate-restricted exact top-k for a seeded query.

        ``seed_weights`` are raw (sum-1) weights; the ``1 - alpha``
        scaling is applied here, matching :meth:`top_k_out_of_sample`.
        """
        k = check_positive_int(k, "k")
        seeds = np.asarray(seed_nodes, dtype=np.int64)
        weights = np.asarray(seed_weights, dtype=np.float64)
        if seeds.ndim != 1 or seeds.size == 0 or weights.shape != seeds.shape:
            raise ValueError(
                "seed_nodes and seed_weights must be matching non-empty 1-D arrays"
            )
        batch = [
            BatchQuery(
                seed_positions=self.index.permutation.inverse[seeds],
                seed_weights=(1.0 - self.alpha) * weights,
            )
        ]
        return self._run_rerank(
            batch, k, [self._candidate_positions(candidates)], single=True
        )[0]

    def top_k_rerank_batch(
        self,
        queries,
        k: int,
        candidates_list,
        exclude_query: bool = True,
    ) -> list[TopKResult]:
        """Per-query candidate-restricted re-rank in one scatter-gather pass."""
        k = check_positive_int(k, "k")
        nodes = self._check_batch_queries(queries)
        if len(candidates_list) != nodes.size:
            raise ValueError(
                f"got {nodes.size} queries but {len(candidates_list)} candidate sets"
            )
        perm = self.index.permutation
        batch = []
        for node in nodes:
            position = int(perm.inverse[node])
            batch.append(
                BatchQuery(
                    seed_positions=np.asarray([position]),
                    seed_weights=np.asarray([1.0 - self.alpha]),
                    exclude_positions=(position,) if exclude_query else (),
                )
            )
        positions_list = [
            self._candidate_positions(candidates) for candidates in candidates_list
        ]
        return self._run_rerank(batch, k, positions_list)

    # -- internals --------------------------------------------------------

    def _run_rerank(
        self,
        batch: list[BatchQuery],
        k: int,
        candidates_list: list[np.ndarray],
        single: bool = False,
    ) -> list[TopKResult]:
        with obs_span(
            "shards.scan",
            shards=self.index.n_shards,
            batch=len(batch),
        ) as node:
            answers, batch_stats, shard_stats = scatter_gather_rerank(
                self.index,
                batch,
                k,
                candidates_list,
                use_pruning=self.use_pruning,
                cluster_order=self.cluster_order,
            )
            node.annotate(
                scored=[int(s.clusters_scored) for s in shard_stats],
                pruned=[int(s.clusters_pruned) for s in shard_stats],
            )
        self.last_shard_stats = shard_stats
        if single:
            self.last_stats = batch_stats.per_query[0]
        else:
            self.last_batch_stats = batch_stats
        order = self.index.permutation.order
        results = []
        for pairs in answers:
            ids = np.asarray([order[pos] for pos, _ in pairs], dtype=np.int64)
            scores = np.asarray([score for _, score in pairs], dtype=np.float64)
            results.append(sorted_result(ids, scores))
        return results

    def _run(
        self, batch: list[BatchQuery], k: int, single: bool = False
    ) -> list[TopKResult]:
        with obs_span(
            "shards.scan",
            shards=self.index.n_shards,
            batch=len(batch),
        ) as node:
            answers, batch_stats, shard_stats = scatter_gather_search(
                self.index,
                batch,
                k,
                use_pruning=self.use_pruning,
                cluster_order=self.cluster_order,
            )
            node.annotate(
                scored=[int(s.clusters_scored) for s in shard_stats],
                pruned=[int(s.clusters_pruned) for s in shard_stats],
            )
        self.last_shard_stats = shard_stats
        if single:
            self.last_stats = batch_stats.per_query[0]
        else:
            self.last_batch_stats = batch_stats
        order = self.index.permutation.order
        results = []
        for pairs in answers:
            ids = np.asarray([order[pos] for pos, _ in pairs], dtype=np.int64)
            scores = np.asarray([score for _, score in pairs], dtype=np.float64)
            results.append(sorted_result(ids, scores))
        return results
