"""The minimal engine interface every query-serving ranker implements.

:class:`Engine` is the contract the rest of the system programs against —
the batched execution layer, the dynamic database, the service scheduler,
the eval harness and the CLI all accept "an engine", never a concrete
ranker class.  Two implementations exist today:

* :class:`repro.core.MogulRanker` — one index, one factorization.
* :class:`repro.core.ShardedMogulRanker` — the two-level sharded index
  served through a scatter-gather router.

The protocol is deliberately small: the four query entry points plus the
stats attributes they maintain.  Anything engine-specific (ablation
switches, shard layout, build profiles) stays off the interface.

:func:`engine_from_index` is the matching factory: given a feature graph
and *any* persisted index artifact (a legacy single ``MogulIndex`` or a
``ShardedMogulIndex`` directory), it returns the right engine — the one
dispatch point the CLI and service share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.ranking.base import TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchStats
    from repro.core.search import SearchStats
    from repro.graph.adjacency import KnnGraph


@runtime_checkable
class Engine(Protocol):
    """What a query-serving ranker must provide.

    Implementations guarantee that the batched entry points return
    answers identical to their sequential counterparts — batching is an
    execution strategy, never a semantic: the scheduler coalesces
    requests relying on it.

    Entry points are **reentrant**: concurrent calls from different
    threads are safe, and the ambient stats attributes are per-thread
    (each caller reads back its own most recent call's counters, never
    another thread's — see
    :class:`repro.ranking.base.AmbientStatsMixin`).  Callers that want
    the stats explicitly use the ``*_with_stats`` wrappers the mixin
    provides (``top_k_with_stats`` et al.), which return
    ``(answer, stats)`` without relying on ambient state at all — the
    serving scheduler's engine thread uses exactly those.
    """

    #: Human-readable method name (used by /healthz and result tables).
    name: str
    #: Stats of this thread's most recent single-query call.
    last_stats: "SearchStats | None"
    #: Stats of this thread's most recent batched call.
    last_batch_stats: "BatchStats | None"
    #: The feature graph queries are answered against.
    graph: "KnnGraph"

    @property
    def n_nodes(self) -> int:
        """Number of database nodes."""

    def top_k(self, query: int, k: int, exclude_query: bool = True) -> TopKResult:
        """Top-k for an in-database query node."""

    def top_k_batch(
        self, queries, k: int, exclude_query: bool = True
    ) -> list[TopKResult]:
        """Independent single-node queries answered in one engine pass."""

    def top_k_out_of_sample(
        self, feature: np.ndarray, k: int, n_probe: int = 1
    ) -> TopKResult:
        """Top-k for a feature vector outside the database (§4.6.2)."""

    def top_k_out_of_sample_batch(
        self, features: np.ndarray, k: int, n_probe: int = 1
    ) -> list[TopKResult]:
        """Batched out-of-sample queries."""


def _artifact_kind(index) -> str:
    """A human name for an index artifact, for error messages."""
    from repro.core.index import MogulIndex
    from repro.core.sharded import ShardedMogulIndex

    if isinstance(index, ShardedMogulIndex):
        return "a sharded Mogul index"
    if isinstance(index, MogulIndex):
        return "a flat Mogul index"
    return f"an unsupported artifact of type {type(index).__name__}"


def engine_from_index(
    graph, index, live: bool = False, live_kwargs: dict | None = None,
    **search_kwargs,
) -> "Engine":
    """Attach the right engine to a loaded index artifact.

    ``index`` is whatever :func:`repro.core.serialize.load_any_index`
    returned — a flat :class:`repro.core.MogulIndex` (``.npz`` file) or
    a :class:`repro.core.ShardedMogulIndex` (directory layout).
    ``search_kwargs`` are forwarded to the engine constructor
    (``use_pruning``, ``cluster_order``, ...).  ``memory_budget_mb`` and
    ``bounds_dtype`` are accepted for *any* artifact so deployment
    flags need not know the artifact kind: on a sharded artifact
    they configure LRU shard residency and compact bound tables via
    :meth:`repro.core.sharded.ShardedMogulIndex.configure_memory_budget`
    before the engine attaches; on a flat artifact they are no-ops (it
    is loaded whole — there is no per-shard state to evict).

    ``live=True`` wraps the base engine in a
    :class:`repro.core.live.LiveEngine` (thread-safe writes + background
    rebuilds with atomic epoch swap); ``live_kwargs`` forwards its knobs
    (``k``, ``auto_rebuild_fraction``, ``fill_level``).  Both
    exact base kinds work: a sharded artifact rebuilds sharded, a flat
    one rebuilds flat, and rebuilds replay the ``search_kwargs`` applied
    here (they are read back off the base engine).  Any other artifact
    raises :class:`ValueError` naming its type.
    """
    from repro.core.index import MogulIndex, MogulRanker
    from repro.core.sharded import ShardedMogulIndex, ShardedMogulRanker

    # memory_budget_mb / bounds_dtype only mean something to the
    # sharded engine; popping them here lets callers pass them
    # unconditionally whatever the artifact kind.
    memory_budget_mb = search_kwargs.pop("memory_budget_mb", None)
    bounds_dtype = str(search_kwargs.pop("bounds_dtype", "float64"))
    if isinstance(index, ShardedMogulIndex):
        if memory_budget_mb is not None or bounds_dtype != "float64":
            index.configure_memory_budget(
                memory_budget_mb, bounds_dtype=bounds_dtype
            )
        base = ShardedMogulRanker.from_index(graph, index, **search_kwargs)
    elif isinstance(index, MogulIndex):
        base = MogulRanker.from_index(graph, index, **search_kwargs)
    else:
        raise ValueError(
            f"cannot build an engine around {_artifact_kind(index)}; "
            "expected a flat Mogul index (.npz) or a sharded Mogul index "
            "(directory)"
        )
    if not live:
        return base
    from repro.core.live import LiveEngine

    return LiveEngine.from_engine(base, **(live_kwargs or {}))
