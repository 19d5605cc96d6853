"""The common ranker interface every method in the library implements.

A :class:`Ranker` is constructed around one :class:`repro.graph.KnnGraph`
and a damping parameter, performs any precomputation eagerly (so that query
timings — the quantity the paper reports — exclude setup), and answers

* :meth:`Ranker.scores` — the full score vector for an in-database query
  node, and
* :meth:`Ranker.top_k` — the ranked top-k answer (by default excluding the
  query itself, since retrieval systems do not return the query image).

Methods that support out-of-sample queries (Mogul §4.6.2, EMR) additionally
implement :meth:`Ranker.top_k_out_of_sample`.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.graph.adjacency import KnnGraph
from repro.utils.validation import check_alpha, check_positive_int

#: The damping value used throughout the paper's experiments (§5).
DEFAULT_ALPHA = 0.99


def ambient_stat(attr: str, doc: str) -> property:
    """A per-thread ambient attribute (data descriptor) for query stats.

    Rankers historically published their instrumentation by assigning
    plain instance attributes (``self.last_stats = stats``) after every
    query.  That made engines non-reentrant: two threads solving on the
    same engine tear each other's stats.  This factory keeps the exact
    assignment syntax — a data descriptor shadows the instance
    ``__dict__``, so every existing ``self.last_stats = ...`` routes
    through the setter — but stores the value in a lazily created
    ``threading.local``: each thread reads back only the stats of *its
    own* most recent call, and an unset slot reads as ``None``.
    """

    def slots(self) -> threading.local:
        found = self.__dict__.get("_ambient_stats")
        if found is None:
            # dict.setdefault is atomic under the GIL: two racing first
            # writers agree on one threading.local instance.
            found = self.__dict__.setdefault("_ambient_stats", threading.local())
        return found

    def getter(self):
        return getattr(slots(self), attr, None)

    def setter(self, value) -> None:
        setattr(slots(self), attr, value)

    return property(getter, setter, doc=doc)


class AmbientStatsMixin:
    """Thread-local ``last_*`` stats plus explicit ``*_with_stats`` wrappers.

    Mixed into :class:`Ranker` (and the live engine, which is not
    a ``Ranker`` subclass).  The ambient attributes remain a convenience
    — callers that probe one query at a time from one thread keep
    working untouched — but they are no longer load-bearing for
    concurrent callers: the ``*_with_stats`` entry points return the
    stats explicitly, and because the ambient slot is per-thread the
    read-back inside them cannot observe another thread's query.
    """

    last_stats = ambient_stat(
        "last_stats",
        "This thread's :class:`repro.core.search.SearchStats` from its most "
        "recent single-query call (``None`` before the first).",
    )
    last_batch_stats = ambient_stat(
        "last_batch_stats",
        "This thread's :class:`repro.core.batch.BatchStats` from its most "
        "recent batch call (``None`` before the first).",
    )
    last_breakdown = ambient_stat(
        "last_breakdown",
        "This thread's per-stage timing breakdown from its most recent "
        "call, on rankers that record one (``None`` otherwise).",
    )

    # -- explicit-stats entry points (reentrant; the scheduler uses these)

    def top_k_with_stats(self, query: int, k: int, **kwargs):
        """``top_k`` plus this call's stats, race-free under concurrency."""
        result = self.top_k(query, k, **kwargs)
        return result, self.last_stats

    def top_k_batch_with_stats(self, queries, k: int, **kwargs):
        """``top_k_batch`` plus this call's :class:`BatchStats`."""
        results = self.top_k_batch(queries, k, **kwargs)
        return results, self.last_batch_stats

    def top_k_out_of_sample_with_stats(self, feature, k: int, **kwargs):
        """``top_k_out_of_sample`` plus this call's stats."""
        result = self.top_k_out_of_sample(feature, k, **kwargs)
        return result, self.last_stats

    def top_k_out_of_sample_batch_with_stats(self, features, k: int, **kwargs):
        """``top_k_out_of_sample_batch`` plus this call's :class:`BatchStats`."""
        results = self.top_k_out_of_sample_batch(features, k, **kwargs)
        return results, self.last_batch_stats


@dataclass(frozen=True)
class TopKResult:
    """A ranked answer list.

    Attributes
    ----------
    indices:
        Node ids, best first.
    scores:
        Matching ranking scores (same order).
    """

    indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape != self.scores.shape:
            raise ValueError(
                f"indices {self.indices.shape} and scores {self.scores.shape} "
                "must have matching shapes"
            )

    def __len__(self) -> int:
        return int(self.indices.shape[0])


class Ranker(AmbientStatsMixin, ABC):
    """Base class: a Manifold Ranking scorer bound to one graph.

    Query entry points are **reentrant**: per-call instrumentation
    (``last_stats`` and friends, via :class:`AmbientStatsMixin`) is
    thread-local, so two threads may solve concurrently on one ranker
    and each reads back its own stats — or uses the explicit
    ``*_with_stats`` wrappers and never touches ambient state.
    """

    #: Human-readable method name used in experiment tables.
    name: str = "ranker"

    def __init__(self, graph: KnnGraph, alpha: float = DEFAULT_ALPHA):
        self.graph = graph
        self.alpha = check_alpha(alpha)

    @property
    def n_nodes(self) -> int:
        """Number of database nodes."""
        return self.graph.n_nodes

    @abstractmethod
    def scores(self, query: int) -> np.ndarray:
        """Ranking scores of all nodes for in-database query node ``query``."""

    def scores_for_vector(self, q: np.ndarray) -> np.ndarray:
        """Ranking scores for an arbitrary query vector ``q``.

        Manifold Ranking is linear in ``q`` (Eq. 2 applies a fixed linear
        operator), so the default combines per-node score vectors for the
        non-zero seeds.  Rankers with a native vector path (Iterative,
        Exact, Mogul) override this with a single solve.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n_nodes,):
            raise ValueError(f"q must have shape ({self.n_nodes},), got {q.shape}")
        total = np.zeros(self.n_nodes, dtype=np.float64)
        for node in np.flatnonzero(q):
            total += q[node] * self.scores(int(node))
        return total

    def top_k(self, query: int, k: int, exclude_query: bool = True) -> TopKResult:
        """Top-k nodes by ranking score for an in-database query.

        The default implementation ranks the full score vector; methods
        with a native top-k path (Mogul) override this.
        """
        k = check_positive_int(k, "k")
        self._check_query(query)
        full = self.scores(query)
        return rank_scores(full, k, exclude=query if exclude_query else None)

    def top_k_multi(
        self,
        queries: "np.ndarray | list[int]",
        k: int,
        weights: np.ndarray | None = None,
        exclude_queries: bool = True,
    ) -> TopKResult:
        """Top-k for a *set* of seed nodes (multi-example / relevance feedback).

        This is the generalized Manifold Ranking of He et al. [7]: the
        query vector carries (normalised) mass on several database nodes —
        e.g. the images a user marked as relevant — and the ranking
        reflects their joint manifold neighbourhood.

        Parameters
        ----------
        queries:
            Seed node ids (at least one, duplicates not allowed).
        k:
            Number of answers.
        weights:
            Optional positive relevance weights, normalised to sum to one;
            uniform when omitted.
        exclude_queries:
            Drop the seed nodes themselves from the answers (default).
        """
        k = check_positive_int(k, "k")
        seeds = np.asarray(queries, dtype=np.int64)
        if seeds.ndim != 1 or seeds.size == 0:
            raise ValueError("queries must be a non-empty 1-D sequence of node ids")
        if np.unique(seeds).size != seeds.size:
            raise ValueError("queries contains duplicate node ids")
        for node in seeds:
            self._check_query(int(node))
        weights = normalize_seed_weights(weights, seeds.size)
        q = np.zeros(self.n_nodes, dtype=np.float64)
        q[seeds] = weights
        full = self.scores_for_vector(q)
        return rank_scores(
            full, k, exclude_many=seeds if exclude_queries else None
        )

    def top_k_batch(
        self, queries: "np.ndarray | list[int]", k: int, exclude_query: bool = True
    ) -> list[TopKResult]:
        """Answer many single-node queries; one :class:`TopKResult` each."""
        return [self.top_k(int(query), k, exclude_query) for query in queries]

    def top_k_out_of_sample(self, feature: np.ndarray, k: int) -> TopKResult:
        """Top-k for a query vector that is *not* in the database.

        Optional capability; rankers without native support raise
        :class:`NotImplementedError` so experiment code can skip them.
        """
        raise NotImplementedError(f"{self.name} does not support out-of-sample queries")

    def _check_query(self, query: int) -> None:
        if not 0 <= query < self.n_nodes:
            raise ValueError(f"query index {query} out of range for n={self.n_nodes}")

    def _check_batch_queries(self, queries) -> np.ndarray:
        """Validate a :meth:`top_k_batch` query list into an id array.

        Duplicates are allowed — batch queries are independent — and an
        empty batch is valid (the caller returns an empty answer list).
        """
        nodes = np.asarray(queries, dtype=np.int64)
        if nodes.ndim != 1:
            raise ValueError("queries must be a 1-D sequence of node ids")
        for node in nodes:
            self._check_query(int(node))
        return nodes


def rank_scores(
    scores: np.ndarray,
    k: int,
    exclude: int | None = None,
    exclude_many: np.ndarray | None = None,
) -> TopKResult:
    """Rank a full score vector into a :class:`TopKResult`.

    Ties are broken by node id (ascending) to keep results deterministic
    across methods, which matters when comparing answer sets for P@k.
    ``exclude`` drops one node (the query); ``exclude_many`` drops a set
    (multi-seed queries).
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    working = scores.copy()
    n_excluded = 0
    if exclude is not None:
        working[exclude] = -np.inf
        n_excluded += 1
    if exclude_many is not None:
        dropped = np.asarray(exclude_many, dtype=np.int64)
        working[dropped] = -np.inf
        n_excluded = int(np.count_nonzero(np.isneginf(working)))
    k_eff = min(k, n - n_excluded)
    # Sort by (score desc, id asc): deterministic even under exact ties,
    # which matters when comparing answer sets across methods for P@k.
    order = np.lexsort((np.arange(n), -working))
    idx = order[:k_eff].astype(np.int64)
    return TopKResult(indices=idx, scores=scores[idx])


def normalize_seed_weights(weights: np.ndarray | None, count: int) -> np.ndarray:
    """Validate and sum-normalise multi-seed relevance weights."""
    if weights is None:
        return np.full(count, 1.0 / count, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (count,):
        raise ValueError(f"weights must have shape ({count},), got {weights.shape}")
    if np.any(weights <= 0):
        raise ValueError("weights must all be positive")
    return weights / float(weights.sum())
