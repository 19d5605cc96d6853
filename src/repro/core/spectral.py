"""The low-rank spectral engine: approximate ranking in two GEMVs.

:class:`SpectralIndex` holds the rank-r eigendecomposition of the
normalized adjacency (see :mod:`repro.linalg.spectral`) plus the
cluster means/members that out-of-sample routing needs;
:class:`SpectralEngine` wraps it in the same
:class:`repro.ranking.Ranker` / :class:`repro.core.Engine` surface as
:class:`repro.core.MogulRanker`, so the scheduler, server, cache and
eval harness drive it unchanged.

Unlike the Mogul index, the basis lives in **original node order** — no
permutation is involved, so answer indices come straight out of the
score vector.  Scores follow the library's convention
(``x = (1-alpha) W^{-1} q`` up to the rank truncation), which makes the
spectral scores directly comparable to — and a drop-in nomination tier
for — the exact engines (:mod:`repro.core.tiered`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.clustering.louvain import louvain
from repro.core.batch import BatchStats
from repro.core.out_of_sample import build_query_seeds, build_query_seeds_batch
from repro.core.permutation import ClusterFn
from repro.core.profile import BuildProfile
from repro.core.search import SearchStats
from repro.graph.adjacency import KnnGraph
from repro.linalg.spectral import (
    SpectralBasis,
    project_seeds,
    spectral_decompose,
    spectral_scores,
)
from repro.ranking.base import (
    DEFAULT_ALPHA,
    Ranker,
    TopKResult,
    rank_scores,
)
from repro.ranking.normalize import symmetric_normalize
from repro.utils.timer import Timer
from repro.utils.validation import check_alpha, check_positive_int

#: Default retained rank: enough spectrum for recall@10 well above 0.95
#: on the benchmark graphs while keeping the per-query GEMV tiny.
DEFAULT_SPECTRAL_RANK = 128


def nominate_from_scores(
    scores: np.ndarray, m: int, exclude: int | None = None
) -> np.ndarray:
    """Ids of the ``m`` highest-scoring nodes, best score first.

    The cheap selection path for tiered nomination: the exact re-rank
    only needs the candidate *set* (plus a best-first prefix for the
    nomination-recall counter), so the canonical total order
    :func:`repro.ranking.base.rank_scores` imposes on all ``n`` scores is
    wasted work here.  ``argpartition`` isolates the ``m`` survivors in
    O(n) and only those are sorted — on the 10k benchmark graph this is
    ~40x cheaper than ranking the full score vector.  Ties at the budget
    boundary are broken arbitrarily (the scores are approximate anyway;
    the re-rank restores exact ordering among whatever is nominated).
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if exclude is not None:
        scores = scores.copy()
        scores[exclude] = -np.inf
    m = min(int(m), n if exclude is None else n - 1)
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    if m < n:
        part = np.argpartition(scores, n - m)[n - m :]
    else:
        part = np.arange(n)
    order = np.argsort(scores[part])[::-1]
    return part[order].astype(np.int64)


@dataclass(frozen=True)
class SpectralIndex:
    """Query-independent state of the spectral engine.

    Attributes
    ----------
    basis:
        Rank-r eigenpairs of ``S`` in original node order.
    alpha:
        Damping parameter the filter is evaluated at.
    cluster_means:
        Mean feature vector per cluster (out-of-sample routing, shared
        semantics with :class:`repro.core.MogulIndex`).
    cluster_members:
        Original node ids per cluster.
    profile:
        Build profile; ``None`` when assembled by hand (tests).
    """

    basis: SpectralBasis
    alpha: float
    cluster_means: np.ndarray
    cluster_members: tuple[np.ndarray, ...]
    profile: BuildProfile | None = None

    @classmethod
    def build(
        cls,
        graph: KnnGraph,
        rank: int = DEFAULT_SPECTRAL_RANK,
        alpha: float = DEFAULT_ALPHA,
        cluster_labels: np.ndarray | None = None,
        clusterer: ClusterFn = louvain,
    ) -> "SpectralIndex":
        """Decompose the graph and tabulate the out-of-sample routing state.

        ``rank`` is clipped to the node count.  ``cluster_labels`` /
        ``clusterer`` mirror :meth:`repro.core.MogulIndex.build` so a
        tiered deployment can share one clustering between both tiers.
        """
        alpha = check_alpha(alpha)
        rank = check_positive_int(rank, "rank")
        profile = BuildProfile(factor_backend="eigsh")
        stages = profile.stages

        started = time.perf_counter()
        s = symmetric_normalize(graph.adjacency)
        stages["normalize"] = time.perf_counter() - started

        started = time.perf_counter()
        basis = spectral_decompose(s, rank)
        stages["eigendecomposition"] = time.perf_counter() - started

        started = time.perf_counter()
        if cluster_labels is None:
            cluster_labels = clusterer(graph.adjacency)
        cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
        n_clusters = int(cluster_labels.max()) + 1 if cluster_labels.size else 0
        members = tuple(
            np.flatnonzero(cluster_labels == cid).astype(np.int64)
            for cid in range(n_clusters)
        )
        means = np.zeros((n_clusters, graph.features.shape[1]), dtype=np.float64)
        for cid, nodes in enumerate(members):
            if nodes.size:
                means[cid] = graph.features[nodes].mean(axis=0)
        stages["cluster_means"] = time.perf_counter() - started

        profile.n_nodes = graph.n_nodes
        profile.n_clusters = n_clusters
        profile.w_nnz = int(s.nnz)
        profile.factor_nnz = int(basis.vectors.size)
        return cls(
            basis=basis,
            alpha=alpha,
            cluster_means=means,
            cluster_members=members,
            profile=profile,
        )

    @property
    def n_nodes(self) -> int:
        """Number of indexed nodes."""
        return self.basis.n_nodes

    @property
    def n_clusters(self) -> int:
        """Cluster count of the out-of-sample routing table."""
        return len(self.cluster_members)

    @property
    def rank(self) -> int:
        """Retained eigenpair count."""
        return self.basis.rank

    @property
    def factorization(self) -> str:
        """Uniform index-statistics surface (``/stats``, ``repro info``)."""
        return "spectral"

    @property
    def factor_nnz(self) -> int:
        """Dense coefficient count of the basis (the stats-surface analogue
        of the factor's non-zeros)."""
        return int(self.basis.vectors.size)


class SpectralEngine(Ranker):
    """Approximate Manifold Ranking through the rank-r spectral filter.

    Every query — in-database, multi-seed, or out-of-sample — reduces to
    one ``(n, r)`` GEMV (GEMM for batches): project the seed vector onto
    the basis, apply the transfer function, expand.  No pruning, no
    substitution, O(r·n) per query regardless of graph structure.

    One caveat the exact engines don't have: batched scores may differ
    from single-query scores in the last ulp (BLAS accumulates GEMM and
    GEMV in different orders), so batch-vs-single identity here is
    *ranking* identity, not bitwise score identity.  The tiered engine
    is immune — its answer scores come from the exact tier either way.
    """

    def __init__(
        self,
        graph: KnnGraph,
        rank: int = DEFAULT_SPECTRAL_RANK,
        alpha: float = DEFAULT_ALPHA,
        cluster_labels: np.ndarray | None = None,
        clusterer: ClusterFn = louvain,
    ):
        super().__init__(graph, alpha)
        self.index = SpectralIndex.build(
            graph,
            rank=rank,
            alpha=self.alpha,
            cluster_labels=cluster_labels,
            clusterer=clusterer,
        )
        self._finish_init()

    @classmethod
    def from_index(cls, graph: KnnGraph, index: SpectralIndex) -> "SpectralEngine":
        """Attach a prebuilt spectral index to its graph."""
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
        engine = cls.__new__(cls)
        Ranker.__init__(engine, graph, index.alpha)
        engine.index = index
        engine._finish_init()
        return engine

    def _finish_init(self) -> None:
        self.name = f"Spectral(r={self.index.rank})"
        #: :class:`SearchStats` of the most recent single-query call.
        self.last_stats: SearchStats | None = None
        #: :class:`BatchStats` of the most recent batch call.
        self.last_batch_stats: BatchStats | None = None
        #: Wall-clock breakdown of the most recent out-of-sample query.
        self.last_breakdown: dict[str, float] | None = None

    @property
    def rank(self) -> int:
        """Retained eigenpair count."""
        return self.index.rank

    def _query_stats(self) -> SearchStats:
        # The GEMV scores every node; the counters say so honestly (no
        # clusters are visited or pruned — the spectral tier has none).
        return SearchStats(
            clusters_total=self.index.n_clusters,
            clusters_scored=self.index.n_clusters,
            nodes_scored=self.n_nodes,
            extra={"tier": "spectral", "rank": self.index.rank},
        )

    # -- scoring --------------------------------------------------------

    def scores(self, query: int) -> np.ndarray:
        """Approximate score vector: project, filter, expand."""
        self._check_query(query)
        return spectral_scores(
            self.index.basis, self.alpha, self.index.basis.vectors[query]
        )

    def scores_for_vector(self, q: np.ndarray) -> np.ndarray:
        """Approximate scores for an arbitrary query vector (one GEMV)."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n_nodes,):
            raise ValueError(f"q must have shape ({self.n_nodes},), got {q.shape}")
        projection = self.index.basis.vectors.T @ q
        return spectral_scores(self.index.basis, self.alpha, projection)

    def top_k(self, query: int, k: int, exclude_query: bool = True) -> TopKResult:
        k = check_positive_int(k, "k")
        self._check_query(query)
        full = self.scores(query)
        self.last_stats = self._query_stats()
        return rank_scores(full, k, exclude=query if exclude_query else None)

    def top_k_batch(
        self, queries, k: int, exclude_query: bool = True
    ) -> list[TopKResult]:
        """Batched in-database queries: one GEMM for the whole batch."""
        k = check_positive_int(k, "k")
        nodes = self._check_batch_queries(queries)
        if nodes.size == 0:
            self.last_batch_stats = BatchStats(per_query=())
            return []
        projections = self.index.basis.vectors[nodes].T
        scores = spectral_scores(self.index.basis, self.alpha, projections)
        results = [
            rank_scores(
                scores[:, col],
                k,
                exclude=int(node) if exclude_query else None,
            )
            for col, node in enumerate(nodes)
        ]
        self.last_batch_stats = BatchStats(
            per_query=tuple(self._query_stats() for _ in results)
        )
        return results

    # -- nomination (the tiered fast path) ------------------------------

    def nominate(
        self, query: int, m: int, exclude_query: bool = True
    ) -> np.ndarray:
        """Candidate ids for an exact re-rank, best approximate score first.

        Same GEMV as :meth:`top_k` but with partial selection instead of
        a full canonical ranking (:func:`nominate_from_scores`) — this is
        the hot path :class:`repro.core.tiered.TieredEngine` sits on, so
        it skips the stats bookkeeping of the public entry points.
        """
        self._check_query(query)
        return nominate_from_scores(
            self.scores(query), m, exclude=query if exclude_query else None
        )

    def nominate_batch(
        self, queries, m: int, exclude_query: bool = True
    ) -> list[np.ndarray]:
        """Batched nomination: one GEMM, then batch-wide partial selection.

        The selection is vectorised across the whole batch — one
        ``argpartition`` and one ``argsort`` call over a ``(b, n)``
        row-contiguous score matrix instead of b strided per-column
        passes — so the per-query cost amortises the same way the GEMM
        does.
        """
        nodes = self._check_batch_queries(queries)
        if nodes.size == 0:
            return []
        projections = self.index.basis.vectors[nodes].T
        scores = spectral_scores(self.index.basis, self.alpha, projections)
        # (b, n) row-contiguous: each query's scores are one cache-friendly
        # row for the axis-1 partition below.
        scores = np.ascontiguousarray(scores.T)
        n = scores.shape[1]
        if exclude_query:
            scores[np.arange(nodes.size), nodes] = -np.inf
        m = min(int(m), n if not exclude_query else n - 1)
        if m <= 0:
            return [np.empty(0, dtype=np.int64) for _ in nodes]
        if m < n:
            part = np.argpartition(scores, n - m, axis=1)[:, n - m :]
        else:
            part = np.broadcast_to(np.arange(n), scores.shape)
        values = np.take_along_axis(scores, part, axis=1)
        order = np.argsort(values, axis=1)[:, ::-1]
        nominated = np.take_along_axis(part, order, axis=1).astype(np.int64)
        return [nominated[row] for row in range(nodes.size)]

    # -- out-of-sample (§4.6.2 seeding + Nyström-style projection) ------

    def top_k_out_of_sample(
        self, feature: np.ndarray, k: int, n_probe: int = 1
    ) -> TopKResult:
        """Out-of-sample query: seed database neighbours, project them.

        The seeding step is exactly Mogul's §4.6.2 (nearest cluster by
        mean, heat-kernel weights on in-cluster neighbours); the seeded
        query vector is then projected onto the basis instead of solved —
        the Nyström view of extending the eigenbasis to unseen points.
        """
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
        search_timer = Timer()
        with search_timer:
            projection = project_seeds(self.index.basis, seeds.nodes, seeds.weights)
            full = spectral_scores(self.index.basis, self.alpha, projection)
            result = rank_scores(full, k)
        self.last_stats = self._query_stats()
        self.last_breakdown = {
            "nearest_neighbor": nn_timer.elapsed,
            "top_k": search_timer.elapsed,
            "overall": nn_timer.elapsed + search_timer.elapsed,
        }
        return result

    def top_k_out_of_sample_batch(
        self, features: np.ndarray, k: int, n_probe: int = 1
    ) -> list[TopKResult]:
        """Batched out-of-sample queries: grouped seeding, one GEMM."""
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
        if not seeds_list:
            self.last_batch_stats = BatchStats(per_query=())
            return []
        projections = np.stack(
            [
                project_seeds(self.index.basis, seeds.nodes, seeds.weights)
                for seeds in seeds_list
            ],
            axis=1,
        )
        scores = spectral_scores(self.index.basis, self.alpha, projections)
        results = [rank_scores(scores[:, col], k) for col in range(len(seeds_list))]
        self.last_batch_stats = BatchStats(
            per_query=tuple(self._query_stats() for _ in results)
        )
        return results
