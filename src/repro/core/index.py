"""The Mogul index and ranker: the library's primary public API.

:class:`MogulIndex` performs all query-independent precomputation
(Algorithm 1, the LDL^T factorization, the bound tables, cluster feature
means) once; :class:`MogulRanker` answers any number of in-database or
out-of-sample top-k queries against it.

Typical use::

    from repro import build_knn_graph, MogulRanker

    graph = build_knn_graph(features, k=5)
    ranker = MogulRanker(graph, alpha=0.99)
    result = ranker.top_k(query=42, k=10)
    result.indices, result.scores

``MogulRanker(..., exact=True)`` switches the factorization to Modified
Cholesky, turning the ranker into MogulE: identical pipeline, exact scores,
more non-zeros (paper §4.6.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import BatchQuery, BatchStats, top_k_batch_search
from repro.core.bounds import BoundsTable, ClusterBoundData, precompute_cluster_bounds
from repro.core.out_of_sample import build_query_seeds, build_query_seeds_batch
from repro.core.permutation import ClusterFn, Permutation, build_permutation
from repro.core.profile import BuildProfile
from repro.core.search import SearchStats, top_k_rerank, top_k_search
from repro.core.solver import ClusterSolver
from repro.core.topk import sorted_result
from repro.clustering.louvain import louvain
from repro.graph.adjacency import KnnGraph
from repro.linalg.ldl import LDLFactors, complete_ldl, incomplete_ldl
from repro.ranking.base import (
    DEFAULT_ALPHA,
    Ranker,
    TopKResult,
    normalize_seed_weights,
)
from repro.ranking.normalize import ranking_matrix
from repro.utils.timer import Timer
from repro.utils.validation import check_alpha, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.serialize import StoredGraph


def factor_graph(
    graph: KnnGraph,
    alpha: float,
    factorization: str,
    cluster_labels: np.ndarray | None,
    clusterer: ClusterFn,
    fill_level: int,
    profile: BuildProfile,
) -> tuple[Permutation, LDLFactors]:
    """The build stages every shard count shares, timed into ``profile``.

    Algorithm 1 (clustering, then the permutation), ``W = I - alpha S``
    permuted, and its :math:`LDL^T` factorization: Incomplete Cholesky
    at ``fill_level`` by default, Modified Cholesky for
    ``factorization="complete"``.  The interior blocks factor
    independently (Lemma 3), so a sharded index is this factorization
    cut into row spans.  Also records the shape statistics on
    ``profile``.
    """
    if factorization not in ("incomplete", "complete"):
        raise ValueError(
            f"factorization must be 'incomplete' or 'complete', got {factorization!r}"
        )
    if fill_level and factorization == "complete":
        raise ValueError("fill_level only applies to the incomplete factorization")
    stages = profile.stages

    started = time.perf_counter()
    if cluster_labels is None:
        cluster_labels = clusterer(graph.adjacency)
        stages["clustering"] = time.perf_counter() - started

    started = time.perf_counter()
    permutation = build_permutation(graph.adjacency, cluster_labels=cluster_labels)
    stages["permutation"] = time.perf_counter() - started

    started = time.perf_counter()
    w_permuted = permutation.permute_matrix(ranking_matrix(graph.adjacency, alpha))
    stages["ranking_matrix"] = time.perf_counter() - started

    started = time.perf_counter()
    if factorization == "incomplete":
        factors = incomplete_ldl(
            w_permuted, fill_level=fill_level, blocks=permutation.cluster_slices
        )
    else:
        factors = complete_ldl(w_permuted, blocks=permutation.cluster_slices)
    stages["factorization"] = time.perf_counter() - started

    border = permutation.border_slice
    strict_lower_w = (w_permuted.nnz - int(np.count_nonzero(w_permuted.diagonal()))) // 2
    profile.n_nodes = permutation.n_nodes
    profile.n_clusters = permutation.n_clusters
    profile.border_size = border.stop - border.start
    profile.w_nnz = int(w_permuted.nnz)
    profile.factor_nnz = int(factors.nnz)
    profile.fill_ratio = factors.nnz / strict_lower_w if strict_lower_w else 0.0
    return permutation, factors


def cluster_features(
    permutation: Permutation, features: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Per cluster, its mean feature vector and its node ids (permuted order)."""
    members = tuple(permutation.order[sl] for sl in permutation.cluster_slices)
    means = np.zeros((permutation.n_clusters, features.shape[1]), dtype=np.float64)
    for cid, nodes in enumerate(members):
        if nodes.size:
            means[cid] = features[nodes].mean(axis=0)
    return means, members


@dataclass(frozen=True)
class MogulIndex:
    """All query-independent state of Mogul (paper §4.2.2, Lemma 2).

    Attributes
    ----------
    permutation:
        Algorithm 1's output.
    factors:
        The LDL^T factorization of the permuted system matrix.
    bounds:
        Definition 1/2 precomputations, one entry per interior cluster.
    cluster_means:
        Mean feature vector per cluster (for out-of-sample routing).
    cluster_members:
        Original node ids per cluster (permuted order).
    alpha:
        Damping parameter baked into the factorization.
    factorization:
        ``"incomplete"`` (Mogul) or ``"complete"`` (MogulE).
    solver:
        Per-cluster packed substitution engine (the query-time fast path).
    bounds_table:
        Vectorized form of ``bounds`` evaluated in one SpMV per query.
    profile:
        Per-stage :class:`repro.core.profile.BuildProfile` of the build
        (or load) that produced this index; ``None`` when assembled by
        hand (tests).
    graph:
        The k-NN graph the index was built from — the build's own
        :class:`KnnGraph` (a reference, not a copy), or the
        :class:`repro.core.serialize.StoredGraph` of a loaded artifact.
        :meth:`save` writes it; ``None`` only when assembled by hand.
    """

    permutation: Permutation
    factors: LDLFactors
    bounds: tuple[ClusterBoundData, ...]
    cluster_means: np.ndarray
    cluster_members: tuple[np.ndarray, ...]
    alpha: float
    factorization: str
    solver: ClusterSolver
    bounds_table: BoundsTable
    profile: BuildProfile | None = None
    graph: KnnGraph | StoredGraph | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls,
        graph: KnnGraph,
        alpha: float = DEFAULT_ALPHA,
        factorization: str = "incomplete",
        cluster_labels: np.ndarray | None = None,
        clusterer: ClusterFn = louvain,
        fill_level: int = 0,
    ) -> "MogulIndex":
        """Precompute the full index for a graph.

        Runs Algorithm 1, permutes ``W = I - alpha * S``, factorizes it
        (Incomplete Cholesky by default, Modified Cholesky for
        ``factorization="complete"``), and tabulates the cluster bounds.
        All of this is independent of any query (Lemma 2's point).
        ``fill_level`` (incomplete factorization only) admits ILU(p)-style
        fill: 0 is the paper's ICF, higher values trade factor size for
        accuracy, interpolating toward MogulE.

        The build is one sequential pipeline, like the paper's: its
        clustering and factorization stages are pure-Python loops that
        hold the GIL, so worker threads measured no faster.  It has one
        clustering local move and one factorization kernel (see
        :mod:`repro.clustering.louvain` and :mod:`repro.linalg.ldl`).
        A :class:`BuildProfile` with per-stage wall times lands on the
        returned index.
        """
        alpha = check_alpha(alpha)
        profile = BuildProfile()
        stages = profile.stages
        permutation, factors = factor_graph(
            graph, alpha, factorization, cluster_labels, clusterer, fill_level,
            profile,
        )

        started = time.perf_counter()
        bounds = precompute_cluster_bounds(factors, permutation)
        bounds_table = BoundsTable.from_bounds(
            bounds, permutation.border_slice.start, permutation.n_nodes
        )
        stages["bounds"] = time.perf_counter() - started

        started = time.perf_counter()
        solver = ClusterSolver(factors, permutation)
        stages["solver"] = time.perf_counter() - started

        started = time.perf_counter()
        means, members = cluster_features(permutation, graph.features)
        stages["cluster_means"] = time.perf_counter() - started
        return cls(
            permutation=permutation,
            factors=factors,
            bounds=bounds,
            cluster_means=means,
            cluster_members=members,
            alpha=alpha,
            factorization=factorization,
            solver=solver,
            bounds_table=bounds_table,
            profile=profile,
            graph=graph,
        )

    @property
    def n_nodes(self) -> int:
        """Number of indexed nodes."""
        return self.permutation.n_nodes

    @property
    def n_clusters(self) -> int:
        """Cluster count N including the border cluster."""
        return self.permutation.n_clusters

    @property
    def factor_nnz(self) -> int:
        """Non-zeros in the strict lower triangle of the factor.

        Part of the uniform index-statistics surface shared with
        :class:`repro.core.ShardedMogulIndex` (``/stats``, ``repro info``).
        """
        return int(self.factors.nnz)

    def save(self, path) -> None:
        """Persist the index to an ``.npz`` file (see :mod:`repro.core.serialize`)."""
        from repro.core.serialize import save_index

        save_index(self, path)

    @classmethod
    def load(cls, path) -> "MogulIndex":
        """Restore an index saved with :meth:`save`."""
        from repro.core.serialize import load_index

        return load_index(path)


class MogulRanker(Ranker):
    """Top-k Manifold Ranking with Mogul (or MogulE with ``exact=True``).

    Parameters
    ----------
    graph:
        The k-NN graph over the database features.
    alpha:
        Damping parameter (paper uses 0.99).
    exact:
        ``True`` selects the Modified Cholesky factorization — exact
        scores, denser factor (MogulE, §4.6.1).
    cluster_labels:
        Optional pre-computed clustering (mostly for tests).
    fill_level:
        ILU(p)-style fill budget for the incomplete factorization;
        0 = the paper's ICF, larger values interpolate toward MogulE.
    use_pruning, use_sparsity, cluster_order:
        Search-time switches forwarded to
        :func:`repro.core.top_k_search`; defaults are the full Mogul
        algorithm.
    """

    def __init__(
        self,
        graph: KnnGraph,
        alpha: float = DEFAULT_ALPHA,
        exact: bool = False,
        cluster_labels: np.ndarray | None = None,
        clusterer: ClusterFn = louvain,
        fill_level: int = 0,
        use_pruning: bool = True,
        use_sparsity: bool = True,
        cluster_order: str = "index",
    ):
        super().__init__(graph, alpha)
        self.exact = exact
        self.name = "MogulE" if exact else "Mogul"
        self.use_pruning = use_pruning
        self.use_sparsity = use_sparsity
        self.cluster_order = cluster_order
        self.index = MogulIndex.build(
            graph,
            alpha=self.alpha,
            factorization="complete" if exact else "incomplete",
            cluster_labels=cluster_labels,
            clusterer=clusterer,
            fill_level=0 if exact else fill_level,
        )
        # Ambient stats (thread-local descriptors via Ranker): each
        # thread reads back only its own most recent call's stats —
        # :class:`SearchStats` (top_k), :class:`BatchStats` (the batch
        # entry points) and the out-of-sample wall-clock breakdown with
        # keys ``nearest_neighbor`` / ``top_k`` / ``overall`` (Table 2).
        self.last_stats = None
        self.last_batch_stats = None
        self.last_breakdown = None

    @classmethod
    def from_index(
        cls,
        graph: KnnGraph,
        index: MogulIndex,
        use_pruning: bool = True,
        use_sparsity: bool = True,
        cluster_order: str = "index",
    ) -> "MogulRanker":
        """Attach a prebuilt (e.g. loaded) index to a feature graph.

        The graph must describe the same database the index was built
        from: node count and feature dimensionality are checked, content
        is the caller's responsibility (the index stores no features).
        """
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
        ranker.exact = index.factorization == "complete"
        ranker.name = "MogulE" if ranker.exact else "Mogul"
        ranker.use_pruning = use_pruning
        ranker.use_sparsity = use_sparsity
        ranker.cluster_order = cluster_order
        ranker.index = index
        ranker.last_stats = None
        ranker.last_batch_stats = None
        ranker.last_breakdown = None
        return ranker

    # -- scoring --------------------------------------------------------

    def scores(self, query: int) -> np.ndarray:
        """Full (approximate) score vector via forward + back substitution.

        For ``exact=True`` these match the inverse-matrix scores to
        round-off; for the default incomplete factorization they are the
        approximate scores Algorithm 2's answers are exact with respect to.
        """
        self._check_query(query)
        perm = self.index.permutation
        q_vec = np.zeros(self.n_nodes, dtype=np.float64)
        q_vec[perm.inverse[query]] = 1.0 - self.alpha
        x_permuted = self.index.solver.solve(q_vec)
        return perm.unpermute_vector(x_permuted)

    def scores_for_vector(self, q: np.ndarray) -> np.ndarray:
        """Approximate scores for an arbitrary query vector (one solve)."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n_nodes,):
            raise ValueError(f"q must have shape ({self.n_nodes},), got {q.shape}")
        perm = self.index.permutation
        q_permuted = (1.0 - self.alpha) * perm.permute_vector(q)
        return perm.unpermute_vector(self.index.solver.solve(q_permuted))

    def top_k_multi(
        self,
        queries,
        k: int,
        weights: np.ndarray | None = None,
        exclude_queries: bool = True,
    ) -> TopKResult:
        """Multi-seed top-k with the native pruned search (He et al. [7]).

        Unlike the base-class implementation this never materialises the
        full score vector: the seeds all enter Algorithm 2's query vector
        and the bound pruning applies exactly as in the single-seed case
        (Lemma 4 holds for any set of seed clusters).
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
        perm = self.index.permutation
        positions = perm.inverse[seeds]
        answers, stats = top_k_search(
            self.index.factors,
            perm,
            self.index.bounds,
            seed_positions=positions,
            seed_weights=(1.0 - self.alpha) * weights,
            k=k,
            exclude_positions=tuple(int(p) for p in positions)
            if exclude_queries
            else (),
            use_pruning=self.use_pruning,
            use_sparsity=self.use_sparsity,
            cluster_order=self.cluster_order,
            solver=self.index.solver,
            bounds_table=self.index.bounds_table,
        )
        self.last_stats = stats
        return self._to_result(answers)

    def top_k(self, query: int, k: int, exclude_query: bool = True) -> TopKResult:
        """Algorithm 2: bound-pruned top-k search for an in-database query."""
        k = check_positive_int(k, "k")
        self._check_query(query)
        perm = self.index.permutation
        position = int(perm.inverse[query])
        answers, stats = top_k_search(
            self.index.factors,
            perm,
            self.index.bounds,
            seed_positions=np.asarray([position]),
            seed_weights=np.asarray([1.0 - self.alpha]),
            k=k,
            exclude_positions=(position,) if exclude_query else (),
            use_pruning=self.use_pruning,
            use_sparsity=self.use_sparsity,
            cluster_order=self.cluster_order,
            solver=self.index.solver,
            bounds_table=self.index.bounds_table,
        )
        self.last_stats = stats
        return self._to_result(answers)

    def top_k_batch(
        self,
        queries,
        k: int,
        exclude_query: bool = True,
    ) -> list[TopKResult]:
        """Answer many independent single-node queries in one engine pass.

        Overrides the base class's sequential loop with the batched
        execution engine (:mod:`repro.core.batch`): queries sharing a seed
        cluster share one forward substitution, the border substitution
        and the bound estimations run once for the whole batch, and the
        bound-driven scan back-substitutes each cluster in a single
        multi-RHS solve for the queries that still need it.  Answers are
        identical to calling :meth:`top_k` per query — batching is purely
        an execution strategy.

        Per-query and aggregate :class:`repro.core.batch.BatchStats` land
        in :attr:`last_batch_stats`.
        """
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
        return self._run_batch(batch, k)

    def top_k_out_of_sample_batch(
        self, features: np.ndarray, k: int, n_probe: int = 1
    ) -> list[TopKResult]:
        """§4.6.2 for a whole batch of out-of-sample query features.

        Routes all queries to their nearest clusters in one distance
        computation, groups the in-cluster neighbour searches, and answers
        the seeded queries through the batched engine.  Each answer is
        identical to the corresponding :meth:`top_k_out_of_sample` call.
        """
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
        return self._run_batch(batch, k)

    def _run_batch(self, batch: list[BatchQuery], k: int) -> list[TopKResult]:
        answers, batch_stats = top_k_batch_search(
            self.index.factors,
            self.index.permutation,
            self.index.bounds,
            batch,
            k,
            use_pruning=self.use_pruning,
            use_sparsity=self.use_sparsity,
            cluster_order=self.cluster_order,
            solver=self.index.solver,
            bounds_table=self.index.bounds_table,
        )
        # last_stats is left untouched: it belongs to the most recent
        # single-query call, per its documented contract.
        self.last_batch_stats = batch_stats
        return [self._to_result(answer) for answer in answers]

    def top_k_out_of_sample(
        self, feature: np.ndarray, k: int, n_probe: int = 1
    ) -> TopKResult:
        """§4.6.2: top-k for a query feature outside the database.

        Routes the query to its nearest cluster(s), seeds the in-cluster
        neighbours into ``q`` and reuses the precomputed factorization.
        ``n_probe > 1`` searches several nearest clusters for neighbours
        (the IVF-style multi-probe generalisation; the paper uses 1).
        Records the Table 2 wall-clock breakdown in ``last_breakdown``.
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
        perm = self.index.permutation
        search_timer = Timer()
        with search_timer:
            positions = perm.inverse[seeds.nodes]
            answers, stats = top_k_search(
                self.index.factors,
                perm,
                self.index.bounds,
                seed_positions=positions,
                seed_weights=(1.0 - self.alpha) * seeds.weights,
                k=k,
                use_pruning=self.use_pruning,
                use_sparsity=self.use_sparsity,
                cluster_order=self.cluster_order,
                solver=self.index.solver,
                bounds_table=self.index.bounds_table,
            )
        self.last_stats = stats
        self.last_breakdown = {
            "nearest_neighbor": nn_timer.elapsed,
            "top_k": search_timer.elapsed,
            "overall": nn_timer.elapsed + search_timer.elapsed,
        }
        return self._to_result(answers)

    # -- candidate-restricted re-ranking (the tiered engine's exact tier) --

    def _candidate_positions(self, candidates) -> np.ndarray:
        nodes = np.asarray(candidates, dtype=np.int64)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("candidates must be a non-empty 1-D sequence of node ids")
        if nodes.min() < 0 or nodes.max() >= self.n_nodes:
            raise ValueError(
                f"candidate ids out of range for n={self.n_nodes}"
            )
        return self.index.permutation.inverse[nodes]

    def top_k_rerank(
        self,
        query: int,
        k: int,
        candidates,
        exclude_query: bool = True,
    ) -> TopKResult:
        """Exact top-k restricted to ``candidates`` (original node ids).

        Scores are bitwise the engine's own (:meth:`top_k`) scores —
        the restriction only shrinks the set of nodes *eligible* to
        answer, so when ``candidates`` contains the true top-k the
        answer is identical to the unrestricted search.  This is the
        exact tier of :class:`repro.core.tiered.TieredEngine`.
        """
        k = check_positive_int(k, "k")
        self._check_query(query)
        perm = self.index.permutation
        position = int(perm.inverse[query])
        answers, stats = top_k_rerank(
            self.index.factors,
            perm,
            self.index.bounds,
            seed_positions=np.asarray([position]),
            seed_weights=np.asarray([1.0 - self.alpha]),
            k=k,
            candidate_positions=self._candidate_positions(candidates),
            exclude_positions=(position,) if exclude_query else (),
            use_pruning=self.use_pruning,
            cluster_order=self.cluster_order,
            solver=self.index.solver,
            bounds_table=self.index.bounds_table,
        )
        self.last_stats = stats
        return self._to_result(answers)

    def top_k_rerank_seeded(
        self,
        seed_nodes,
        seed_weights: np.ndarray,
        k: int,
        candidates,
    ) -> TopKResult:
        """Candidate-restricted exact top-k for a seeded (e.g. out-of-sample)
        query.

        ``seed_weights`` are the raw (sum-1) seed weights — the
        ``1 - alpha`` scaling is applied here, matching
        :meth:`top_k_out_of_sample`.  Seeds are not excluded from the
        answers (out-of-sample semantics).
        """
        k = check_positive_int(k, "k")
        seeds = np.asarray(seed_nodes, dtype=np.int64)
        weights = np.asarray(seed_weights, dtype=np.float64)
        if seeds.ndim != 1 or seeds.size == 0 or weights.shape != seeds.shape:
            raise ValueError(
                "seed_nodes and seed_weights must be matching non-empty 1-D arrays"
            )
        perm = self.index.permutation
        answers, stats = top_k_rerank(
            self.index.factors,
            perm,
            self.index.bounds,
            seed_positions=perm.inverse[seeds],
            seed_weights=(1.0 - self.alpha) * weights,
            k=k,
            candidate_positions=self._candidate_positions(candidates),
            use_pruning=self.use_pruning,
            cluster_order=self.cluster_order,
            solver=self.index.solver,
            bounds_table=self.index.bounds_table,
        )
        self.last_stats = stats
        return self._to_result(answers)

    def top_k_rerank_batch(
        self,
        queries,
        k: int,
        candidates_list,
        exclude_query: bool = True,
    ) -> list[TopKResult]:
        """Per-query candidate-restricted re-rank for a batch of node queries.

        One candidate set per query.  Executed as sequential restricted
        searches (each already skips all non-candidate clusters, so the
        batched multi-RHS machinery has little left to share); per-query
        stats land in :attr:`last_batch_stats`.
        """
        k = check_positive_int(k, "k")
        nodes = self._check_batch_queries(queries)
        if len(candidates_list) != nodes.size:
            raise ValueError(
                f"got {nodes.size} queries but {len(candidates_list)} candidate sets"
            )
        results: list[TopKResult] = []
        per_query: list[SearchStats] = []
        for node, candidates in zip(nodes, candidates_list):
            results.append(
                self.top_k_rerank(int(node), k, candidates, exclude_query)
            )
            per_query.append(self.last_stats)
        self.last_batch_stats = BatchStats(per_query=tuple(per_query))
        return results

    def _to_result(self, answers: list[tuple[int, float]]) -> TopKResult:
        order = self.index.permutation.order
        indices = np.asarray([order[pos] for pos, _ in answers], dtype=np.int64)
        scores = np.asarray([score for _, score in answers], dtype=np.float64)
        # Re-sort by (score desc, original id asc) so results are
        # deterministic in *original* id space like every other ranker.
        return sorted_result(indices, scores)
