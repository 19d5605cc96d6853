"""Algorithm 2: Mogul's bound-driven top-k search.

Given the precomputed factorization and bounds, a query is answered in
three stages:

1. **Forward substitution** restricted to the seed clusters and the border
   cluster — every other row of ``y`` is provably zero (Lemma 4).
2. **Back substitution** for the border cluster first (its scores feed both
   the other clusters' substitutions and the bound estimations), then the
   seed clusters; their nodes initialise the top-k heap (paper lines 8-16).
3. **Bound-driven scan** of the remaining clusters (lines 17-30): a cluster
   whose upper bound falls below the current k-th best score is pruned
   without computing a single member score; otherwise its scores are
   computed by cluster-local back substitution (Lemma 5).

The heap starts with ``k`` dummy entries of score 0 (lines 1-3), so
negative-score nodes can never displace real answers — matching the paper's
initialisation.

Two switches expose the ablations of Figure 5:

* ``use_pruning=False`` — "W/O estimation": stages 1-2 plus exhaustive
  cluster scoring, still exploiting the sparsity structure.
* ``use_sparsity=False`` — "Incomplete Cholesky": plain full forward/back
  substitution over all n rows, no structure, no pruning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.bounds import BoundsTable, ClusterBoundData
from repro.core.permutation import Permutation
from repro.core.solver import ClusterSolver
from repro.core.topk import sort_answer_pairs
from repro.linalg.ldl import LDLFactors
from repro.obs.trace import span as obs_span


@dataclass
class SearchStats:
    """Instrumentation for one Algorithm 2 run.

    The paper's Figure 5 argues most clusters are pruned in practice;
    these counters let tests and benchmarks verify that directly.
    """

    clusters_total: int = 0
    clusters_pruned: int = 0
    clusters_scored: int = 0
    nodes_scored: int = 0
    bound_evaluations: int = 0
    pruned_nodes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def prune_fraction(self) -> float:
        """Fraction of eligible clusters pruned (0.0 when none eligible)."""
        eligible = self.clusters_pruned + self.clusters_scored
        return self.clusters_pruned / eligible if eligible else 0.0

    @classmethod
    def aggregate(cls, runs: "Iterable[SearchStats]") -> "SearchStats":
        """Sum the counters of several runs (batch-mode totals).

        ``prune_fraction`` of the aggregate is then the batch-wide rate
        (pruned clusters over eligible clusters across every query), the
        number batch benchmarks and the CLI report.
        """
        total = cls()
        for stats in runs:
            total.clusters_total += stats.clusters_total
            total.clusters_pruned += stats.clusters_pruned
            total.clusters_scored += stats.clusters_scored
            total.nodes_scored += stats.nodes_scored
            total.bound_evaluations += stats.bound_evaluations
            total.pruned_nodes += stats.pruned_nodes
        return total


class TopKAccumulator:
    """The top-k heap frontier of Algorithm 2 (paper lines 1-3, 8-16).

    Encapsulates the threshold heap that both the single-query search and
    the batched engine (:mod:`repro.core.batch`, one accumulator per
    query) drive, so batching cannot drift from the sequential answer
    semantics.  The heap starts with ``k`` dummy entries of score 0, so
    negative-score nodes can never displace real answers — matching the
    paper's initialisation.  Entries are ``(score, -position)``; the dummy
    sentinel compares *below* every real position so that at equal score a
    dummy is evicted before a real answer, and among real ties the largest
    position goes first (keeping the deterministic "score desc, position
    asc" answer order).

    ``initial_threshold`` seeds the dummies at a known lower bound on the
    final k-th best score instead of 0 — the sharded re-rank
    (``scatter_gather_rerank``) hands each shard the router's
    post-seed/border threshold, so shard-local scans prune against it
    from the first cluster.  Raising
    the dummy floor is exact: any candidate scoring below a valid lower
    bound on the global k-th best score provably cannot be an answer.
    """

    __slots__ = ("k", "n", "excluded", "heap", "threshold")

    def __init__(
        self,
        k: int,
        n: int,
        exclude_positions: Iterable[int] = (),
        initial_threshold: float = 0.0,
    ):
        self.k = k
        self.n = n
        self.excluded = set(int(p) for p in exclude_positions)
        floor = max(0.0, float(initial_threshold))
        self.heap: list[tuple[float, int]] = [(floor, -(n + 2))] * k
        heapq.heapify(self.heap)
        self.threshold = floor

    def offer_block(self, x: np.ndarray, start: int, stop: int) -> None:
        """Admit the block members of ``x[start:stop]`` that can still enter.

        At most ``k`` block members can displace heap entries (plus exact
        score ties at the k-th boundary, kept so tie resolution stays
        deterministic), so candidates are cut down to that set with one
        vectorised partition before any of them touches the heap.  Pushes
        run in descending score order to raise the threshold as early as
        possible.
        """
        block_scores = x[start:stop]
        candidates = np.flatnonzero(block_scores >= self.threshold)
        if self.excluded:
            for position in self.excluded:
                if start <= position < stop:
                    candidates = candidates[candidates != position - start]
        if candidates.size == 0:
            return
        if candidates.size > self.k:
            kth = np.partition(block_scores[candidates], candidates.size - self.k)[
                candidates.size - self.k
            ]
            candidates = candidates[block_scores[candidates] >= kth]
        # Deterministic (score desc, position asc) push order.
        candidates = candidates[np.lexsort((candidates, -block_scores[candidates]))]
        for offset in candidates:
            score = float(block_scores[offset])
            if score >= self.threshold:
                heapq.heappushpop(self.heap, (score, -(start + int(offset))))
                self.threshold = self.heap[0][0]

    def offer_candidates(self, scores: np.ndarray, positions: np.ndarray) -> None:
        """Admit explicit (score, position) candidates, already cut down.

        The batched engine's vectorised frontier build pre-selects each
        query's k-th-boundary survivors across the whole batch with one
        partition; this pushes them with exactly :meth:`offer_block`'s
        ordering and guards (score desc, position asc, threshold and
        exclusion checks), so the resulting heap is identical to having
        offered the full block.
        """
        order = np.lexsort((positions, -scores))
        excluded = self.excluded
        for idx in order:
            score = float(scores[idx])
            if score < self.threshold:
                continue
            position = int(positions[idx])
            if excluded and position in excluded:
                continue
            heapq.heappushpop(self.heap, (score, -position))
            self.threshold = self.heap[0][0]

    def collect(self) -> list[tuple[int, float]]:
        """Drop dummies and order answers by (score desc, position asc)."""
        real = [
            (-neg_pos, score)
            for score, neg_pos in self.heap
            if 0 <= -neg_pos < self.n
        ]
        return sort_answer_pairs(real)


def top_k_search(
    factors: LDLFactors,
    permutation: Permutation,
    bounds: Sequence[ClusterBoundData],
    seed_positions: np.ndarray,
    seed_weights: np.ndarray,
    k: int,
    exclude_positions: Iterable[int] = (),
    use_pruning: bool = True,
    use_sparsity: bool = True,
    cluster_order: str = "index",
    solver: ClusterSolver | None = None,
    bounds_table: BoundsTable | None = None,
) -> tuple[list[tuple[int, float]], SearchStats]:
    """Run Algorithm 2 in permuted coordinates.

    Parameters
    ----------
    factors, permutation, bounds:
        The precomputed index parts (see :class:`repro.core.MogulIndex`).
    seed_positions, seed_weights:
        The non-zeros of the permuted, pre-scaled query vector
        ``q' = (1-alpha) P q``.  A single in-database query is one position
        with weight ``1-alpha``; out-of-sample queries seed several
        neighbours (§4.6.2).
    k:
        Number of answers requested.
    exclude_positions:
        Positions never admitted to the answer set (the query itself,
        for retrieval semantics).
    use_pruning, use_sparsity:
        Ablation switches, see module docstring.
    cluster_order:
        ``"index"`` visits clusters in paper order; ``"bound_desc"``
        visits by decreasing bound so the threshold tightens sooner
        (an optimisation ablated in the benchmarks).
    solver:
        Prebuilt :class:`repro.core.ClusterSolver` (the index builds it
        once); constructed on the fly when omitted, which is correct but
        wastes the packing work on every call.
    bounds_table:
        Prebuilt vectorized bound table matching ``bounds``; constructed
        on the fly when omitted.

    Returns
    -------
    (answers, stats):
        ``answers`` is a list of ``(position, approximate_score)`` sorted
        by (score desc, position asc), at most ``k`` long; ``stats`` is the
        :class:`SearchStats` instrumentation.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if cluster_order not in ("index", "bound_desc"):
        raise ValueError(f"unknown cluster_order {cluster_order!r}")
    if solver is None:
        solver = ClusterSolver(factors, permutation)
    n = factors.n
    stats = SearchStats(clusters_total=permutation.n_clusters)

    q_vec = np.zeros(n, dtype=np.float64)
    q_vec[np.asarray(seed_positions, dtype=np.int64)] = np.asarray(
        seed_weights, dtype=np.float64
    )

    seed_clusters = sorted(
        {int(permutation.cluster_of_position[int(p)]) for p in seed_positions}
    )
    border_id = permutation.border_cluster
    border = permutation.border_slice

    acc = TopKAccumulator(k, n, exclude_positions)
    x = np.zeros(n, dtype=np.float64)

    if not use_sparsity:
        # "Incomplete Cholesky" configuration: full substitution, no
        # structure exploited, every node scored.
        y = solver.forward_full(q_vec)
        x = solver.back_full(y)
        stats.clusters_scored = permutation.n_clusters
        stats.nodes_scored = n
        acc.offer_block(x, 0, n)
        return acc.collect(), stats

    # Stage 1 — forward substitution over seed clusters + border (Lemma 4).
    with obs_span("solve.seed_forward", seed_clusters=len(seed_clusters)):
        y = solver.forward(q_vec, seed_clusters)

    # Stage 2 — border scores first (Lemma 5), then seed clusters.
    with obs_span("solve.border"):
        solver.back_border(y, x)
        for cid in seed_clusters:
            if cid != border_id:
                solver.back_cluster(cid, y, x)
        scored_clusters = set(seed_clusters) | {border_id}
        for cid in sorted(scored_clusters):
            sl = permutation.cluster_slices[cid]
            stats.nodes_scored += sl.stop - sl.start
            acc.offer_block(x, sl.start, sl.stop)
        stats.clusters_scored = len(scored_clusters)

    remaining = [
        cid for cid in range(permutation.n_clusters - 1) if cid not in scored_clusters
    ]

    if not use_pruning:
        # "W/O estimation" configuration: score everything, but still
        # through the sparse structure — restricted forward pass above,
        # and one batched interior solve here (the interior block of U is
        # block diagonal, so this equals the per-cluster solves).  The
        # remaining clusters are contiguous except at the seed clusters,
        # so they are offered as merged runs, not one call per cluster.
        solver.back_all_interior(y, x)
        for cid in remaining:
            sl = permutation.cluster_slices[cid]
            stats.clusters_scored += 1
            stats.nodes_scored += sl.stop - sl.start
        for start, stop in merge_cluster_runs(remaining, permutation):
            acc.offer_block(x, start, stop)
        return acc.collect(), stats

    # Stage 3 — bound-driven scan of the remaining clusters (lines 17-30).
    # All interior bounds are evaluated in one SpMV (Lemma 8's O(n) worst
    # case, but compiled); only border scores feed the estimates.
    with obs_span("scan.clusters", remaining=len(remaining)) as scan_node:
        if bounds_table is None:
            bounds_table = BoundsTable.from_bounds(bounds, border.start, n)
        estimates = bounds_table.estimate_all(np.abs(x[border.start :]))
        stats.bound_evaluations += len(remaining)
        if cluster_order == "bound_desc":
            remaining.sort(key=lambda cid: -estimates[cid])
        for cid in remaining:
            bound = float(estimates[cid])
            sl = permutation.cluster_slices[cid]
            if bound < acc.threshold:
                stats.clusters_pruned += 1
                stats.pruned_nodes += sl.stop - sl.start
                continue
            solver.back_cluster(cid, y, x)
            stats.clusters_scored += 1
            stats.nodes_scored += sl.stop - sl.start
            acc.offer_block(x, sl.start, sl.stop)
        scan_node.annotate(
            pruned=stats.clusters_pruned,
            scored=stats.clusters_scored,
        )

    return acc.collect(), stats


def top_k_rerank(
    factors: LDLFactors,
    permutation: Permutation,
    bounds: Sequence[ClusterBoundData],
    seed_positions: np.ndarray,
    seed_weights: np.ndarray,
    k: int,
    candidate_positions: np.ndarray,
    exclude_positions: Iterable[int] = (),
    use_pruning: bool = True,
    cluster_order: str = "index",
    solver: ClusterSolver | None = None,
    bounds_table: BoundsTable | None = None,
    initial_threshold: float = 0.0,
) -> tuple[list[tuple[int, float]], SearchStats]:
    """Algorithm 2 restricted to an explicit candidate set.

    The tiered engine's exact re-rank: an approximate tier nominates
    ``candidate_positions`` (permuted coordinates) and this scores them
    with the same substitutions as :func:`top_k_search`, but only ever
    *offers* candidates to the heap and only ever *visits* clusters that
    own at least one candidate.  The returned scores are therefore
    bitwise the engine's exact scores for those nodes; nodes outside the
    candidate set can never appear in the answer.

    Stages 1-2 (seed-cluster forward, border forward/back) are identical
    to the unrestricted search — they are required for any exact score.
    Stage 3 shrinks from "every remaining cluster" to "every remaining
    cluster holding a candidate", which is where the restriction pays:
    for m candidates spread over c clusters only c back-substitutions can
    ever run, independent of the total cluster count.

    ``initial_threshold`` seeds the heap's dummy floor
    (:class:`TopKAccumulator`) — exact whenever it is a valid lower
    bound on the k-th best *candidate* score.  Extra stats:
    ``stats.extra["candidates"]`` records the candidate-set size.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if cluster_order not in ("index", "bound_desc"):
        raise ValueError(f"unknown cluster_order {cluster_order!r}")
    if solver is None:
        solver = ClusterSolver(factors, permutation)
    n = factors.n
    stats = SearchStats(clusters_total=permutation.n_clusters)
    candidates = np.unique(np.asarray(candidate_positions, dtype=np.int64))
    if candidates.size and (candidates[0] < 0 or candidates[-1] >= n):
        raise ValueError("candidate positions out of range")
    stats.extra["candidates"] = int(candidates.size)

    q_vec = np.zeros(n, dtype=np.float64)
    q_vec[np.asarray(seed_positions, dtype=np.int64)] = np.asarray(
        seed_weights, dtype=np.float64
    )

    seed_clusters = sorted(
        {int(permutation.cluster_of_position[int(p)]) for p in seed_positions}
    )
    border_id = permutation.border_cluster
    border = permutation.border_slice

    acc = TopKAccumulator(k, n, exclude_positions, initial_threshold)
    x = np.zeros(n, dtype=np.float64)

    # Stages 1-2 exactly as in top_k_search: forward over seed clusters +
    # border (Lemma 4), back-substitute border then seed clusters (Lemma 5).
    with obs_span("solve.seed_forward", seed_clusters=len(seed_clusters)):
        y = solver.forward(q_vec, seed_clusters)
    with obs_span("solve.border"):
        solver.back_border(y, x)
        for cid in seed_clusters:
            if cid != border_id:
                solver.back_cluster(cid, y, x)
        scored_clusters = set(seed_clusters) | {border_id}
        for cid in scored_clusters:
            sl = permutation.cluster_slices[cid]
            stats.nodes_scored += sl.stop - sl.start
        stats.clusters_scored = len(scored_clusters)

    cand_clusters = permutation.cluster_of_position[candidates]
    in_scored = np.isin(cand_clusters, sorted(scored_clusters))
    if np.any(in_scored):
        scored_positions = candidates[in_scored]
        acc.offer_candidates(x[scored_positions], scored_positions)

    # Stage 3 over candidate-owning unscored clusters only.
    pending = candidates[~in_scored]
    pending_clusters = cand_clusters[~in_scored]
    with obs_span("rerank.scan", candidates=int(candidates.size)) as scan_node:
        if pending.size == 0:
            return acc.collect(), stats
        remaining = [int(cid) for cid in np.unique(pending_clusters)]

        estimates = None
        if use_pruning:
            if bounds_table is None:
                bounds_table = BoundsTable.from_bounds(bounds, border.start, n)
            estimates = bounds_table.estimate_all(np.abs(x[border.start :]))
            stats.bound_evaluations += len(remaining)
            if cluster_order == "bound_desc":
                remaining.sort(key=lambda cid: -estimates[cid])
        for cid in remaining:
            members = pending[pending_clusters == cid]
            if estimates is not None and float(estimates[cid]) < acc.threshold:
                stats.clusters_pruned += 1
                stats.pruned_nodes += members.size
                continue
            solver.back_cluster(cid, y, x)
            sl = permutation.cluster_slices[cid]
            stats.clusters_scored += 1
            stats.nodes_scored += sl.stop - sl.start
            acc.offer_candidates(x[members], members)
        scan_node.annotate(
            pruned=stats.clusters_pruned,
            scored=stats.clusters_scored,
        )

    return acc.collect(), stats


def merge_cluster_runs(
    cluster_ids: Sequence[int], permutation: Permutation
) -> list[tuple[int, int]]:
    """Merge ascending cluster ids into contiguous ``(start, stop)`` runs.

    Algorithm 1 lays clusters out contiguously, so consecutive cluster ids
    cover adjacent position ranges; offering merged runs to the heap costs
    one vectorised pass per run instead of one per cluster.
    """
    runs: list[list[int]] = []
    for cid in cluster_ids:
        sl = permutation.cluster_slices[cid]
        if runs and runs[-1][1] == sl.start:
            runs[-1][1] = sl.stop
        else:
            runs.append([sl.start, sl.stop])
    return [(start, stop) for start, stop in runs]
