"""Ablations beyond the paper — the design choices DESIGN.md calls out.

Four sweeps, each a table:

* **Within-cluster ordering** (Algorithm 1 orders by ascending
  within-cluster degree): approximation quality of Incomplete Cholesky
  under the paper's ordering vs reversed / node-id / random orderings.
* **Damping alpha**: query time and prune rate at alpha 0.8 / 0.9 / 0.99
  — smaller alpha concentrates scores near the query and prunes more.
* **Graph degree k**: query time, factor size and border mass at
  k = 5 / 10 / 20 (the paper's §3 notes 5-20 is the usual range).
* **Multi-seed queries**: query time vs seed count (relevance feedback).

Run with ``python -m repro.experiments ablations``.
"""

from __future__ import annotations

import numpy as np

from repro.core.index import MogulRanker
from repro.core.permutation import WITHIN_ORDERS, build_permutation
from repro.eval.harness import ExperimentTable, sample_queries, time_queries
from repro.eval.metrics import p_at_k
from repro.experiments.common import ExperimentConfig, get_dataset, get_graph
from repro.linalg.ldl import incomplete_ldl
from repro.linalg.triangular import ldl_solve
from repro.ranking.base import rank_scores
from repro.ranking.exact import ExactRanker
from repro.ranking.normalize import ranking_matrix

#: Dataset used for the single-dataset sweeps (mid-sized, clusterable).
SWEEP_DATASET = "pubfig"
ALPHAS = (0.8, 0.9, 0.99)
GRAPH_KS = (5, 10, 20)
SEED_COUNTS = (1, 2, 5, 10)


def run(config: ExperimentConfig | None = None) -> list[ExperimentTable]:
    """Regenerate all five ablation tables."""
    config = config or ExperimentConfig()
    return [
        ordering_quality(config),
        fill_level_sweep(config),
        alpha_sweep(config),
        graph_k_sweep(config),
        multi_seed_sweep(config),
    ]


def ordering_quality(config: ExperimentConfig) -> ExperimentTable:
    """ICF approximation quality (P@k vs exact) per within-cluster ordering."""
    table = ExperimentTable(
        title="Ablation: within-cluster ordering vs ICF approximation quality",
        columns=["dataset"] + [f"P@{config.k} ({order})" for order in WITHIN_ORDERS],
    )
    table.add_note(
        "measured finding: on these synthetic graphs all orderings land in "
        "the same quality band — ICF error is dominated by cross-cluster "
        "dropped fill, so section 4.2.2's left-side-sparsity effect is "
        "noise-level here (it needs the paper's larger, denser graphs)"
    )
    for name in config.datasets[:2]:  # the two smaller datasets suffice
        graph = get_graph(name, config)
        queries = sample_queries(graph.n_nodes, config.n_queries, seed=config.seed)
        exact = ExactRanker(graph, alpha=config.alpha)
        cells = []
        for order in WITHIN_ORDERS:
            perm = build_permutation(
                graph.adjacency, within_order=order, seed=config.seed
            )
            w = perm.permute_matrix(ranking_matrix(graph.adjacency, config.alpha))
            factors = incomplete_ldl(w)
            hits = []
            for query in queries:
                query = int(query)
                q_vec = np.zeros(graph.n_nodes)
                q_vec[perm.inverse[query]] = 1.0 - config.alpha
                approx = np.empty(graph.n_nodes)
                approx[perm.order] = ldl_solve(factors, q_vec)
                approx_top = rank_scores(approx, config.k, exclude=query)
                hits.append(
                    p_at_k(approx_top.indices, exact.top_k(query, config.k).indices)
                )
            cells.append(round(float(np.mean(hits)), 4))
        table.add_row(name, *cells)
    return table


def fill_level_sweep(config: ExperimentConfig) -> ExperimentTable:
    """The Mogul <-> MogulE interpolation: quality/size/speed vs fill level.

    ``fill_level=p`` admits ILU(p)-style fill in the incomplete
    factorization; 0 is the paper's ICF, MogulE (complete fill) anchors
    the far end of the row.
    """
    table = ExperimentTable(
        title=f"Ablation: ICF fill level, Mogul -> MogulE ({SWEEP_DATASET})",
        columns=["variant", "factor nnz", f"P@{config.k} vs exact", "time [s]"],
    )
    graph = get_graph(SWEEP_DATASET, config)
    queries = sample_queries(graph.n_nodes, config.n_queries, seed=config.seed)
    exact = ExactRanker(graph, alpha=config.alpha)

    def accuracy(ranker) -> float:
        hits = [
            p_at_k(
                ranker.top_k(int(q), config.k).indices,
                exact.top_k(int(q), config.k).indices,
            )
            for q in queries
        ]
        return round(float(np.mean(hits)), 4)

    for level in (0, 1, 2, 4):
        ranker = MogulRanker(graph, alpha=config.alpha, fill_level=level)
        elapsed = time_queries(lambda q: ranker.top_k(int(q), config.k), queries)
        table.add_row(
            f"fill_level={level}",
            ranker.index.factors.nnz,
            accuracy(ranker),
            elapsed,
        )
    mogul_e = MogulRanker(graph, alpha=config.alpha, exact=True)
    elapsed = time_queries(lambda q: mogul_e.top_k(int(q), config.k), queries)
    table.add_row(
        "MogulE (complete)", mogul_e.index.factors.nnz, accuracy(mogul_e), elapsed
    )
    table.add_note(
        "nnz and accuracy must both rise with the level, anchored by "
        "MogulE's exact answers; the knob buys accuracy with memory"
    )
    return table


def alpha_sweep(config: ExperimentConfig) -> ExperimentTable:
    """Query time and prune rate as the damping parameter varies."""
    table = ExperimentTable(
        title=f"Ablation: damping alpha ({SWEEP_DATASET})",
        columns=["alpha", "time [s]", "prune fraction", "nodes scored"],
    )
    graph = get_graph(SWEEP_DATASET, config)
    queries = sample_queries(graph.n_nodes, config.n_queries, seed=config.seed)
    for alpha in ALPHAS:
        ranker = MogulRanker(graph, alpha=alpha)
        elapsed = time_queries(lambda q: ranker.top_k(int(q), config.k), queries)
        stats = ranker.last_stats
        table.add_row(
            alpha,
            elapsed,
            round(stats.prune_fraction, 3),
            stats.nodes_scored,
        )
    table.add_note(
        "alpha shifts score mass toward/away from the query; on this "
        "dataset pruning is already saturated at every value, so the "
        "query-time effect is within timer noise"
    )
    return table


def graph_k_sweep(config: ExperimentConfig) -> ExperimentTable:
    """Query time, factor size and border mass as graph density varies."""
    table = ExperimentTable(
        title=f"Ablation: k-NN graph degree ({SWEEP_DATASET})",
        columns=["graph k", "time [s]", "factor nnz", "border size", "clusters"],
    )
    dataset = get_dataset(SWEEP_DATASET, config)
    for graph_k in GRAPH_KS:
        graph = dataset.build_graph(k=graph_k, jobs=config.jobs)
        queries = sample_queries(graph.n_nodes, config.n_queries, seed=config.seed)
        ranker = MogulRanker(graph, alpha=config.alpha)
        elapsed = time_queries(lambda q: ranker.top_k(int(q), config.k), queries)
        border = ranker.index.permutation.border_slice
        table.add_row(
            graph_k,
            elapsed,
            ranker.index.factors.nnz,
            border.stop - border.start,
            ranker.index.n_clusters,
        )
    table.add_note(
        "denser graphs grow the factor and the border roughly linearly in "
        "k; the paper uses k=5"
    )
    return table


def multi_seed_sweep(config: ExperimentConfig) -> ExperimentTable:
    """Query time as the seed-set size grows (relevance feedback)."""
    table = ExperimentTable(
        title=f"Ablation: multi-seed query cost ({SWEEP_DATASET})",
        columns=["seeds", "time [s]", "clusters scored"],
    )
    graph = get_graph(SWEEP_DATASET, config)
    ranker = MogulRanker(graph, alpha=config.alpha)
    rng = np.random.default_rng(config.seed)
    for n_seeds in SEED_COUNTS:
        seed_sets = [
            np.sort(rng.choice(graph.n_nodes, size=n_seeds, replace=False))
            for _ in range(config.n_queries)
        ]
        elapsed = time_queries(
            lambda i: ranker.top_k_multi(seed_sets[int(i)], config.k),
            np.arange(len(seed_sets)),
        )
        table.add_row(n_seeds, elapsed, ranker.last_stats.clusters_scored)
    table.add_note(
        "seed clusters add forward-pass work but bound pruning still "
        "applies (Lemma 4 holds for any seed set)"
    )
    return table


def main() -> None:  # pragma: no cover - CLI glue
    for table in run():
        print(table.to_text())
        print()
