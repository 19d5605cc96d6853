"""Figure 5 — ablation of Mogul's two speed techniques.

Three configurations per dataset (top-5 queries):

* **Mogul** — sparsity structure + bound pruning (the full algorithm);
* **W/O estimation** — sparsity structure only: every cluster's scores are
  computed through the restricted substitutions, no pruning;
* **Incomplete Cholesky** — plain full forward/back substitution, no
  structure, no pruning.

Paper's findings to reproduce: structure alone cuts time substantially
(up to 47%), and pruning cuts it much further (up to 90% off the plain
factorization).  The pruning statistics (clusters pruned / total) are
reported as a note since they explain *why*.
"""

from __future__ import annotations

from repro.core.index import MogulRanker
from repro.eval.harness import ExperimentTable, sample_queries, time_queries
from repro.experiments.common import ExperimentConfig, get_graph


def run(config: ExperimentConfig | None = None) -> list[ExperimentTable]:
    """Regenerate Figure 5; one row per dataset, one column per variant."""
    config = config or ExperimentConfig()
    table = ExperimentTable(
        title="Figure 5: effect of the pruning approach, search time [s]",
        columns=["dataset", "n", "Mogul", "W/O estimation", "Incomplete Cholesky"],
    )
    table.add_note(f"top-{config.k} queries, {config.n_queries} queries/cell")

    for name in config.datasets:
        graph = get_graph(name, config)
        queries = sample_queries(graph.n_nodes, config.n_queries, seed=config.seed)

        full = MogulRanker(graph, alpha=config.alpha)
        no_est = MogulRanker(graph, alpha=config.alpha, use_pruning=False)
        plain = MogulRanker(graph, alpha=config.alpha, use_sparsity=False)

        t_full = time_queries(lambda q: full.top_k(int(q), config.k), queries)
        t_no_est = time_queries(lambda q: no_est.top_k(int(q), config.k), queries)
        t_plain = time_queries(lambda q: plain.top_k(int(q), config.k), queries)
        table.add_row(name, graph.n_nodes, t_full, t_no_est, t_plain)

        stats = full.last_stats
        if stats is not None:
            table.add_note(
                f"{name}: pruned {stats.clusters_pruned}/{stats.clusters_total} "
                f"clusters ({stats.pruned_nodes} nodes skipped) on the last query"
            )
    return [table]


def main() -> None:  # pragma: no cover - CLI glue
    for table in run():
        print(table.to_text())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
