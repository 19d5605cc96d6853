"""Figure 7 + Table 2 — out-of-sample query performance.

Held-out feature vectors (never in the graph) are ranked by:

* **Mogul** — §4.6.2: nearest-cluster routing + neighbour seeding against
  the *unchanged* precomputed factorization;
* **EMR** — its dynamic anchor-graph update (re-embedding the query and
  rebuilding the d-by-d core).

Figure 7 compares wall-clock per query; Table 2 breaks Mogul's time into
the nearest-neighbour stage and the top-k stage, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.emr import EMRRanker
from repro.core.index import MogulRanker
from repro.eval.harness import ExperimentTable
from repro.experiments.common import ExperimentConfig, get_dataset
from repro.utils.timer import Timer


def run(config: ExperimentConfig | None = None) -> list[ExperimentTable]:
    """Regenerate Figure 7 and Table 2 from one held-out query batch."""
    config = config or ExperimentConfig()
    fig7 = ExperimentTable(
        title="Figure 7: out-of-sample search time [s]",
        columns=["dataset", "n", "Mogul", "EMR"],
    )
    table2 = ExperimentTable(
        title="Table 2: breakdown of out-of-sample search (Mogul) [ms]",
        columns=["dataset", "nearest neighbor", "top-k search", "overall"],
    )
    for name in config.datasets:
        dataset = get_dataset(name, config)
        n_holdout = min(config.n_queries, max(2, dataset.n_points // 100))
        reduced, holdout_features, _ = dataset.holdout_split(
            n_holdout, seed=config.seed
        )
        graph = reduced.build_graph(k=config.knn_k, jobs=config.jobs)

        mogul = MogulRanker(graph, alpha=config.alpha)
        emr = EMRRanker(graph, alpha=config.alpha, n_anchors=config.emr_anchors)

        mogul_timer = Timer()
        nn_ms: list[float] = []
        topk_ms: list[float] = []
        for feature in holdout_features:
            with mogul_timer:
                mogul.top_k_out_of_sample(feature, config.k)
            assert mogul.last_breakdown is not None
            nn_ms.append(mogul.last_breakdown["nearest_neighbor"] * 1e3)
            topk_ms.append(mogul.last_breakdown["top_k"] * 1e3)

        emr_timer = Timer()
        for feature in holdout_features:
            with emr_timer:
                emr.top_k_out_of_sample(feature, config.k)

        fig7.add_row(name, graph.n_nodes, mogul_timer.mean, emr_timer.mean)
        table2.add_row(
            name,
            float(np.mean(nn_ms)),
            float(np.mean(topk_ms)),
            float(np.mean(nn_ms) + np.mean(topk_ms)),
        )
    fig7.add_note(f"{config.n_queries} held-out queries/cell, top-{config.k}")
    return [fig7, table2]


def main() -> None:  # pragma: no cover - CLI glue
    for table in run():
        print(table.to_text())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
