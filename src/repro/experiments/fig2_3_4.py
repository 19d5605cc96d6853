"""Figures 2-4 — EMR's anchor-count trade-off vs parameter-free Mogul.

On COIL (top-5 queries) the paper sweeps EMR's anchor count d from 10 to
1000 and reports:

* Figure 2 — P@k against the Inverse answers: EMR climbs with d, Mogul and
  MogulE sit high and flat (MogulE at exactly 1.0 by construction).
* Figure 3 — retrieval precision against ground-truth object labels:
  Mogul above 90%, EMR below until d is large.
* Figure 4 — search time: EMR grows with d (the d^3 term), Mogul constant.

The three exhibits share one sweep, so one ``run`` produces all three
tables.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.emr import EMRRanker
from repro.core.index import MogulRanker
from repro.eval.harness import ExperimentTable, sample_queries, time_queries
from repro.eval.metrics import p_at_k, retrieval_precision
from repro.experiments.common import ExperimentConfig, get_dataset, get_graph
from repro.ranking.exact import ExactRanker

#: Paper sweep: 10 .. 1000 anchors, log-spaced.
DEFAULT_ANCHOR_COUNTS = (10, 30, 100, 300, 1000)


def run(config: ExperimentConfig | None = None) -> list[ExperimentTable]:
    """Regenerate Figures 2, 3 and 4 from a single anchor sweep on COIL."""
    config = config or ExperimentConfig()
    dataset = get_dataset("coil", config)
    graph = get_graph("coil", config)
    labels = dataset.labels
    queries = sample_queries(graph.n_nodes, config.n_queries, seed=config.seed)
    anchor_counts = [
        d for d in config.extra.get("anchor_counts", DEFAULT_ANCHOR_COUNTS)
        if d <= graph.n_nodes
    ]
    k = config.k

    exact = ExactRanker(graph, alpha=config.alpha)
    reference = {int(q): exact.top_k(int(q), k).indices for q in queries}

    def accuracy(ranker) -> tuple[float, float]:
        p_vals, r_vals = [], []
        for q in queries:
            result = ranker.top_k(int(q), k)
            p_vals.append(p_at_k(result.indices, reference[int(q)]))
            r_vals.append(
                retrieval_precision(result.indices, labels, int(labels[int(q)]))
            )
        return float(np.mean(p_vals)), float(np.mean(r_vals))

    mogul = MogulRanker(graph, alpha=config.alpha)
    mogul_e = MogulRanker(graph, alpha=config.alpha, exact=True)
    mogul_acc = accuracy(mogul)
    mogul_e_acc = accuracy(mogul_e)
    mogul_time = time_queries(lambda q: mogul.top_k(int(q), k), queries)
    mogul_e_time = time_queries(lambda q: mogul_e.top_k(int(q), k), queries)

    fig2 = ExperimentTable(
        title=f"Figure 2: P@{k} vs number of anchor points (coil)",
        columns=["anchors", "EMR", "Mogul", "MogulE"],
    )
    fig3 = ExperimentTable(
        title=f"Figure 3: retrieval precision vs number of anchor points (coil)",
        columns=["anchors", "EMR", "Mogul", "MogulE"],
    )
    fig4 = ExperimentTable(
        title="Figure 4: search time [s] vs number of anchor points (coil)",
        columns=["anchors", "EMR", "Mogul", "MogulE"],
    )
    for table in (fig2, fig3, fig4):
        table.add_note(
            "Mogul/MogulE are anchor-free; their column repeats the constant value"
        )

    for d in anchor_counts:
        emr = EMRRanker(graph, alpha=config.alpha, n_anchors=d)
        emr_p, emr_r = accuracy(emr)
        emr_time = time_queries(lambda q: emr.top_k(int(q), k), queries)
        fig2.add_row(d, emr_p, mogul_acc[0], mogul_e_acc[0])
        fig3.add_row(d, emr_r, mogul_acc[1], mogul_e_acc[1])
        fig4.add_row(d, emr_time, mogul_time, mogul_e_time)

    fig2.add_note(f"MogulE P@k is 1.0 by construction (exact factorization)")
    return [fig2, fig3, fig4]


def main() -> None:  # pragma: no cover - CLI glue
    for table in run():
        print(table.to_text())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
