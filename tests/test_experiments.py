"""Smoke + shape tests for the experiment modules (tiny scale).

Each exhibit module must run end to end at a small scale and produce
tables with the right structure; where the paper's qualitative shape is
cheap to check (e.g. Lemma 3's zero off-block fraction, MogulE's P@k = 1),
we assert it here too.  Full-size shape comparisons live in the benchmark
harness and EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, clear_caches
from repro.experiments import ablations, fig1, fig2_3_4, fig5, fig6, fig7_table2, fig8, fig9, scaling
from repro.experiments.__main__ import EXHIBITS, build_parser, main


@pytest.fixture(scope="module")
def tiny_config():
    clear_caches()
    return ExperimentConfig(
        scale=0.12,
        n_queries=3,
        k=5,
        seed=0,
        extra={"anchor_counts": (5, 20)},
    )


class TestFig1:
    def test_structure(self, tiny_config):
        tables = fig1.run(tiny_config)
        assert len(tables) == 1
        table = tables[0]
        assert len(table.rows) == 4  # four datasets
        assert table.columns[0] == "dataset"
        for row in table.rows:
            # every timing cell is a positive float or a skip marker
            for cell in row[2:]:
                assert (isinstance(cell, float) and cell > 0) or "skip" in str(cell)

    def test_mogul_constant_in_k(self, tiny_config):
        """Mogul's cost is nearly independent of k (its theoretical
        selling point), counted as ``SearchStats.nodes_scored`` over the
        Figure 1 queries rather than timed.  Largest k over smallest at
        this config: coil 454 / 232 = 1.96, pubfig, nuswide and inria
        1.00."""
        from repro.core.index import MogulRanker
        from repro.eval.harness import sample_queries
        from repro.experiments.common import get_graph

        config = tiny_config
        k_low, k_high = min(config.mogul_k_values), max(config.mogul_k_values)
        for name in config.datasets:
            graph = get_graph(name, config)
            queries = sample_queries(graph.n_nodes, config.n_queries, seed=config.seed)
            mogul = MogulRanker(graph, alpha=config.alpha)
            scored = {}
            for k in (k_low, k_high):
                scored[k] = sum(
                    mogul.top_k_with_stats(int(q), k)[1].nodes_scored
                    for q in queries
                )
            assert scored[k_high] <= 2.0 * scored[k_low], (name, scored)


class TestFig234:
    def test_structure_and_shapes(self, tiny_config):
        fig2, fig3, fig4 = fig2_3_4.run(tiny_config)
        for table in (fig2, fig3, fig4):
            assert [int(r[0]) for r in table.rows] == [5, 20]
        # MogulE is exact: P@k exactly 1.0 in every row of Figure 2
        for row in fig2.rows:
            assert row[3] == pytest.approx(1.0)
        # Mogul's columns are constant across the sweep (anchor-free)
        assert len({row[2] for row in fig2.rows}) == 1
        assert len({row[2] for row in fig3.rows}) == 1

    def test_metrics_in_unit_interval(self, tiny_config):
        fig2, fig3, _ = fig2_3_4.run(tiny_config)
        for table in (fig2, fig3):
            for row in table.rows:
                for cell in row[1:]:
                    assert 0.0 <= cell <= 1.0


class TestFig5:
    def test_structure(self, tiny_config):
        table = fig5.run(tiny_config)[0]
        assert len(table.rows) == 4
        for row in table.rows:
            assert all(isinstance(c, float) and c > 0 for c in row[2:])


class TestFig6:
    def test_lemma3_shape(self, tiny_config):
        stats_table, raster_table = fig6.run(tiny_config)
        mogul_rows = [r for r in stats_table.rows if r[1] == "Mogul"]
        random_rows = [r for r in stats_table.rows if r[1] == "Random"]
        assert len(mogul_rows) == 4 and len(random_rows) == 4
        for row in mogul_rows:
            assert row[5] == 0.0  # off_block fraction: Lemma 3
        # the incomplete factor's cluster fractions are permutation
        # invariant; the Figure 6 scatter shows up as band distance — the
        # random order scatters entries far from the diagonal
        for mogul_row, random_row in zip(mogul_rows, random_rows):
            assert random_row[6] >= mogul_row[6] - 1e-12
        assert any(
            random_row[6] > 1.5 * mogul_row[6]
            for mogul_row, random_row in zip(mogul_rows, random_rows)
            if mogul_row[6] > 0
        )
        assert len(raster_table.rows) > 0


class TestFig7Table2:
    def test_structure(self, tiny_config):
        fig7, table2 = fig7_table2.run(tiny_config)
        assert len(fig7.rows) == 4
        assert len(table2.rows) == 4
        for row in table2.rows:
            nn, topk, overall = row[1], row[2], row[3]
            assert overall == pytest.approx(nn + topk, rel=1e-6)


class TestFig8:
    def test_structure(self, tiny_config):
        table = fig8.run(tiny_config)[0]
        assert len(table.rows) == 4
        for row in table.rows:
            assert row[2] > 0 and row[3] > 0


class TestFig9:
    def test_structure(self, tiny_config):
        table = fig9.run(tiny_config)[0]
        assert 1 <= len(table.rows) <= 4
        for row in table.rows:
            assert 0.0 <= row[5] <= 1.0
            assert 0.0 <= row[6] <= 1.0


class TestAblations:
    def test_structure(self, tiny_config):
        tables = ablations.run(tiny_config)
        assert len(tables) == 5
        titles = " | ".join(table.title for table in tables)
        for token in ("ordering", "fill level", "alpha", "graph degree", "multi-seed"):
            assert token in titles
        for table in tables:
            assert table.rows, f"{table.title} produced no rows"

    def test_ordering_quality_in_unit_interval(self, tiny_config):
        table = ablations.ordering_quality(tiny_config)
        for row in table.rows:
            for cell in row[1:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_multi_seed_costs_are_positive(self, tiny_config):
        table = ablations.multi_seed_sweep(tiny_config)
        times = [row[1] for row in table.rows]
        assert all(t > 0 for t in times)


class TestScaling:
    def test_structure(self, tiny_config):
        tables = scaling.run(tiny_config)
        assert len(tables) == 2
        query_table, pre_table = tables
        assert len(query_table.rows) == len(scaling.SWEEP_FACTORS)
        sizes = [row[0] for row in query_table.rows]
        assert sizes == sorted(sizes)
        # exponent note present
        assert any("exponent" in note for note in query_table.notes)

    def test_doubling_exponent_of_linear_data(self):
        import numpy as np

        sizes = np.asarray([1000, 2000, 4000])
        times = np.asarray([1.0, 2.0, 4.0])
        assert scaling._doubling_exponent(sizes, times) == pytest.approx(1.0)

    def test_doubling_exponent_degenerate(self):
        import numpy as np

        assert np.isnan(
            scaling._doubling_exponent(np.asarray([10]), np.asarray([0.0]))
        )


class TestCLI:
    def test_every_exhibit_registered(self):
        for name in ("fig1", "fig2-4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2"):
            assert name in EXHIBITS

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.scale == 1.0
        assert args.exhibit == "fig1"

    def test_main_runs_one_exhibit(self, capsys, tmp_path):
        out_file = tmp_path / "results.md"
        code = main(
            [
                "fig9",
                "--scale",
                "0.12",
                "--queries",
                "2",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out
        assert out_file.exists()
        assert "### Figure 9" in out_file.read_text()
