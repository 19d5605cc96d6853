"""Shared experiment plumbing: query sampling, timing loops, result tables.

Every module in :mod:`repro.experiments` and every benchmark builds on
these three primitives so that "search time" always means the same
measured region and tables print in one consistent format (aligned text
that doubles as the EXPERIMENTS.md record).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.timer import Timer


def sample_queries(n_nodes: int, count: int, seed: SeedLike = 0) -> np.ndarray:
    """Draw ``count`` distinct query node ids (deterministic under seed)."""
    if count > n_nodes:
        raise ValueError(f"cannot sample {count} queries from {n_nodes} nodes")
    rng = as_rng(seed)
    return rng.choice(n_nodes, size=count, replace=False)


def time_queries(
    run_query: Callable[[int], object],
    queries: Sequence[int],
    warmup: int = 1,
) -> float:
    """Mean wall-clock seconds per query over ``queries``.

    ``warmup`` initial calls are executed but not timed (first-call effects:
    lazy caches, branch-predictor noise).
    """
    queries = list(queries)
    if not queries:
        raise ValueError("queries must be non-empty")
    for query in queries[: max(0, warmup)]:
        run_query(query)
    timer = Timer()
    for query in queries:
        with timer:
            run_query(query)
    return timer.mean


@dataclass
class ExperimentTable:
    """A printable experiment result table.

    Rows are lists of cells (strings or numbers); numbers are rendered
    with engineering-friendly precision.  ``to_text`` aligns columns for
    the terminal and EXPERIMENTS.md; ``to_markdown`` emits a pipe table.
    """

    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append one row; must match the column count."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Attach a free-text note printed under the table."""
        self.notes.append(note)

    @staticmethod
    def _format_cell(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0.0:
                return "0"
            magnitude = abs(cell)
            if magnitude >= 1000 or magnitude < 0.001:
                return f"{cell:.3e}"
            return f"{cell:.4f}".rstrip("0").rstrip(".")
        return str(cell)

    def to_text(self) -> str:
        """Aligned plain-text rendering."""
        formatted = [[self._format_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in formatted), 1)
            if formatted
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in formatted:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering."""
        formatted = [[self._format_cell(c) for c in row] for row in self.rows]
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in formatted:
            lines.append("| " + " | ".join(row) + " |")
        for note in self.notes:
            lines.append(f"\n_{note}_")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
