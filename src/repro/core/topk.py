"""Shared top-k ordering, truncation and merge primitives.

Every component that manipulates ranked answers — the single-query search
heap (:class:`repro.core.search.TopKAccumulator`), the batched engine's
result assembly, the live engine's pending-point splice, the service
scheduler's mixed-k truncation, and the sharded index's scatter-gather
merger — must agree on one total order, or "identical answers" stops
being a meaningful guarantee.  That order is:

    **score descending, id ascending**

(ties broken toward the smaller node id / position, which keeps answers
deterministic across methods and engines).  This module is the single
home of that order; callers never re-implement it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.ranking.base import TopKResult


def rank_order(ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices sorting (id, score) pairs by (score desc, id asc)."""
    return np.lexsort((ids, -np.asarray(scores, dtype=np.float64)))


def sorted_result(ids: np.ndarray, scores: np.ndarray) -> TopKResult:
    """Pack parallel (id, score) arrays into a canonically ordered result."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = rank_order(ids, scores)
    return TopKResult(indices=ids[order], scores=scores[order])


def sort_answer_pairs(
    pairs: Iterable[tuple[int, float]],
) -> list[tuple[int, float]]:
    """Sort ``(position, score)`` pairs by (score desc, position asc)."""
    ordered = list(pairs)
    ordered.sort(key=lambda item: (-item[1], item[0]))
    return ordered


def merge_answer_pairs(
    answer_lists: Sequence[list[tuple[int, float]]], k: int
) -> list[tuple[int, float]]:
    """Merge disjoint per-partition answer lists into one global top-k.

    Each input list holds ``(position, score)`` pairs over a *disjoint*
    position set (e.g. one list per shard plus the router's seed/border
    list), so the global top-k is simply the k best pairs of the
    concatenation under the canonical order — the gather half of
    scatter-gather search.
    """
    merged: list[tuple[int, float]] = []
    for answers in answer_lists:
        merged.extend(answers)
    return sort_answer_pairs(merged)[:k]


def truncate_result(result: TopKResult, k: int) -> TopKResult:
    """The top-k prefix of a top-K answer (K >= k).

    Answers are sorted by (score desc, id asc) — a total order — so the
    prefix equals the answer a direct ``top_k(k)`` call returns.  This is
    what lets the service scheduler coalesce mixed-k requests by solving
    at the batch maximum and truncating.
    """
    if len(result) <= k:
        return result
    return TopKResult(indices=result.indices[:k], scores=result.scores[:k])


def dedupe_ranked(
    ids: np.ndarray, scores: np.ndarray, k: int | None = None
) -> TopKResult:
    """Sort (id, score) pairs canonically, dropping duplicate ids.

    Duplicates can arise when two answer sources overlap (e.g. a pending
    point that the base index also returned after a partial rebuild); the
    higher score wins because the canonical sort visits it first.  With
    ``k`` the walk stops at the k-th unique id (the top-k prefix).
    """
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = rank_order(ids, scores)
    seen: set[int] = set()
    keep: list[int] = []
    for position, gid in zip(order.tolist(), ids[order].tolist()):
        if gid not in seen:
            seen.add(gid)
            keep.append(position)
            if len(keep) == k:
                break
    keep_arr = np.asarray(keep, dtype=np.int64)
    return TopKResult(indices=ids[keep_arr], scores=scores[keep_arr])
