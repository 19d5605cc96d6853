"""Test oracles: the original kernels the production code replaced.

This module has no ``test_`` prefix, so pytest does not collect it.  The
function bodies below are the first implementations of two build
stages and of the live engine's answer filter, kept verbatim so the
equivalence tests can compare the production kernels against the
algorithm as first written:

* the dict-of-rows :math:`LDL^T` (paper Eq. 6-7): :func:`incomplete_ldl`
  and :func:`complete_ldl` take the same arguments as
  :mod:`repro.linalg.ldl`'s, so a test can patch them over
  ``repro.core.index.incomplete_ldl`` / ``complete_ldl``.  They produce
  the production factor's pattern exactly and its values up to
  floating-point summation order (the dicts accumulate sparse dot
  products in size-dependent order, the CSR kernel in ascending column
  order).
* Louvain's array-based local move, :func:`_local_move`, which patches
  over ``repro.clustering.louvain._local_move_fast`` and gives
  bitwise-identical labels.
* the live engine's answer filter as first written, :func:`take_live`
  over :func:`dedupe_ranked` (numpy-scalar loops, dedupe of every
  candidate, then truncation); the production versions walk Python ints
  and stop at the k-th unique id, with identical output.

:func:`reference_kernels` does that patching for a block, and
:func:`louvain` for one clustering call.  Nothing in ``src/`` knows these exist.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import scipy.sparse as sp

import repro.clustering.louvain as louvain_module
import repro.core.index as index_module
from repro.core.topk import rank_order, truncate_result
from repro.linalg.elimination_tree import elimination_tree, ereach
from repro.linalg.ldl import (
    PIVOT_FLOOR,
    LDLFactors,
    _symbolic_fill_pattern,
    _to_csr,
)
from repro.ranking.base import TopKResult


def incomplete_ldl(
    w, pivot_floor: float = PIVOT_FLOOR, fill_level: int = 0, blocks=None
) -> LDLFactors:
    """Oracle for :func:`repro.linalg.ldl.incomplete_ldl`; ignores ``blocks``."""
    if fill_level < 0:
        raise ValueError(f"fill_level must be >= 0, got {fill_level}")
    return _incomplete_reference(_to_csr(w), pivot_floor, fill_level)


def complete_ldl(w, pivot_floor: float = PIVOT_FLOOR, blocks=None) -> LDLFactors:
    """Oracle for :func:`repro.linalg.ldl.complete_ldl`; ignores ``blocks``."""
    return _complete_reference(_to_csr(w), pivot_floor)


@contextmanager
def reference_kernels():
    """Run the index build inside the block on both oracles."""
    with (
        mock.patch.object(louvain_module, "_local_move_fast", _local_move),
        mock.patch.object(index_module, "incomplete_ldl", incomplete_ldl),
        mock.patch.object(index_module, "complete_ldl", complete_ldl),
    ):
        yield


def louvain(adjacency: sp.spmatrix, **kwargs) -> np.ndarray:
    """:func:`repro.clustering.louvain` with the oracle local move."""
    with reference_kernels():
        return louvain_module.louvain(adjacency, **kwargs)


# -- the live engine's answer filter ------------------------------------------


def dedupe_ranked(ids: np.ndarray, scores: np.ndarray) -> TopKResult:
    """Oracle for :func:`repro.core.topk.dedupe_ranked` without ``k``."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = rank_order(ids, scores)
    seen: set[int] = set()
    keep: list[int] = []
    for position in order:
        gid = int(ids[position])
        if gid not in seen:
            seen.add(gid)
            keep.append(position)
    keep_arr = np.asarray(keep, dtype=np.int64)
    return TopKResult(indices=ids[keep_arr], scores=scores[keep_arr])


def take_live(
    indices: np.ndarray,
    scores: np.ndarray,
    tombstones: frozenset,
    k: int,
    skip: int = -1,
) -> TopKResult:
    """Oracle for :func:`repro.core.live._take_live`."""
    keep = [
        i for i, gid in enumerate(indices) if gid != skip and gid not in tombstones
    ]
    return truncate_result(dedupe_ranked(indices[keep], scores[keep]), k)


# -- the dict-of-rows LDL^T ---------------------------------------------------


def _incomplete_reference(
    w: sp.csr_matrix, pivot_floor: float, fill_level: int
) -> LDLFactors:
    """Row-by-row recurrence with sparse dot products (paper Eq. 6-7)."""
    n = w.shape[0]
    indptr, indices, data = w.indptr, w.indices, w.data

    diag_w = w.diagonal()
    floor = pivot_floor * max(float(np.max(np.abs(diag_w))), 1.0)

    if fill_level > 0:
        pattern_rows = _symbolic_fill_pattern(w, fill_level)
    else:
        pattern_rows = None

    d = np.zeros(n, dtype=np.float64)
    # Row-wise storage of the strict lower triangle of L while factoring:
    # dicts give O(1) membership for the sparse dot products below.
    row_maps: list[dict[int, float]] = [dict() for _ in range(n)]
    perturbations = 0

    for i in range(n):
        row_i = row_maps[i]
        start, stop = indptr[i], indptr[i + 1]
        if pattern_rows is None:
            # Pattern of row i, ascending, restricted to the strict lower.
            columns = [int(indices[p]) for p in range(start, stop) if indices[p] < i]
            values = {
                int(indices[p]): data[p]
                for p in range(start, stop)
                if indices[p] < i
            }
        else:
            columns = pattern_rows[i]
            w_row = {
                int(indices[p]): data[p]
                for p in range(start, stop)
                if indices[p] < i
            }
            values = {j: w_row.get(j, 0.0) for j in columns}
        for j in columns:
            row_j = row_maps[j]
            # s = W_ij - sum_{k<j} L_ik L_jk D_kk  over the shared pattern.
            s = values[j]
            if row_i and row_j:
                if len(row_i) <= len(row_j):
                    small, big = row_i, row_j
                else:
                    small, big = row_j, row_i
                for k, v_small in small.items():
                    v_big = big.get(k)
                    if v_big is not None:
                        s -= v_small * v_big * d[k]
            row_i[j] = s / d[j]
        # D_ii = W_ii - sum_{k<i} L_ik^2 D_kk
        pivot = diag_w[i]
        for k, v in row_i.items():
            pivot -= v * v * d[k]
        if pivot < floor:
            pivot = floor
            perturbations += 1
        d[i] = pivot

    lower = _rows_to_csr(row_maps, n)
    return LDLFactors(
        lower=lower,
        upper=lower.T.tocsr(),
        diag=d,
        pivot_perturbations=perturbations,
    )


def _complete_reference(w: sp.csr_matrix, pivot_floor: float) -> LDLFactors:
    """Up-looking Modified Cholesky driven by :func:`ereach` (Davis §4.8)."""
    n = w.shape[0]
    indptr, indices, data = w.indptr, w.indices, w.data

    diag_w = w.diagonal()
    floor = pivot_floor * max(float(np.max(np.abs(diag_w))), 1.0)

    parent = elimination_tree(w)
    marks = np.full(n, -1, dtype=np.int64)
    y = np.zeros(n, dtype=np.float64)
    d = np.zeros(n, dtype=np.float64)
    # L stored by columns while factoring; column j gains one entry per
    # later row k with L_kj != 0, appended in ascending row order.
    col_rows: list[list[int]] = [[] for _ in range(n)]
    col_vals: list[list[float]] = [[] for _ in range(n)]
    perturbations = 0

    for k in range(n):
        pattern = ereach(w, k, parent, marks)
        # Scatter row k of W (strictly-lower part) into the dense scratch.
        for p in range(indptr[k], indptr[k + 1]):
            j = indices[p]
            if j < k:
                y[j] = data[p]
        pivot = diag_w[k]
        for j in pattern:  # ascending == topological (parent[j] > j)
            yj = y[j]
            y[j] = 0.0
            # Propagate to later columns: y_r -= L_rj * y_j for r in col j.
            rows_j = col_rows[j]
            vals_j = col_vals[j]
            for idx in range(len(rows_j)):
                y[rows_j[idx]] -= vals_j[idx] * yj
            l_kj = yj / d[j]
            pivot -= l_kj * yj
            col_rows[j].append(k)
            col_vals[j].append(l_kj)
        if pivot < floor:
            pivot = floor
            perturbations += 1
        d[k] = pivot

    upper = _cols_to_csr_upper(col_rows, col_vals, n)
    return LDLFactors(
        lower=upper.T.tocsr(),
        upper=upper,
        diag=d,
        pivot_perturbations=perturbations,
    )


def _rows_to_csr(row_maps: list[dict[int, float]], n: int) -> sp.csr_matrix:
    """Assemble per-row dicts (strict lower triangle) into a CSR matrix."""
    nnz = sum(len(r) for r in row_maps)
    indptr = np.zeros(n + 1, dtype=np.int64)
    col_idx = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=np.float64)
    pos = 0
    for i, row in enumerate(row_maps):
        for j in sorted(row):
            col_idx[pos] = j
            values[pos] = row[j]
            pos += 1
        indptr[i + 1] = pos
    return sp.csr_matrix((values, col_idx, indptr), shape=(n, n))


def _cols_to_csr_upper(
    col_rows: list[list[int]], col_vals: list[list[float]], n: int
) -> sp.csr_matrix:
    """Assemble column-wise L entries into the strict upper triangle of L^T.

    Column ``j`` of ``L`` (entries ``L_kj``, ``k > j``) is exactly row ``j``
    of ``U = L^T``, and the rows were appended in ascending order, so the
    CSR arrays can be emitted directly without sorting.
    """
    nnz = sum(len(r) for r in col_rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    col_idx = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=np.float64)
    pos = 0
    for j in range(n):
        rows_j = col_rows[j]
        count = len(rows_j)
        col_idx[pos : pos + count] = rows_j
        values[pos : pos + count] = col_vals[j]
        pos += count
        indptr[j + 1] = pos
    return sp.csr_matrix((values, col_idx, indptr), shape=(n, n))


# -- Louvain's array-based local move -------------------------------------


def _local_move(
    graph: sp.csr_matrix,
    resolution: float,
    tol: float,
    shuffle: bool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """One level of greedy node moving.  Returns (labels, any_improvement)."""
    n = graph.shape[0]
    indptr, indices, data = graph.indptr, graph.indices, graph.data
    loops = graph.diagonal()
    degrees = np.asarray(graph.sum(axis=1)).ravel()
    two_m = float(degrees.sum())
    if two_m == 0.0:
        return np.arange(n, dtype=np.int64), False

    comm = np.arange(n, dtype=np.int64)
    comm_tot = degrees.copy()  # total degree per community
    order = np.arange(n)
    if shuffle:
        rng.shuffle(order)

    improved_any = False
    for _ in range(n):  # pass limit; each pass is O(edges)
        moved = 0
        for i in order:
            ci = comm[i]
            ki = degrees[i]
            # Edge weight from i to each neighbouring community.
            weights: dict[int, float] = {}
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                if j == i:
                    continue
                cj = comm[j]
                weights[cj] = weights.get(cj, 0.0) + data[p]
            comm_tot[ci] -= ki
            # Gain of joining community c (up to constants shared by all c):
            #   w(i->c) - gamma * k_i * tot_c / 2m
            best_c = ci
            best_gain = weights.get(ci, 0.0) - resolution * ki * comm_tot[ci] / two_m
            for c, w in weights.items():
                if c == ci:
                    continue
                gain = w - resolution * ki * comm_tot[c] / two_m
                if gain > best_gain + tol:
                    best_gain = gain
                    best_c = c
            comm_tot[best_c] += ki
            if best_c != ci:
                comm[i] = best_c
                moved += 1
        if moved == 0:
            break
        improved_any = True
    # `loops` intentionally unused for moving (self loops do not change
    # relative gains) but kept for clarity of the degree convention.
    del loops
    return comm, improved_any
