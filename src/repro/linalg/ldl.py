"""Sparse :math:`LDL^T` factorizations: Incomplete and Modified Cholesky.

The paper factorizes :math:`W = I - \\alpha (C')^{-1/2} A' (C')^{-1/2}` as
:math:`W \\approx L D L^T` with **Incomplete Cholesky** (Eq. 6-7): ``L`` is
unit lower triangular and restricted to W's own sparsity pattern, so it keeps
O(n) non-zeros on a k-NN graph.  MogulE (§4.6.1) instead uses **Modified
Cholesky** — the same recurrence *without* the pattern restriction — which is
an exact factorization with fill-in.

Both variants run one up-looking kernel on preallocated CSR arrays: a
symbolic phase emits the factor's ``indptr``/``indices`` up front (W's
own strict lower triangle for the incomplete variant, the ILU(p) closure
for ``fill_level > 0``, :func:`repro.linalg.elimination_tree`
reachability for the complete one), and a numeric phase fills ``data``
with a scatter/gather sweep over a dense scratch row.  Because the
permuted system matrix is bordered block diagonal (Lemma 3), the
interior cluster blocks factorize independently: pass ``blocks=`` (the
permutation's cluster slices, border last) and the interior rows run as
one range, the border rows last, after a check that no interior row
reaches left of its block.  The original dict-of-rows kernels survive
only as the test suite's oracles (``tests/oracles.py``); this kernel
matches their pattern exactly and their values up to floating-point
summation order.

W is symmetric positive definite (its eigenvalues lie in ``[1-alpha,
1+alpha]``), so the complete factorization cannot break down.  The
*incomplete* variant may in principle produce tiny or negative pivots
because dropped entries perturb the Schur complements; the paper does not
address this, so we guard pivots with a relative floor and count the
perturbations (``LDLFactors.pivot_perturbations``) so tests can assert the
guard almost never fires on real inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_square

#: Relative pivot floor: pivots below ``PIVOT_FLOOR * max(diag(W))`` are
#: clamped.  W's diagonal is ~1 for manifold-ranking matrices, so this is
#: effectively an absolute floor of 1e-12.
PIVOT_FLOOR = 1e-12


@dataclass(frozen=True)
class LDLFactors:
    """The result of an :math:`LDL^T` factorization.

    Attributes
    ----------
    lower:
        CSR matrix holding the **strict** lower triangle of ``L``
        (the unit diagonal is implied, paper Eq. 6 sets ``L_ii = 1``).
    upper:
        CSR matrix holding the strict upper triangle of ``U = L^T``.
        Stored separately because back substitution (paper Eq. 5) walks
        rows of ``U``, which are columns of ``L``.
    diag:
        The diagonal of ``D`` as a dense vector.
    pivot_perturbations:
        Number of pivots clamped by the safety floor (0 in healthy runs).
    """

    lower: sp.csr_matrix
    upper: sp.csr_matrix
    diag: np.ndarray
    pivot_perturbations: int = 0

    @property
    def n(self) -> int:
        """Dimension of the factored matrix."""
        return self.lower.shape[0]

    @property
    def nnz(self) -> int:
        """Non-zeros in the strict lower triangle of ``L``.

        This is the quantity the paper reports when comparing Mogul with
        MogulE (28,293 vs 132,818 on COIL-100).
        """
        return self.lower.nnz

    def reconstruct(self) -> sp.csr_matrix:
        """Return :math:`L D L^T` as a sparse matrix (for tests)."""
        eye = sp.identity(self.n, format="csr")
        l_full = (self.lower + eye).tocsr()
        return (l_full @ sp.diags(self.diag) @ l_full.T).tocsr()


def _to_csr(w) -> sp.csr_matrix:
    w = check_square(w, "W")
    if not sp.issparse(w):
        w = sp.csr_matrix(np.asarray(w, dtype=np.float64))
    w = w.tocsr().astype(np.float64)
    w.sum_duplicates()
    w.sort_indices()
    return w


def _check_blocks(blocks, n: int) -> list[tuple[int, int]] | None:
    """Validate the bordered-block layout: contiguous slices covering [0, n).

    ``blocks`` is typically ``Permutation.cluster_slices`` — interior
    clusters first, border block last (the border may be empty).
    """
    if blocks is None:
        return None
    spans: list[tuple[int, int]] = []
    cursor = 0
    for block in blocks:
        if isinstance(block, slice):
            start = 0 if block.start is None else int(block.start)
            stop = n if block.stop is None else int(block.stop)
        else:
            start, stop = (int(block[0]), int(block[1]))
        if start != cursor or stop < start or stop > n:
            raise ValueError(
                "blocks must be contiguous ascending spans covering the "
                f"matrix: got span ({start}, {stop}) after position {cursor}"
            )
        spans.append((start, stop))
        cursor = stop
    if cursor != n:
        raise ValueError(
            f"blocks cover positions [0, {cursor}) but the matrix has {n} rows"
        )
    return spans


def incomplete_ldl(
    w,
    pivot_floor: float = PIVOT_FLOOR,
    fill_level: int = 0,
    blocks=None,
) -> LDLFactors:
    """Incomplete Cholesky :math:`LDL^T` with level-of-fill control.

    Parameters
    ----------
    w:
        Symmetric positive-definite matrix (sparse or dense).
    pivot_floor:
        Relative floor applied to pivots of ``D`` (see module docstring).
    fill_level:
        How much fill the factor may keep beyond W's own pattern, using
        the standard ILU(p) level rule (an original entry has level 0; a
        fill entry created through pivot ``k`` has level
        ``lev(i,k) + lev(j,k) + 1``; entries above ``fill_level`` are
        dropped).  ``0`` is the paper's Incomplete Cholesky (Eq. 6-7);
        raising it interpolates toward Modified Cholesky (MogulE) —
        higher accuracy, more non-zeros, the classic quality/size knob.
        Fill can only appear where an elimination path exists, so the
        bordered block-diagonal structure of Lemma 3 is preserved at
        every level.
    blocks:
        Optional bordered-block layout (``Permutation.cluster_slices``,
        border last).  The interior blocks factorize independently; a
        matrix that is not bordered block diagonal w.r.t. the given
        blocks raises ``ValueError``.

    Returns
    -------
    LDLFactors
    """
    if fill_level < 0:
        raise ValueError(f"fill_level must be >= 0, got {fill_level}")
    w = _to_csr(w)
    spans = _check_blocks(blocks, w.shape[0])
    if fill_level > 0:
        pattern_rows = _symbolic_fill_pattern(w, fill_level)
        pat_indptr, pat_indices = _pattern_rows_to_csr(pattern_rows)
    else:
        lower_w = sp.tril(w, k=-1, format="csr")
        lower_w.sort_indices()
        pat_indptr = lower_w.indptr.astype(np.int64)
        pat_indices = lower_w.indices.astype(np.int64)
    return _factor_with_pattern(w, pat_indptr, pat_indices, pivot_floor, spans)


def complete_ldl(
    w,
    pivot_floor: float = PIVOT_FLOOR,
    blocks=None,
) -> LDLFactors:
    """Modified (complete) Cholesky :math:`LDL^T` with fill-in (§4.6.1).

    The factor pattern is predicted from the elimination tree (Davis
    §4.8) and the numeric values follow from one sparse triangular solve
    per row.  Because no entry is dropped, :math:`LDL^T = W` exactly (up
    to round-off) and the resulting scores are exact — this is MogulE's
    engine.  ``blocks`` as in :func:`incomplete_ldl`.
    """
    w = _to_csr(w)
    spans = _check_blocks(blocks, w.shape[0])
    pat_indptr, pat_indices = _symbolic_complete(w)
    return _factor_with_pattern(w, pat_indptr, pat_indices, pivot_floor, spans)


# -- symbolic phase ----------------------------------------------------------


def _pattern_rows_to_csr(
    pattern_rows: list[list[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-row column lists into preallocated CSR index arrays."""
    n = len(pattern_rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, row in enumerate(pattern_rows):
        indptr[i + 1] = indptr[i] + len(row)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for i, row in enumerate(pattern_rows):
        indices[indptr[i] : indptr[i + 1]] = row
    return indptr, indices


def _symbolic_fill_pattern(w: sp.csr_matrix, level: int) -> list[list[int]]:
    """ILU(p)-style symbolic factorization for the symmetric lower triangle.

    Returns, per row ``i``, the ascending strict-lower column pattern the
    numeric phase may fill.  Entry levels follow the standard rule:
    original entries are level 0; eliminating pivot ``k`` creates (i, j)
    with level ``lev(i,k) + lev(j,k) + 1``; only entries with level <=
    ``level`` are kept.  ``col_entries[k]`` accumulates the completed rows'
    entries in column ``k`` so row ``i`` can look up every ``L_jk`` with
    ``j < i`` in one pass (the symmetric analogue of consuming U's rows in
    IKJ ILU).
    """
    n = w.shape[0]
    indptr, indices = w.indptr, w.indices
    col_entries: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    pattern_rows: list[list[int]] = []
    for i in range(n):
        levels: dict[int, int] = {
            int(indices[p]): 0
            for p in range(indptr[i], indptr[i + 1])
            if indices[p] < i
        }
        # Process pivots in ascending order; new fill always lands at
        # columns j > k, so one sorted sweep with insertions suffices.
        heap = list(levels)
        heapq.heapify(heap)
        seen: set[int] = set()
        while heap:
            k = heapq.heappop(heap)
            if k in seen:
                continue
            seen.add(k)
            lev_ik = levels[k]
            if lev_ik >= level:
                continue  # any fill through k would exceed the budget
            for j, lev_jk in col_entries[k]:
                if j <= k or j >= i:
                    continue
                candidate = lev_ik + lev_jk + 1
                if candidate > level:
                    continue
                previous = levels.get(j)
                if previous is None or candidate < previous:
                    levels[j] = candidate
                    if j not in seen:
                        heapq.heappush(heap, j)
        columns = sorted(levels)
        pattern_rows.append(columns)
        for j in columns:
            col_entries[j].append((i, levels[j]))
    return pattern_rows


def _symbolic_complete(w: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Predict the complete factor's row patterns via the elimination tree.

    This is :func:`repro.linalg.ereach` run over every row, restated on
    plain Python lists so the symbolic phase does not dominate the
    factorization it serves; the resulting patterns are identical.
    """
    n = w.shape[0]
    lower_w = sp.tril(w, k=-1, format="csr")
    lower_w.sort_indices()
    lp = lower_w.indptr.tolist()
    li = lower_w.indices.tolist()

    # Elimination tree with union-find path compression (Davis §4.1),
    # driven by the strict lower triangle only.
    parent = [-1] * n
    ancestor = [-1] * n
    for k in range(n):
        for p in range(lp[k], lp[k + 1]):
            i = li[p]
            while i != -1 and i != k:
                nxt = ancestor[i]
                ancestor[i] = k
                if nxt == -1:
                    parent[i] = k
                i = nxt

    # Row reachability (cs_ereach): climb from every structural non-zero
    # towards the row, collecting unvisited tree nodes.
    marks = [-1] * n
    indptr = np.zeros(n + 1, dtype=np.int64)
    all_cols: list[int] = []
    for k in range(n):
        marks[k] = k
        row: list[int] = []
        for p in range(lp[k], lp[k + 1]):
            j = li[p]
            stack: list[int] = []
            while marks[j] != k:
                stack.append(j)
                marks[j] = k
                j = parent[j]
            while stack:
                row.append(stack.pop())
        row.sort()
        all_cols.extend(row)
        indptr[k + 1] = len(all_cols)
    return indptr, np.asarray(all_cols, dtype=np.int64)


def _factor_rows(
    rs: int,
    re: int,
    lp: list[int],
    li: list[int],
    wlp: list[int],
    wli: list[int],
    wlv: list[float],
    dw: list[float],
    d: list[float],
    floor: float,
    col_rows: list[list[int]],
    col_scaled: list[list[float]],
    marker: list[int],
    y: list[float],
) -> tuple[int, list[float]]:
    """Numeric up-looking sweep over rows ``[rs, re)``.

    For each row the strict-lower pattern is scattered into the dense
    scratch ``y`` (marking membership in ``marker``), W's values laid on
    top, and the columns consumed in ascending order: finalizing
    ``L_ik`` propagates ``-L_ik * (L_jk D_kk)`` to every later pattern
    column ``j`` that column ``k`` already carries (``col_scaled`` keeps
    the products pre-scaled by ``D_kk``).  The ``marker`` guard is what
    makes the same kernel serve both variants — for the complete pattern
    every propagation target is in the row pattern (the elimination-tree
    closure), for the incomplete one the guard *is* the drop rule.

    Returns the pivot-perturbation count and the row range's factor
    values in pattern order.
    """
    out: list[float] = []
    append_out = out.append
    perturb = 0
    for i in range(rs, re):
        s = lp[i]
        e = lp[i + 1]
        for idx in range(s, e):
            j = li[idx]
            marker[j] = i
            y[j] = 0.0
        for idx in range(wlp[i], wlp[i + 1]):
            y[wli[idx]] = wlv[idx]
        pivot = dw[i]
        for idx in range(s, e):
            k = li[idx]
            yk = y[k]
            rk = col_rows[k]
            ck = col_scaled[k]
            if yk != 0.0:
                l_ik = yk / d[k]
                pivot -= l_ik * yk
                for t in range(len(rk)):
                    r = rk[t]
                    if marker[r] == i:
                        y[r] -= l_ik * ck[t]
            else:
                l_ik = 0.0
            rk.append(i)
            ck.append(yk)
            append_out(l_ik)
        if pivot < floor:
            pivot = floor
            perturb += 1
        d[i] = pivot
    return perturb, out


def _factor_with_pattern(
    w: sp.csr_matrix,
    pat_indptr: np.ndarray,
    pat_indices: np.ndarray,
    pivot_floor: float,
    spans: list[tuple[int, int]] | None,
) -> LDLFactors:
    """Numeric phase shared by both variants."""
    n = w.shape[0]
    lower_w = sp.tril(w, k=-1, format="csr")
    lower_w.sort_indices()
    diag_w = w.diagonal()
    floor = pivot_floor * max(float(np.max(np.abs(diag_w))), 1.0)

    if spans is not None:
        # Interior rows must never reach columns left of their block —
        # the independence Lemma 3 (and the sharded build) relies on.
        for start, stop in spans[:-1]:
            seg = pat_indices[pat_indptr[start] : pat_indptr[stop]]
            if seg.size and int(seg.min()) < start:
                raise ValueError(
                    "matrix is not bordered block diagonal w.r.t. blocks: "
                    f"rows [{start}, {stop}) reference columns before {start}"
                )

    nnz = int(pat_indptr[-1])
    data = np.empty(nnz, dtype=np.float64)
    lp = pat_indptr.tolist()
    li = pat_indices.tolist()
    wlp = lower_w.indptr.tolist()
    wli = lower_w.indices.tolist()
    wlv = lower_w.data.tolist()
    dw = diag_w.tolist()
    d: list[float] = [0.0] * n
    col_rows: list[list[int]] = [[] for _ in range(n)]
    col_scaled: list[list[float]] = [[] for _ in range(n)]

    def run_range(rs: int, re: int) -> int:
        marker = [-1] * n
        y = [0.0] * n
        perturb, values = _factor_rows(
            rs, re, lp, li, wlp, wli, wlv, dw, d, floor,
            col_rows, col_scaled, marker, y,
        )
        data[lp[rs] : lp[re]] = values
        return perturb

    if spans is None or len(spans) == 1:
        perturbations = run_range(0, n)
    else:
        border_start = spans[-1][0]
        perturbations = run_range(0, border_start) + run_range(border_start, n)

    lower = sp.csr_matrix(
        (data, pat_indices.copy(), pat_indptr.copy()), shape=(n, n)
    )
    return LDLFactors(
        lower=lower,
        upper=lower.T.tocsr(),
        diag=np.asarray(d, dtype=np.float64),
        pivot_perturbations=perturbations,
    )

