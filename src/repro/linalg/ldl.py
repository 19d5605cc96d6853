"""Sparse :math:`LDL^T` factorizations: Incomplete and Modified Cholesky.

The paper factorizes :math:`W = I - \\alpha (C')^{-1/2} A' (C')^{-1/2}` as
:math:`W \\approx L D L^T` with **Incomplete Cholesky** (Eq. 6-7): ``L`` is
unit lower triangular and restricted to W's own sparsity pattern, so it keeps
O(n) non-zeros on a k-NN graph.  MogulE (§4.6.1) instead uses **Modified
Cholesky** — the same recurrence *without* the pattern restriction — which is
an exact factorization with fill-in.

Two interchangeable numeric backends implement both variants:

* ``backend="csr"`` (default) — an up-looking factorization working on
  preallocated CSR arrays: a symbolic phase emits the factor's
  ``indptr``/``indices`` up front (W's own strict lower triangle for the
  incomplete variant, :func:`repro.linalg.elimination_tree` reachability
  for the complete one), and a numeric phase fills ``data`` with a
  scatter/gather sweep over a dense scratch row.  Because the permuted
  system matrix is bordered block diagonal (Lemma 3), the interior
  cluster blocks factorize independently: pass ``blocks=`` (the
  permutation's cluster slices, border last) and ``jobs=`` to spread the
  interior blocks over a thread pool, the border rows running last.
  Results are bitwise identical for every ``jobs`` value — each row's
  arithmetic never depends on how rows are grouped.  (The numeric sweep
  is pure-Python bytecode and holds the GIL, so ``jobs > 1`` buys
  wall-clock only on GIL-free Python builds; the block scheduling is
  the enabler, not the speedup, on standard CPython — there the win is
  the kernel itself, ~3x over the reference backend.)
* ``backend="reference"`` — the original dict-of-rows implementation,
  kept verbatim for equivalence testing and as the benchmark baseline.
  The backends produce the same sparsity pattern and the same values up
  to floating-point summation order (the reference accumulates sparse
  dot products in size-dependent dict order, the CSR backend in
  ascending column order).

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.linalg.elimination_tree import elimination_tree, ereach
from repro.utils.validation import check_jobs, check_square

#: Relative pivot floor: pivots below ``PIVOT_FLOOR * max(diag(W))`` are
#: clamped.  W's diagonal is ~1 for manifold-ranking matrices, so this is
#: effectively an absolute floor of 1e-12.
PIVOT_FLOOR = 1e-12

#: Numeric backends accepted by :func:`incomplete_ldl` / :func:`complete_ldl`.
BACKENDS = ("csr", "reference")

#: Backend used when callers do not choose one.
DEFAULT_BACKEND = "csr"


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


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


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
    backend: str = DEFAULT_BACKEND,
    blocks=None,
    jobs: int = 1,
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
    backend:
        ``"csr"`` (default) or ``"reference"`` — see the module
        docstring.  Both produce the same pattern; values agree to
        floating-point summation order.
    blocks:
        Optional bordered-block layout (``Permutation.cluster_slices``,
        border last).  The CSR backend factorizes the interior blocks
        independently; a matrix that is not bordered block diagonal
        w.r.t. the given blocks raises ``ValueError``.  Ignored by the
        reference backend.
    jobs:
        Worker threads for the interior blocks (CSR backend only; needs
        ``blocks``).  Any value produces bitwise-identical factors.

    Returns
    -------
    LDLFactors
    """
    if fill_level < 0:
        raise ValueError(f"fill_level must be >= 0, got {fill_level}")
    _check_backend(backend)
    jobs = check_jobs(jobs)
    w = _to_csr(w)
    spans = _check_blocks(blocks, w.shape[0])
    if backend == "reference":
        return _incomplete_reference(w, pivot_floor, fill_level)
    if fill_level > 0:
        pattern_rows = _symbolic_fill_pattern(w, fill_level)
        pat_indptr, pat_indices = _pattern_rows_to_csr(pattern_rows)
    else:
        lower_w = sp.tril(w, k=-1, format="csr")
        lower_w.sort_indices()
        pat_indptr = lower_w.indptr.astype(np.int64)
        pat_indices = lower_w.indices.astype(np.int64)
    return _factor_with_pattern(w, pat_indptr, pat_indices, pivot_floor, spans, jobs)


def complete_ldl(
    w,
    pivot_floor: float = PIVOT_FLOOR,
    backend: str = DEFAULT_BACKEND,
    blocks=None,
    jobs: int = 1,
) -> LDLFactors:
    """Modified (complete) Cholesky :math:`LDL^T` with fill-in (§4.6.1).

    The factor pattern is predicted from the elimination tree (Davis
    §4.8) and the numeric values follow from one sparse triangular solve
    per row.  Because no entry is dropped, :math:`LDL^T = W` exactly (up
    to round-off) and the resulting scores are exact — this is MogulE's
    engine.  ``backend``/``blocks``/``jobs`` as in :func:`incomplete_ldl`.
    """
    _check_backend(backend)
    jobs = check_jobs(jobs)
    w = _to_csr(w)
    spans = _check_blocks(blocks, w.shape[0])
    if backend == "reference":
        return _complete_reference(w, pivot_floor)
    pat_indptr, pat_indices = _symbolic_complete(w)
    return _factor_with_pattern(w, pat_indptr, pat_indices, pivot_floor, spans, jobs)


# -- CSR backend -----------------------------------------------------------


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


def _row_groups(
    spans: list[tuple[int, int]], jobs: int, pat_indptr: np.ndarray
) -> list[tuple[int, int]]:
    """Partition the interior blocks into ``jobs`` contiguous row ranges.

    Interior blocks are mutually independent, so any contiguous grouping
    is valid; ranges are balanced by pattern non-zeros (a proxy for
    numeric work).  The border block is excluded — it must run last.
    """
    interior = spans[:-1]
    if not interior:
        return []
    jobs = min(jobs, len(interior))
    total = int(pat_indptr[interior[-1][1]] - pat_indptr[interior[0][0]])
    target = max(1, total // jobs)
    groups: list[tuple[int, int]] = []
    group_start = interior[0][0]
    acc = 0
    for start, stop in interior:
        acc += int(pat_indptr[stop] - pat_indptr[start])
        if acc >= target and len(groups) < jobs - 1:
            groups.append((group_start, stop))
            group_start = stop
            acc = 0
    groups.append((group_start, interior[-1][1]))
    return groups


def _factor_with_pattern(
    w: sp.csr_matrix,
    pat_indptr: np.ndarray,
    pat_indices: np.ndarray,
    pivot_floor: float,
    spans: list[tuple[int, int]] | None,
    jobs: int,
) -> LDLFactors:
    """Numeric phase shared by both variants of the CSR backend."""
    n = w.shape[0]
    lower_w = sp.tril(w, k=-1, format="csr")
    lower_w.sort_indices()
    diag_w = w.diagonal()
    floor = pivot_floor * max(float(np.max(np.abs(diag_w))), 1.0)

    if spans is not None:
        # Interior rows must never reach columns left of their block —
        # the independence the parallel schedule (and Lemma 3) relies on.
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

    perturbations = 0
    if spans is None or len(spans) == 1:
        perturbations += run_range(0, n)
    else:
        groups = _row_groups(spans, jobs, pat_indptr)
        if jobs > 1 and len(groups) > 1:
            with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                futures = [pool.submit(run_range, rs, re) for rs, re in groups]
                perturbations += sum(f.result() for f in futures)
        else:
            perturbations += sum(run_range(rs, re) for rs, re in groups)
        border_start, border_stop = spans[-1]
        perturbations += run_range(border_start, border_stop)

    lower = sp.csr_matrix(
        (data, pat_indices.copy(), pat_indptr.copy()), shape=(n, n)
    )
    return LDLFactors(
        lower=lower,
        upper=lower.T.tocsr(),
        diag=np.asarray(d, dtype=np.float64),
        pivot_perturbations=perturbations,
    )


# -- span-wise factorization (the sharded build's primitives) --------------
#
# A bordered block-diagonal matrix factors in independent *leading spans*
# (any contiguous run of interior blocks) followed by the border rows,
# which consume every span's result.  The sharded index build farms the
# spans to worker processes; these two functions are the process-safe
# halves of `_factor_with_pattern`, produced so that the assembled factor
# is **bitwise identical** to the single-call path: each row's arithmetic
# depends only on its pattern, W's values, the diagonal of earlier
# columns and the earlier rows' pre-division column values — none of
# which change under span grouping.


@dataclass(frozen=True)
class RowSpanFactor:
    """The factorization of one independent leading row span.

    Attributes
    ----------
    values:
        Factor values in pattern (row-major, column-ascending) order.
    scaled:
        The matching *pre-division* values :math:`L_{ik} D_{kk}` in the
        same order — the quantity the border pass propagates.  Returned
        verbatim (not recomputed as ``values * diag``) because the
        division/multiplication round trip is not bitwise stable.
    diag:
        The span's pivots :math:`D_{ii}`.
    perturbations:
        Pivots clamped by the safety floor within the span.
    """

    values: np.ndarray
    scaled: np.ndarray
    diag: np.ndarray
    perturbations: int


def global_pivot_floor(w: sp.csr_matrix, pivot_floor: float = PIVOT_FLOOR) -> float:
    """The absolute pivot floor `_factor_with_pattern` applies for ``w``.

    Span workers must receive this value from the caller — computing it
    from a span's local diagonal would change clamping decisions.
    """
    return pivot_floor * max(float(np.max(np.abs(w.diagonal()))), 1.0)


def symbolic_pattern(
    w: sp.csr_matrix, factorization: str = "incomplete", fill_level: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The factor's strict-lower CSR pattern for either variant.

    Exactly the pattern the CSR backend preallocates: W's own strict
    lower triangle for the paper's ICF, the ILU(p) closure for
    ``fill_level > 0``, the elimination-tree closure for
    ``factorization="complete"``.
    """
    w = _to_csr(w)
    if factorization == "complete":
        return _symbolic_complete(w)
    if factorization != "incomplete":
        raise ValueError(
            f"factorization must be 'incomplete' or 'complete', got {factorization!r}"
        )
    if fill_level > 0:
        return _pattern_rows_to_csr(_symbolic_fill_pattern(w, fill_level))
    lower_w = sp.tril(w, k=-1, format="csr")
    lower_w.sort_indices()
    return lower_w.indptr.astype(np.int64), lower_w.indices.astype(np.int64)


def factor_row_span(
    pat_indptr: np.ndarray,
    pat_indices: np.ndarray,
    wl_indptr: np.ndarray,
    wl_indices: np.ndarray,
    wl_data: np.ndarray,
    w_diag: np.ndarray,
    floor: float,
) -> RowSpanFactor:
    """Factor one independent leading span, all arrays in local coordinates.

    The caller slices the global pattern / W-lower / diagonal rows for the
    span and shifts column indices so the span occupies ``[0, m)``; the
    span must be self-contained (every column inside it), which holds for
    any run of interior blocks of a bordered block-diagonal matrix.
    Everything here pickles, so the sharded build can run one call per
    worker process.
    """
    m = int(np.asarray(w_diag).shape[0])
    pat_indices = np.asarray(pat_indices, dtype=np.int64)
    if pat_indices.size and (
        int(pat_indices.min()) < 0 or int(pat_indices.max()) >= m
    ):
        raise ValueError("span pattern references columns outside the span")
    li = pat_indices.tolist()
    d: list[float] = [0.0] * m
    col_rows: list[list[int]] = [[] for _ in range(m)]
    col_scaled: list[list[float]] = [[] for _ in range(m)]
    perturb, out = _factor_rows(
        0,
        m,
        np.asarray(pat_indptr, dtype=np.int64).tolist(),
        li,
        np.asarray(wl_indptr, dtype=np.int64).tolist(),
        np.asarray(wl_indices, dtype=np.int64).tolist(),
        np.asarray(wl_data, dtype=np.float64).tolist(),
        np.asarray(w_diag, dtype=np.float64).tolist(),
        d,
        floor,
        col_rows,
        col_scaled,
        [-1] * m,
        [0.0] * m,
    )
    # Flatten the per-column pre-division values back into pattern order:
    # column k's entries were appended in ascending row order, so one
    # cursor per column realigns them with the row-major pattern walk.
    scaled = np.empty(len(out), dtype=np.float64)
    cursors = [0] * m
    for idx, k in enumerate(li):
        scaled[idx] = col_scaled[k][cursors[k]]
        cursors[k] += 1
    return RowSpanFactor(
        values=np.asarray(out, dtype=np.float64),
        scaled=scaled,
        diag=np.asarray(d, dtype=np.float64),
        perturbations=perturb,
    )


def factor_border_rows(
    w: sp.csr_matrix,
    pat_indptr: np.ndarray,
    pat_indices: np.ndarray,
    border_start: int,
    interior_diag: np.ndarray,
    interior_scaled: np.ndarray,
    floor: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Factor the trailing border rows given every interior span's result.

    ``interior_diag`` / ``interior_scaled`` are the concatenated
    :class:`RowSpanFactor` outputs for rows ``[0, border_start)`` (scaled
    values aligned with the global pattern).  Returns the border rows'
    factor values in pattern order, the border pivots, and the
    perturbation count.
    """
    n = w.shape[0]
    lower_w = sp.tril(w, k=-1, format="csr")
    lower_w.sort_indices()
    interior_nnz = int(pat_indptr[border_start])

    # The border pass only consults columns that appear in border-row
    # patterns; rebuild the per-column (rows, pre-division values)
    # accumulators for exactly those columns with one vectorized grouping
    # over the interior pattern instead of replaying the interior sweep.
    col_rows: list[list[int]] = [[] for _ in range(n)]
    col_scaled: list[list[float]] = [[] for _ in range(n)]
    border_cols = pat_indices[interior_nnz:]
    needed = np.zeros(n, dtype=bool)
    needed[border_cols[border_cols < border_start]] = True
    if interior_nnz and np.any(needed):
        entry_rows = np.repeat(
            np.arange(border_start, dtype=np.int64),
            np.diff(pat_indptr[: border_start + 1]),
        )
        entry_cols = pat_indices[:interior_nnz]
        keep = needed[entry_cols]
        sel_rows = entry_rows[keep]
        sel_cols = entry_cols[keep]
        sel_scaled = interior_scaled[:interior_nnz][keep]
        order = np.argsort(sel_cols, kind="stable")  # preserves row order
        sel_rows, sel_cols = sel_rows[order], sel_cols[order]
        sel_scaled = sel_scaled[order]
        # The needed columns may hold no interior entry at all (no later
        # interior row references them); then nothing is selected, and
        # the run detection below would still yield one boundary.
        if sel_cols.size:
            boundaries = np.flatnonzero(
                np.concatenate(([True], sel_cols[1:] != sel_cols[:-1]))
            )
            stops = np.append(boundaries[1:], sel_cols.size)
            for lo, hi in zip(boundaries, stops):
                k = int(sel_cols[lo])
                col_rows[k] = sel_rows[lo:hi].tolist()
                col_scaled[k] = sel_scaled[lo:hi].tolist()

    d: list[float] = [0.0] * n
    d[:border_start] = np.asarray(interior_diag, dtype=np.float64).tolist()
    perturb, out = _factor_rows(
        border_start,
        n,
        np.asarray(pat_indptr, dtype=np.int64).tolist(),
        np.asarray(pat_indices, dtype=np.int64).tolist(),
        lower_w.indptr.tolist(),
        lower_w.indices.tolist(),
        lower_w.data.tolist(),
        w.diagonal().tolist(),
        d,
        floor,
        col_rows,
        col_scaled,
        [-1] * n,
        [0.0] * n,
    )
    return (
        np.asarray(out, dtype=np.float64),
        np.asarray(d[border_start:], dtype=np.float64),
        perturb,
    )


# -- reference backend (the original dict-of-rows implementation) ----------


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
