"""Per-cluster packed substitution engine — the production tier of Lemmas 4/5.

Algorithm 2 only ever solves triangular systems restricted to whole
clusters: the query cluster and the border for the forward pass (Lemma 4),
the border first and then arbitrary clusters for the backward pass
(Lemma 5).  :class:`ClusterSolver` exploits that by slicing the factor
**once per index build** into per-cluster blocks, each packed for repeated
compiled solves (:class:`repro.linalg.PackedUnitLower`), so a query never
touches scipy's slicing or per-call solver setup.

The diagonal scaling trick: with :math:`L' = LD` (paper Eq. 4) and
:math:`z = Dy`, forward substitution becomes the *unit*-lower solve
:math:`(I + L_{strict})\\,z = q` followed by ``y = z / d`` — and the border
coupling term :math:`\\sum_j L_{ij} D_{jj} y_j` is simply ``L[border,
earlier] @ z``.  Back substitution on :math:`U = L^T` uses the transposed
operator of the very same packed blocks, so each cluster is packed exactly
once and serves both directions.

Structure requirements (checked at construction): the factor must be
bordered block diagonal w.r.t. the permutation's clusters — interior
cluster rows of ``L`` may only reference columns inside their own cluster,
and interior cluster rows of ``U`` only their own cluster plus the border.
Both Incomplete Cholesky (pattern = W's pattern, Lemma 3) and Modified
Cholesky (fill-in stays inside a cluster's block and the border, §4.6.1)
satisfy this for factors produced from the matching permutation.

Every substitution method accepts either a single ``(n,)`` vector or an
``(n, b)`` matrix whose columns are independent right-hand sides — the
multi-RHS form the batched query engine (:mod:`repro.core.batch`) runs
on.  Each column of a multi-RHS solve is bitwise identical to the
corresponding single-RHS call, so batching never changes answers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.bounds import span_bounds
from repro.core.permutation import Permutation
from repro.linalg.ldl import LDLFactors
from repro.linalg.packed import PackedUnitLower

try:  # pragma: no cover - exercised implicitly by every query
    from scipy.sparse import _sparsetools

    HAVE_SPARSETOOLS = True
except ImportError:  # pragma: no cover - depends on scipy build
    HAVE_SPARSETOOLS = False


def _spmm(matrix: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """``matrix @ dense`` through the raw CSR kernel.

    Query-time coupling products are many small SpMVs; scipy's ``@``
    spends more time in dispatch than in the kernel at that size.  This
    calls the *same* compiled kernel scipy dispatches to (``csr_matvec``
    / ``csr_matvecs``), so results are bitwise identical, minus the
    per-call overhead.  Falls back to ``@`` when the private module is
    unavailable.
    """
    if not HAVE_SPARSETOOLS:  # pragma: no cover - depends on scipy build
        return matrix @ dense
    n_rows, n_cols = matrix.shape
    if dense.ndim == 1:
        out = np.zeros(n_rows, dtype=np.float64)
        _sparsetools.csr_matvec(
            n_rows,
            n_cols,
            matrix.indptr,
            matrix.indices,
            matrix.data,
            np.ascontiguousarray(dense),
            out,
        )
        return out
    out = np.zeros((n_rows, dense.shape[1]), dtype=np.float64)
    _sparsetools.csr_matvecs(
        n_rows,
        n_cols,
        dense.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        np.ascontiguousarray(dense).ravel(),
        out.ravel(),
    )
    return out


def _csr_column_range(
    matrix: sp.csr_matrix,
    row_start: int,
    row_stop: int,
    col_start: int,
    col_stop: int,
) -> sp.csr_matrix:
    """``matrix[row_start:row_stop, col_start:col_stop]`` via array surgery.

    One subarray slice plus one boolean mask over the row range's
    entries — equivalent to scipy's chained row/column fancy indexing,
    minus the intermediate matrix and its format validation.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    a, b = int(indptr[row_start]), int(indptr[row_stop])
    n_rows = row_stop - row_start
    cols = indices[a:b]
    mask = (cols >= col_start) & (cols < col_stop)
    row_ids = np.repeat(
        np.arange(n_rows, dtype=np.int64),
        np.diff(indptr[row_start : row_stop + 1]),
    )
    counts = np.bincount(row_ids[mask], minlength=n_rows)
    out_indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=out_indptr[1:])
    return sp.csr_matrix(
        (data[a:b][mask], cols[mask] - col_start, out_indptr),
        shape=(n_rows, col_stop - col_start),
    )


def _csr_rows(matrix: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """``matrix[start:stop]`` as views of its arrays (columns unchanged)."""
    indptr = matrix.indptr
    a, b = int(indptr[start]), int(indptr[stop])
    return sp.csr_matrix(
        (matrix.data[a:b], matrix.indices[a:b], indptr[start : stop + 1] - a),
        shape=(stop - start, matrix.shape[1]),
    )


def span_coupling(
    border_rows: sp.csr_matrix, start: int, stop: int
) -> sp.csr_matrix:
    """``U[start:stop, border]``, the back pass's coupling to the border.

    One transpose of the border rows' columns ``[start, stop)``: the
    same floats in the same per-row (ascending border column) order as
    carving ``U`` itself, so the coupling SpMVs are bitwise equal.
    """
    n_border = border_rows.shape[0]
    coupling = _csr_column_range(border_rows, 0, n_border, start, stop).T.tocsr()
    coupling.sort_indices()
    return coupling


class ClusterSpan:
    """A contiguous run of interior clusters, carved for query time.

    Parameters
    ----------
    rows:
        The span's rows of the strict lower factor ``L`` (CSR, global
        columns), starting at position ``span_start``.
    span_start:
        The span's first position.
    cluster_slices:
        The span's interior clusters, in order.
    border_rows:
        The border rows of ``L`` (CSR, global columns).
    diag:
        The whole factor's ``D``.

    Per cluster it holds the packed diagonal block of ``L`` (both
    directions solve on it), the coupling ``U[cluster, border]`` (row
    ranges of the span's one :func:`span_coupling`) and the bound data
    of :func:`repro.core.bounds.span_bounds`.  The flat
    :class:`ClusterSolver` is the span of every interior cluster; a
    shard of :class:`repro.core.ShardedMogulIndex` is the span of its
    own, so both solve with the same kernels on the same carve.
    Cluster ids in the methods count from the span's first cluster.
    """

    def __init__(
        self,
        rows: sp.csr_matrix,
        span_start: int,
        cluster_slices: tuple[slice, ...],
        border_rows: sp.csr_matrix,
        diag: np.ndarray,
    ):
        n_border, n = border_rows.shape
        self.cluster_slices = cluster_slices
        self._border_start = border_start = n - n_border
        self._diag = diag
        # An interior row's columns all lie in [start, row) when the
        # factor matches the permutation (Lemma 3), so each block is its
        # row range with shifted columns; a column left of the block
        # means the factors and permutation disagree.
        indptr, indices, data = rows.indptr, rows.indices, rows.data
        self.blocks: list[PackedUnitLower] = []
        for sl in cluster_slices:
            lo, hi = sl.start - span_start, sl.stop - span_start
            a, b = int(indptr[lo]), int(indptr[hi])
            cols = indices[a:b]
            if cols.size and int(cols.min()) < sl.start:
                raise ValueError(
                    f"rows [{sl.start}, {sl.stop}) of L reference earlier "
                    "clusters; factors do not match this permutation"
                )
            block = sp.csr_matrix(
                (data[a:b], cols - sl.start, indptr[lo : hi + 1] - a),
                shape=(sl.stop - sl.start, sl.stop - sl.start),
            )
            self.blocks.append(PackedUnitLower.from_strict_lower_trusted(block))
        span_stop = span_start + rows.shape[0]
        self.coupling = span_coupling(border_rows, span_start, span_stop)
        self.couplings = [
            _csr_rows(self.coupling, sl.start - span_start, sl.stop - span_start)
            for sl in cluster_slices
        ]
        self.bounds = span_bounds(
            rows, span_start, cluster_slices, self.coupling, border_start
        )

    def _scale(self, z: np.ndarray, sl: slice) -> np.ndarray:
        """``z / D[sl]`` with the diagonal broadcast over RHS columns."""
        d = self._diag[sl]
        return z / (d if z.ndim == 1 else d[:, None])

    def forward_seed_block(
        self,
        cid: int,
        q_vec: np.ndarray,
        z: np.ndarray,
        y: np.ndarray,
        cols: np.ndarray | None = None,
    ) -> None:
        """Forward-substitute one interior seed cluster into ``z`` and ``y``.

        ``cols`` restricts a multi-RHS call to a subset of columns (the
        batched engine solves each seed cluster only for the queries
        seeded there; the untouched columns keep their exact zeros).
        """
        sl = self.cluster_slices[cid]
        if cols is None:
            z[sl] = self.blocks[cid].solve_lower(q_vec[sl])
            y[sl] = self._scale(z[sl], sl)
        else:
            z_cols = self.blocks[cid].solve_lower(q_vec[sl.start : sl.stop, cols])
            z[sl.start : sl.stop, cols] = z_cols
            y[sl.start : sl.stop, cols] = z_cols / self._diag[sl][:, None]

    def back_cluster(
        self,
        cid: int,
        y: np.ndarray,
        x: np.ndarray,
        cols: np.ndarray | None = None,
    ) -> None:
        """Compute one interior cluster's scores into ``x``.

        ``x`` must already hold valid border scores
        (:meth:`BorderSolver.back`); interior clusters couple to nothing
        else (Lemma 5), so any subset may be computed in any order.
        ``cols`` restricts a multi-RHS call to a subset of columns — the
        batched engine's bound scan solves a cluster only for the queries
        whose bound survived pruning.
        """
        sl = self.cluster_slices[cid]
        if cols is None:
            rhs = y[sl] - _spmm(self.couplings[cid], x[self._border_start :])
            x[sl] = self.blocks[cid].solve_upper(rhs)
        else:
            rhs = y[sl.start : sl.stop, cols] - _spmm(
                self.couplings[cid], x[self._border_start :, cols]
            )
            x[sl.start : sl.stop, cols] = self.blocks[cid].solve_upper(rhs)


class BorderSolver:
    """The border cluster's two solves, shared by every query of a batch.

    Forward substitution runs it last (its rows couple to every earlier
    column, consumed as one SpMV against ``z = D y``); back substitution
    runs it first (its rows of ``U`` couple to nothing after it).
    """

    def __init__(self, border_rows: sp.csr_matrix, diag: np.ndarray):
        n_border, n = border_rows.shape
        self.start = start = n - n_border
        self.block = PackedUnitLower.from_strict_lower_trusted(
            _csr_column_range(border_rows, 0, n_border, start, n)
        )
        self.left = _csr_column_range(border_rows, 0, n_border, 0, start)
        self._diag = diag[start:]

    def forward(self, q_vec: np.ndarray, z: np.ndarray, y: np.ndarray) -> None:
        """Forward-substitute the border into ``y``, given the seeds' ``z``."""
        start = self.start
        rhs = q_vec[start:] - _spmm(self.left, z[:start])
        z_border = self.block.solve_lower(rhs)
        d = self._diag
        y[start:] = z_border / (d if z_border.ndim == 1 else d[:, None])

    def back(self, y: np.ndarray, x: np.ndarray) -> None:
        """Compute the border scores into ``x`` (the back pass's first step)."""
        x[self.start :] = self.block.solve_upper(y[self.start :])


class ClusterSolver(ClusterSpan):
    """Precomputed per-cluster triangular solvers for one factorization.

    Parameters
    ----------
    factors:
        The :math:`LDL^T` factorization of the permuted system matrix.
    permutation:
        The Algorithm 1 permutation the factors were computed under.

    The :class:`ClusterSpan` of every interior cluster plus the
    :class:`BorderSolver`.  Every block solves with
    :mod:`repro.linalg.packed`'s kernel (compiled when a C compiler is
    available, ``gstrs`` otherwise; bitwise equal).
    """

    def __init__(
        self,
        factors: LDLFactors,
        permutation: Permutation,
    ):
        if factors.n != permutation.n_nodes:
            raise ValueError(
                f"factors are {factors.n}x{factors.n} but the permutation "
                f"covers {permutation.n_nodes} nodes"
            )
        self.factors = factors
        self.permutation = permutation
        n = factors.n
        lower = factors.lower.tocsr()
        lower.sort_indices()
        border_start = permutation.border_slice.start
        self._border_id = permutation.border_cluster
        diag = np.asarray(factors.diag, dtype=np.float64)
        border_rows = _csr_rows(lower, border_start, n)
        super().__init__(
            _csr_rows(lower, 0, border_start),
            0,
            permutation.cluster_slices[:-1],
            border_rows,
            diag,
        )
        self.border = BorderSolver(border_rows, diag)
        # Whole-factor solver for full solves and the no-sparsity ablation.
        self._full = PackedUnitLower.from_strict_lower_trusted(lower)
        # The interior range [0, c_N) of U is *block diagonal* (interior
        # clusters never couple to each other, Lemma 3), so the no-pruning
        # configuration can score every interior cluster with ONE solve
        # instead of one per cluster — same numbers, none of the per-call
        # overhead.  The per-cluster checks above already guarantee no
        # interior row of L references a column outside [0, border_start).
        interior_nnz = int(lower.indptr[border_start])
        interior_block = sp.csr_matrix(
            (
                lower.data[:interior_nnz],
                lower.indices[:interior_nnz],
                lower.indptr[: border_start + 1],
            ),
            shape=(border_start, border_start),
        )
        self._interior = PackedUnitLower.from_strict_lower_trusted(interior_block)

    @property
    def n(self) -> int:
        """Dimension of the factored system."""
        return self.factors.n

    # -- forward substitution (paper Eq. 4, Lemma 4) ---------------------

    def forward(self, q_vec: np.ndarray, seed_clusters: Iterable[int]) -> np.ndarray:
        """Solve :math:`(LD)\\,y = q` restricted to seed clusters + border.

        ``q_vec`` must be zero outside the seed clusters (Lemma 4's
        premise); every row of ``y`` outside the seeds and the border is
        provably zero and is never touched.  ``q_vec`` may be ``(n,)`` or
        ``(n, b)``; a multi-RHS call requires all columns to share the
        same seed clusters (the batched engine groups queries to
        guarantee this, see :meth:`forward_seed_block` /
        :meth:`forward_border` for the split form it uses).
        """
        q_vec = np.asarray(q_vec, dtype=np.float64)
        z = np.zeros(q_vec.shape, dtype=np.float64)
        y = np.zeros(q_vec.shape, dtype=np.float64)
        for cid in seed_clusters:
            if cid != self._border_id:
                self.forward_seed_block(cid, q_vec, z, y)
        self.forward_border(q_vec, z, y)
        return y

    def forward_border(self, q_vec: np.ndarray, z: np.ndarray, y: np.ndarray) -> None:
        """Forward-substitute the border cluster into ``y`` (runs last).

        ``z`` must hold the seed clusters' scaled solutions
        (:meth:`forward_seed_block`); the border coupling consumes them in
        one SpMV shared by every RHS column.
        """
        self.border.forward(q_vec, z, y)

    def forward_full(self, q_vec: np.ndarray) -> np.ndarray:
        """Unrestricted forward substitution over all n rows."""
        z = self._full.solve_lower(np.asarray(q_vec, dtype=np.float64))
        return self._scale(z, slice(0, self.n))

    # -- back substitution (paper Eq. 5, Lemma 5) ------------------------

    def back_border(self, y: np.ndarray, x: np.ndarray) -> None:
        """Compute border-cluster scores into ``x`` (must run first)."""
        self.border.back(y, x)

    def back_all_interior(self, y: np.ndarray, x: np.ndarray) -> None:
        """Compute every interior cluster's scores into ``x`` at once.

        Equivalent to calling :meth:`back_cluster` for all interior
        clusters (the interior block of ``U`` is block diagonal, so the
        joint solve decouples into the per-cluster solves), but pays the
        solver-call overhead once.  ``x`` must already hold valid border
        scores.
        """
        start = self._border_start
        rhs = y[:start] - _spmm(self.coupling, x[start:])
        x[:start] = self._interior.solve_upper(rhs)

    def back_full(self, y: np.ndarray) -> np.ndarray:
        """Unrestricted back substitution over all n rows."""
        return self._full.solve_upper(np.asarray(y, dtype=np.float64))

    # -- convenience ------------------------------------------------------

    def solve(self, q_vec: np.ndarray) -> np.ndarray:
        """Full :math:`LDL^T x = q` solve (both passes, all rows)."""
        return self.back_full(self.forward_full(q_vec))

    def solve_restricted(
        self, q_vec: np.ndarray, seed_clusters: Sequence[int], clusters: Sequence[int]
    ) -> np.ndarray:
        """Scores for selected ``clusters`` given seeds (Lemmas 4+5 chained).

        Returns a full-length vector with valid entries for the requested
        clusters and the border, zeros elsewhere.
        """
        y = self.forward(q_vec, seed_clusters)
        x = np.zeros(self.n, dtype=np.float64)
        self.back_border(y, x)
        for cid in clusters:
            if cid != self._border_id:
                self.back_cluster(cid, y, x)
        return x
