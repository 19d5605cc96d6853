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


def _square_block(
    lower: sp.csr_matrix, start: int, stop: int, cid: int
) -> sp.csr_matrix:
    """One interior cluster's diagonal block of ``L``.

    An interior row's columns all lie in ``[start, row)`` for a factor
    that matches the permutation (Lemma 3), so the block is the row
    range itself with shifted columns; a column left of the block means
    the factors and permutation disagree.
    """
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    a, b = int(indptr[start]), int(indptr[stop])
    cols = indices[a:b]
    if cols.size and int(cols.min()) < start:
        raise ValueError(
            f"cluster {cid} rows of L reference earlier clusters; "
            "factors do not match this permutation"
        )
    return sp.csr_matrix(
        (data[a:b], cols - start, indptr[start : stop + 1] - a),
        shape=(stop - start, stop - start),
    )


def _interior_coupling(
    upper: sp.csr_matrix, sl: slice, border_start: int, cid: int
) -> sp.csr_matrix:
    """One interior cluster's rows of ``U`` restricted to border columns.

    Also enforces the bordered structure: an interior row of ``U`` may
    only reference its own cluster and the border (Lemma 3).
    """
    n = upper.shape[0]
    indptr, indices = upper.indptr, upper.indices
    a, b = int(indptr[sl.start]), int(indptr[sl.stop])
    cols = indices[a:b]
    if np.any((cols >= sl.stop) & (cols < border_start)):
        raise ValueError(
            f"cluster {cid} rows of U reference later interior "
            "clusters; factors do not match this permutation"
        )
    return _csr_column_range(upper, sl.start, sl.stop, border_start, n)


class ClusterSolver:
    """Precomputed per-cluster triangular solvers for one factorization.

    Parameters
    ----------
    factors:
        The :math:`LDL^T` factorization of the permuted system matrix.
    permutation:
        The Algorithm 1 permutation the factors were computed under.

    Every block solves with :mod:`repro.linalg.packed`'s kernel (compiled
    when a C compiler is available, ``gstrs`` otherwise; bitwise equal).
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
        upper = factors.upper.tocsr()
        upper.sort_indices()
        border = permutation.border_slice
        self._border_start = border.start
        self._border_id = permutation.border_cluster
        self._diag = np.asarray(factors.diag, dtype=np.float64)

        # Blocks and couplings are carved out of the factor with raw CSR
        # array surgery (one subarray + mask per cluster) instead of
        # scipy's row-then-column fancy indexing, which dominates index
        # construction time at a hundred-plus clusters.
        self._blocks: list[PackedUnitLower] = []
        self._couplings: list[sp.csr_matrix | None] = []
        for cid, sl in enumerate(permutation.cluster_slices):
            if cid != self._border_id:
                block = _square_block(lower, sl.start, sl.stop, cid)
                self._couplings.append(
                    _interior_coupling(upper, sl, border.start, cid)
                )
            else:
                block = _csr_column_range(
                    lower, border.start, n, border.start, n
                )
                self._couplings.append(None)
            self._blocks.append(PackedUnitLower.from_strict_lower_trusted(block))

        # Border rows' coupling to every earlier column, consumed as one
        # SpMV against z = D y in the forward pass.
        self._border_left = _csr_column_range(
            lower, border.start, n, 0, border.start
        )
        # Whole-factor solver for full solves and the no-sparsity ablation.
        self._full = PackedUnitLower.from_strict_lower_trusted(lower)
        # The interior range [0, c_N) of U is *block diagonal* (interior
        # clusters never couple to each other, Lemma 3), so the no-pruning
        # configuration can score every interior cluster with ONE solve
        # instead of one per cluster — same numbers, none of the per-call
        # overhead.  The per-cluster checks above already guarantee no
        # interior row of L references a column outside [0, border.start).
        interior_nnz = int(lower.indptr[border.start])
        interior_block = sp.csr_matrix(
            (
                lower.data[:interior_nnz],
                lower.indices[:interior_nnz],
                lower.indptr[: border.start + 1],
            ),
            shape=(border.start, border.start),
        )
        self._interior = PackedUnitLower.from_strict_lower_trusted(interior_block)
        self._interior_coupling = _csr_column_range(
            upper, 0, border.start, border.start, n
        )

    @property
    def n(self) -> int:
        """Dimension of the factored system."""
        return self.factors.n

    def _scale(self, z: np.ndarray, sl: slice) -> np.ndarray:
        """``z / D[sl]`` with the diagonal broadcast over RHS columns."""
        d = self._diag[sl]
        return z / (d if z.ndim == 1 else d[:, None])

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
        sl = self.permutation.cluster_slices[cid]
        if cols is None:
            z[sl] = self._blocks[cid].solve_lower(q_vec[sl])
            y[sl] = self._scale(z[sl], sl)
        else:
            z_cols = self._blocks[cid].solve_lower(q_vec[sl.start : sl.stop, cols])
            z[sl.start : sl.stop, cols] = z_cols
            y[sl.start : sl.stop, cols] = z_cols / self._diag[sl][:, None]

    def forward_border(self, q_vec: np.ndarray, z: np.ndarray, y: np.ndarray) -> None:
        """Forward-substitute the border cluster into ``y`` (runs last).

        ``z`` must hold the seed clusters' scaled solutions
        (:meth:`forward_seed_block`); the border coupling consumes them in
        one SpMV shared by every RHS column.
        """
        border = self.permutation.cluster_slices[self._border_id]
        rhs = q_vec[border.start :] - _spmm(self._border_left, z[: border.start])
        z_border = self._blocks[self._border_id].solve_lower(rhs)
        y[border.start :] = self._scale(z_border, slice(border.start, self.n))

    def forward_full(self, q_vec: np.ndarray) -> np.ndarray:
        """Unrestricted forward substitution over all n rows."""
        z = self._full.solve_lower(np.asarray(q_vec, dtype=np.float64))
        return self._scale(z, slice(0, self.n))

    # -- back substitution (paper Eq. 5, Lemma 5) ------------------------

    def back_border(self, y: np.ndarray, x: np.ndarray) -> None:
        """Compute border-cluster scores into ``x`` (must run first)."""
        start = self._border_start
        x[start:] = self._blocks[self._border_id].solve_upper(y[start:])

    def back_cluster(
        self,
        cid: int,
        y: np.ndarray,
        x: np.ndarray,
        cols: np.ndarray | None = None,
    ) -> None:
        """Compute one interior cluster's scores into ``x``.

        ``x`` must already hold valid border scores
        (:meth:`back_border`); interior clusters couple to nothing else
        (Lemma 5), so any subset may be computed in any order.  ``cols``
        restricts a multi-RHS call to a subset of columns — the batched
        engine's bound scan solves a cluster only for the queries whose
        bound survived pruning.
        """
        if cid == self._border_id:
            self.back_border(y, x)
            return
        sl = self.permutation.cluster_slices[cid]
        if cols is None:
            rhs = y[sl] - _spmm(self._couplings[cid], x[self._border_start :])
            x[sl] = self._blocks[cid].solve_upper(rhs)
        else:
            rhs = y[sl.start : sl.stop, cols] - _spmm(
                self._couplings[cid], x[self._border_start :, cols]
            )
            x[sl.start : sl.stop, cols] = self._blocks[cid].solve_upper(rhs)

    def back_all_interior(self, y: np.ndarray, x: np.ndarray) -> None:
        """Compute every interior cluster's scores into ``x`` at once.

        Equivalent to calling :meth:`back_cluster` for all interior
        clusters (the interior block of ``U`` is block diagonal, so the
        joint solve decouples into the per-cluster solves), but pays the
        solver-call overhead once.  ``x`` must already hold valid border
        scores.
        """
        start = self._border_start
        rhs = y[:start] - _spmm(self._interior_coupling, x[start:])
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
