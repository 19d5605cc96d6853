/* Unit-lower-triangular sparse solve on the CSC arrays PackedUnitLower packs.
 *
 * Solves (I + L) x = b (trans == 0, forward) or (I + L)^T x = b (trans != 0,
 * back) in place, for nrhs Fortran-ordered right-hand sides stored
 * column after column in x.  Diagonal entries in the arrays are skipped.
 * The operation order is that of SuperLU's unit-triangular gstrs sweep, so
 * built without floating-point contraction the results are bitwise equal
 * to it.
 */

void unit_lower_solve(int n, int nrhs, const double *data, const int *indices,
                      const int *indptr, double *x, int trans)
{
    for (int k = 0; k < nrhs; ++k, x += n) {
        if (!trans) {
            for (int j = 0; j < n; ++j) {
                const double xj = x[j];
                for (int p = indptr[j]; p < indptr[j + 1]; ++p)
                    if (indices[p] != j)
                        x[indices[p]] -= xj * data[p];
            }
        } else {
            for (int j = n - 1; j >= 0; --j) {
                double xj = x[j];
                for (int p = indptr[j]; p < indptr[j + 1]; ++p)
                    if (indices[p] != j)
                        xj -= x[indices[p]] * data[p];
                x[j] = xj;
            }
        }
    }
}
