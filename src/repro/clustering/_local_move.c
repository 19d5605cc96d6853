/* One level of Louvain's greedy local move over a CSR graph.
 *
 * The compiled form of the Python sweep in louvain.py: nodes are visited in
 * `order`, pass after pass, until a pass moves none (at most n passes).
 * Each visit accumulates the node's edge weight per neighbouring community
 * into the dense scratch `acc`, remembering the communities in first-touch
 * order in `touched`, and moves the node to the community with the largest
 * gain acc[c] - resolution * ki * comm_tot[c] / two_m, a candidate winning
 * only when gain > best_gain + tol.  The expressions are the Python ones in
 * the same order, so built without floating-point contraction the labels
 * are bitwise equal to it.  acc[c] == 0.0 means "not touched yet", which
 * holds because every weight is strictly positive.
 *
 * `comm` (labels, initially 0..n-1), `comm_tot` (initially the degrees)
 * and `acc` (initially zero, left zero) are updated in place; `touched`
 * needs room for the longest row.  Returns 1 if any node moved.
 */

#include <stdint.h>

int local_move(int64_t n, const int64_t *indptr, const int64_t *indices,
               const double *data, const double *degrees, double two_m,
               double resolution, double tol, const int64_t *order,
               int64_t *comm, double *comm_tot, double *acc, int64_t *touched)
{
    int improved_any = 0;
    for (int64_t pass = 0; pass < n; ++pass) {
        int64_t moved = 0;
        for (int64_t t = 0; t < n; ++t) {
            const int64_t i = order[t];
            const int64_t ci = comm[i];
            const double ki = degrees[i];
            int64_t n_touched = 0;
            for (int64_t p = indptr[i]; p < indptr[i + 1]; ++p) {
                const int64_t j = indices[p];
                if (j == i)
                    continue;
                const int64_t cj = comm[j];
                if (acc[cj] == 0.0)
                    touched[n_touched++] = cj;
                acc[cj] += data[p];
            }
            comm_tot[ci] -= ki;
            int64_t best_c = ci;
            double best_gain = acc[ci] - resolution * ki * comm_tot[ci] / two_m;
            for (int64_t s = 0; s < n_touched; ++s) {
                const int64_t c = touched[s];
                if (c == ci)
                    continue;
                const double gain = acc[c] - resolution * ki * comm_tot[c] / two_m;
                if (gain > best_gain + tol) {
                    best_gain = gain;
                    best_c = c;
                }
            }
            for (int64_t s = 0; s < n_touched; ++s)
                acc[touched[s]] = 0.0;
            comm_tot[best_c] += ki;
            if (best_c != ci) {
                comm[i] = best_c;
                ++moved;
            }
        }
        if (moved == 0)
            break;
        improved_any = 1;
    }
    return improved_any;
}
