/* The two O(n) loops of cnvfuse: the tridiagonal solve of each MM step
 * (fused_lasso.thomas_solve) and the four-class min-plus recursion of DP
 * imputation (dpi.dp_impute). _kernels.py builds this file on first use
 * with -ffp-contract=off, so that every operation below rounds as written,
 * in the order written: the results are bit for bit those of the Python
 * references in tests/oracles.py and tests/test_fused_lasso.py.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef ptrdiff_t index_t;

/* Pivots below this signal a non-SPD system rather than roundoff. */
#define PIVOT_FLOOR 1e-300

/* Solve the symmetric tridiagonal system with diagonal diag[0..n-1],
 * off-diagonal off[0..n-2] and right-hand side rhs into x, by forward
 * elimination and back substitution; ratio[0..n-1] holds the forward
 * sweep's c_i / pivot_i. Returns -1, or the row of the first pivot whose
 * magnitude is below PIVOT_FLOOR (nothing is solved then). Row i's
 * sub-diagonal entry is row i - 1's super-diagonal one; row 0 takes the
 * general step with zeros for it and the carried terms, which leaves its
 * pivot b_0 exactly. */
index_t cnv_thomas(index_t n, const double *diag, const double *off, const double *rhs, double *x,
                   double *ratio)
{
    double a = 0.0, c_prev = 0.0, d_prev = 0.0;
    for (index_t i = 0; i < n; i++) {
        double c = i + 1 < n ? off[i] : 0.0;
        double piv = diag[i] - a * c_prev;
        if (-PIVOT_FLOOR < piv && piv < PIVOT_FLOOR)
            return i;
        c_prev = c / piv;
        d_prev = (rhs[i] - a * d_prev) / piv;
        a = c;
        ratio[i] = c_prev;
        x[i] = d_prev;
    }
    for (index_t i = n - 2; i >= 0; i--)
        x[i] = x[i] - ratio[i] * x[i + 1];
    return -1;
}

/* Stage cost of copy class j at position i: ((y - mu_j)^2 + alpha * l2_j)
 * + lambda1 * |mu_j|, the last term passed in as lasso[j]. */
struct stage {
    index_t n;
    const double *logr, *losses, *mu, *lasso;
    double alpha;
};

static double stage_cost(const struct stage *s, int j, index_t i)
{
    double r = s->logr[i] - s->mu[j];
    return (r * r + s->alpha * s->losses[j * s->n + i]) + s->lasso[j];
}

/* numpy's pairwise summation (np.sum of a contiguous float64 array) of
 * class j's stage costs at positions lo..lo+m-1: blocks of up to 128 in
 * eight interleaved partial sums, halves above that. */
static double pairwise_sum(const struct stage *s, int j, index_t lo, index_t m)
{
    if (m < 8) {
        double res = -0.0;
        for (index_t i = 0; i < m; i++)
            res += stage_cost(s, j, lo + i);
        return res;
    }
    if (m <= 128) {
        double r[8];
        index_t i;
        for (int k = 0; k < 8; k++)
            r[k] = stage_cost(s, j, lo + k);
        for (i = 8; i < m - m % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += stage_cost(s, j, lo + i + k);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < m; i++)
            res += stage_cost(s, j, lo + i);
        return res;
    }
    index_t half = m / 2;
    half -= half % 8;
    return pairwise_sum(s, j, lo, half) + pairwise_sum(s, j, lo + half, m - half);
}

/* Exact minimum of the four-class recursion
 *     g_j(i) = min_k (g_k(i - 1) + pen[k][j]) + stage_j(i)
 * over positions 0..n-1 (n >= 1), where pen (row-major 4 x 4) is a line
 * metric lambda2 * |mu_j - mu_k| and losses (row-major 4 x n) holds each
 * class's least BAF loss. Each minimum is taken with strict <, so the
 * lowest class wins ties, and so does the last position's class. Writes
 * into out[i] the TEN_STATES index of position i's state on the path,
 * the genotype picks[c][i] of its class c, and returns the minimum.
 *
 * Leader test: if g_k > g_L + pen[L][k] for every k != L, the triangle
 * inequality of the metric gives g_k + pen[k][j] > g_L + pen[L][j] for
 * every j, so L is the strict best predecessor of all four classes and
 * the step needs no comparison. delta covers the rounding of the compared
 * sums: every g is at most the sum of all stage costs (a single-class path
 * costs no more). An inf stage cost makes delta inf, and then no test
 * passes. The leader's own step leaves out pen[L][L] = 0.0, as g + 0.0 ==
 * g for every g here (none is -0.0). L is the lowest class with the least
 * g after the last full step.
 *
 * Until the traceback, out[i - 1] holds the best predecessor of each class
 * at position i, class j's in bits 2j..2j+1. */
double cnv_min_plus_path(index_t n, const double *logr, const double *losses,
                         const uint8_t *picks, const double *mu, double alpha, double lambda1,
                         const double *pen, int64_t *out)
{
    double lasso[4], q[16], g[4], next[4], s[4];
    for (int j = 0; j < 4; j++)
        lasso[j] = lambda1 * fabs(mu[j]);
    const struct stage st = {n, logr, losses, mu, lasso, alpha};

    double total = 0.0, top = pen[0];
    for (int j = 0; j < 4; j++)
        total = total + pairwise_sum(&st, j, 0, n);
    for (int k = 1; k < 16; k++)
        top = pen[k] > top ? pen[k] : top;
    double delta = 1e-12 * (total + top);
    for (int k = 0; k < 16; k++)
        q[k] = pen[k] + delta;

    for (int j = 0; j < 4; j++)
        g[j] = stage_cost(&st, j, 0);
    int lead = 2;
    for (index_t i = 1; i < n; i++) {
        for (int j = 0; j < 4; j++)
            s[j] = stage_cost(&st, j, i);
        const double *p = pen + 4 * lead, *pq = q + 4 * lead;
        double gl = g[lead];
        int pinned = 1;
        for (int k = 0; k < 4; k++)
            if (k != lead && !(g[k] > gl + pq[k]))
                pinned = 0;
        if (pinned) {
            for (int k = 0; k < 4; k++)
                g[k] = k == lead ? gl + s[k] : (gl + p[k]) + s[k];
            out[i - 1] = 85 * lead;
            continue;
        }
        int64_t packed = 0;
        for (int j = 0; j < 4; j++) {
            double best = g[0] + pen[j];
            int arg = 0;
            for (int k = 1; k < 4; k++) {
                double v = g[k] + pen[4 * k + j];
                if (v < best) {
                    best = v;
                    arg = k;
                }
            }
            next[j] = best + s[j];
            packed |= (int64_t)arg << 2 * j;
        }
        out[i - 1] = packed;
        lead = 0;
        for (int j = 0; j < 4; j++) {
            g[j] = next[j];
            if (g[j] < g[lead])
                lead = j;
        }
    }

    int c = 0;
    for (int j = 1; j < 4; j++)
        if (g[j] < g[c])
            c = j;
    double objective = g[c];
    /* class c's genotypes start at TEN_STATES index c * (c + 1) / 2 */
    out[n - 1] = c * (c + 1) / 2 + picks[c * n + n - 1];
    for (index_t i = n - 2; i >= 0; i--) {
        c = (int)(out[i] >> 2 * c & 3);
        out[i] = c * (c + 1) / 2 + picks[c * n + i];
    }
    return objective;
}
