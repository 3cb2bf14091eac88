/* The O(n) loops of cnvfuse: the whole MM fit of the smoothed fused lasso
 * (fused_lasso.solve_mm_tdm and solve_mm_block), whose step is the
 * tridiagonal solve or a block sweep, and the four-class min-plus recursion
 * of DP imputation (dpi.dp_impute). _kernels.py builds this file on first
 * use with -ffp-contract=off and neither -ffast-math nor -march, so that
 * every operation below rounds as written, in the order written: the
 * results are bit for bit those of the numpy and Python references in
 * fused_lasso.py, tests/oracles.py and tests/test_fused_lasso.py.
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

/* Class j's stage costs, as pairwise_sum's terms. */
struct column {
    const struct stage *stage;
    int j;
};

static double column_cost(const void *c, index_t i)
{
    const struct column *col = c;
    return stage_cost(col->stage, col->j, i);
}

/* numpy's pairwise summation (np.sum of a contiguous float64 array, less
 * its 0.0 start) of term(ctx, i) over i = lo..lo+m-1: blocks of up to 128
 * in eight interleaved partial sums, halves above that. */
static double pairwise_sum(double (*term)(const void *, index_t), const void *ctx, index_t lo, index_t m)
{
    if (m < 8) {
        double res = -0.0;
        for (index_t i = 0; i < m; i++)
            res += term(ctx, lo + i);
        return res;
    }
    if (m <= 128) {
        double r[8];
        index_t i;
        for (int k = 0; k < 8; k++)
            r[k] = term(ctx, lo + k);
        for (i = 8; i < m - m % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += term(ctx, lo + i + k);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < m; i++)
            res += term(ctx, lo + i);
        return res;
    }
    index_t half = m / 2;
    half -= half % 8;
    return pairwise_sum(term, ctx, lo, half) + pairwise_sum(term, ctx, lo + half, m - half);
}

static double element(const void *a, index_t i)
{
    return ((const double *)a)[i];
}

/* np.sum(a[0..m-1]) */
static double np_sum(const double *a, index_t m)
{
    return 0.0 + pairwise_sum(element, a, 0, m);
}

/* The elements of one 8 192-element buffer of np.einsum's iterator. */
#define EINSUM_BUFFER 8192

/* np.einsum("i,i->", r, r) of r = y - beta, in numpy 2.4's order on an
 * X86_V2 (SSE) build: within each buffer, two lanes, each block of 8
 * accumulated as four 2-lane multiply-then-add steps, last pair first, a
 * tail of pairs, and the lanes added at the end; the buffers' sums are
 * added in order into 0.0. A numpy with another baseline (AVX2's four
 * lanes, aarch64's fused multiply-add) sums in another order, and the
 * objective tests then fail. */
static double einsum_sum_of_squares(const double *y, const double *beta, index_t n)
{
    double total = 0.0;
    for (index_t lo = 0; lo < n; lo += EINSUM_BUFFER) {
        index_t m = n - lo < EINSUM_BUFFER ? n - lo : EINSUM_BUFFER, i = 0;
        const double *a = y + lo, *b = beta + lo;
        double lane[2] = {0.0, 0.0};
        for (; i + 8 <= m; i += 8)
            for (int k = 6; k >= 0; k -= 2)
                for (int l = 0; l < 2; l++) {
                    double r = a[i + k + l] - b[i + k + l];
                    lane[l] = r * r + lane[l];
                }
        /* numpy pads an odd tail with a zero, whose square adds nothing */
        for (; i < m; i++) {
            double r = a[i] - b[i];
            lane[i % 2] = r * r + lane[i % 2];
        }
        total = total + (lane[0] + lane[1]);
    }
    return total;
}

/* fused_lasso.objective at beta (n >= 1): the smoothed criterion
 *     0.5 * (y - beta).(y - beta) + lambda1 * sum ||beta_i||
 *                                 + lambda2 * sum ||beta_{i+1} - beta_i||
 * with ||x|| = sqrt(x^2 + epsilon). norms receives the n + n - 1 smoothed
 * norms, which the surrogate at beta reads. */
double cnv_objective(index_t n, const double *y, const double *beta, double lambda1, double lambda2,
                     double epsilon, double *norms)
{
    double *norm1 = norms, *norm2 = norms + n;
    double value = 0.5 * einsum_sum_of_squares(y, beta, n);
    for (index_t i = 0; i < n; i++)
        norm1[i] = sqrt(beta[i] * beta[i] + epsilon);
    for (index_t i = 0; i < n - 1; i++) {
        double d = beta[i + 1] - beta[i];
        norm2[i] = sqrt(d * d + epsilon);
    }
    value += lambda1 * np_sum(norm1, n);
    value += lambda2 * np_sum(norm2, n - 1);
    return value;
}

/* fused_lasso.build_surrogate from the norms at the expansion point:
 * off_i = -(lambda2 / ||delta_i||) and diag_i = ((1 + lambda1 / ||beta_i||)
 * + w_i) + w_{i-1}, with w_i = -off_i for each adjacent difference; x - off
 * is x + w exactly. The right-hand side is y itself. */
static void build_surrogate(index_t n, double lambda1, double lambda2, const double *norm1,
                            const double *norm2, double *diag, double *off)
{
    for (index_t i = 0; i < n - 1; i++)
        off[i] = -(lambda2 / norm2[i]);
    diag[0] = (1.0 + lambda1 / norm1[0]) - off[0];
    for (index_t i = 1; i < n - 1; i++)
        diag[i] = ((1.0 + lambda1 / norm1[i]) - off[i]) - off[i - 1];
    diag[n - 1] = (1.0 + lambda1 / norm1[n - 1]) - off[n - 2];
}

/* The step of solve_mm_block: odd-indexed coordinates minimize the
 * surrogate given their neighbours, then even-indexed ones, each as
 * ((rhs_i - sub_i * left_i) - sup_i * right_i) / diag_i with zeros past
 * either end. */
static void block_sweep(index_t n, const double *diag, const double *off, const double *rhs, double *beta)
{
    for (index_t first = 1; first >= 0; first--)
        for (index_t i = first; i < n; i += 2) {
            double sub = i > 0 ? off[i - 1] : 0.0, left = i > 0 ? beta[i - 1] : 0.0;
            double sup = i + 1 < n ? off[i] : 0.0, right = i + 1 < n ? beta[i + 1] : 0.0;
            beta[i] = ((rhs[i] - sub * left) - sup * right) / diag[i];
        }
}

/* Up to budget MM iterations from the iterate beta (n >= 2), whose
 * objective is trace[0] and whose norms cnv_objective left at the start of
 * work (5n - 2 doubles: the norms, then the surrogate's diagonal and
 * off-diagonal and the solve's ratios). Each iteration builds the surrogate
 * at beta, replaces beta by its exact solve (cnv_thomas) or, with block
 * set, by one block sweep, writes the objective at the new beta into
 * trace[k] and stops once trace[k - 1] - trace[k] < tol. Returns the
 * iterations run, or -1 - row when the solve meets a zero pivot at row. */
index_t cnv_mm(index_t n, const double *y, double lambda1, double lambda2, double epsilon, double tol,
               int block, index_t budget, double *beta, double *work, double *trace)
{
    double *norm1 = work, *norm2 = norm1 + n, *diag = norm2 + n - 1, *off = diag + n, *ratio = off + n - 1;
    for (index_t k = 1; k <= budget; k++) {
        build_surrogate(n, lambda1, lambda2, norm1, norm2, diag, off);
        if (block) {
            block_sweep(n, diag, off, y, beta);
        } else {
            index_t row = cnv_thomas(n, diag, off, y, beta, ratio);
            if (row >= 0)
                return -1 - row;
        }
        trace[k] = cnv_objective(n, y, beta, lambda1, lambda2, epsilon, work);
        if (trace[k - 1] - trace[k] < tol)
            return k;
    }
    return budget;
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
    for (int j = 0; j < 4; j++) {
        const struct column col = {&st, j};
        total = total + pairwise_sum(column_cost, &col, 0, n);
    }
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
