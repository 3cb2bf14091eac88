/* The O(n) loops of cnvfuse: the whole MM fit of the smoothed fused lasso
 * (fused_lasso.solve_mm_tdm and solve_mm_block), whose step is the
 * tridiagonal solve or a block sweep, the four-class min-plus recursion
 * of DP imputation (dpi.dp_impute), and the CLI's per-SNP text: the reader
 * of a track file's blocks of lines (cnv_parse_block, for
 * cli.read_track_file) and the writer of segment-dpi's rows
 * (cnv_dpi_rows). _kernels.py builds this file on first use with
 * -ffp-contract=off and neither -ffast-math nor -march, so that every
 * operation below rounds as written, in the order written: the results
 * are bit for bit those of the numpy and Python references in
 * fused_lasso.py, tests/oracles.py and tests/test_fused_lasso.py, and the
 * reader's numbers are those of Python's int() and float().
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* numpy's pairwise summation (np.sum of a contiguous float64 array, less
 * its 0.0 start) of a[0..m-1]: blocks of up to 128 in eight interleaved
 * partial sums, halves above that. cnv_objective sums its norms with it. */
static double pairwise_sum(const double *a, index_t m)
{
    if (m < 8) {
        double res = -0.0;
        for (index_t i = 0; i < m; i++)
            res += a[i];
        return res;
    }
    if (m <= 128) {
        double r[8];
        index_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < m - m % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < m; i++)
            res += a[i];
        return res;
    }
    index_t half = m / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, m - half);
}

/* np.sum(a[0..m-1]) */
static double np_sum(const double *a, index_t m)
{
    return 0.0 + pairwise_sum(a, m);
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
 * sums: every g is at most U, the sum of all stage costs (a single-class
 * path costs no more). As delta is a bound, U's order of summation is free:
 * a g + p addition rounds by a few ulps of U + max p, which 1e-12 times that
 * clears by about four orders of magnitude, and any order moves U by at most
 * a relative n * DBL_EPSILON (under 2e-10 at n = 1e6). An inf stage cost
 * makes delta inf, and then no test passes. The leader's own step leaves
 * out pen[L][L] = 0.0, as g + 0.0 == g for every g here (none is -0.0). L
 * is the lowest class with the least g after the last full step.
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

    double sums[4] = {0.0, 0.0, 0.0, 0.0}, top = pen[0];
    for (index_t i = 0; i < n; i++)
        for (int j = 0; j < 4; j++)
            sums[j] += stage_cost(&st, j, i);
    for (int k = 1; k < 16; k++)
        top = pen[k] > top ? pen[k] : top;
    double delta = 1e-12 * (((sums[0] + sums[1]) + (sums[2] + sums[3])) + top);
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

/* Exact powers of ten: 10^22 is the largest that a double holds exactly. */
static const double POW10[23] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                 1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* Longest number that goes to strtod; a longer one refuses its block. */
#define NUMBER_MAX 512

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* Reads the longest prefix of s[0..end - s - 1] under the grammar
 * [+-]?digits and stores its int() into *out, any negative value as -1.
 * Returns the end of the prefix, or NULL when there is none or its value
 * is above 2**63 - 1. */
static const char *parse_position(const char *s, const char *end, int64_t *out)
{
    int negative = s < end && *s == '-';
    if (s < end && (*s == '+' || *s == '-'))
        s++;
    if (s == end || !is_digit(*s))
        return NULL;
    uint64_t v = 0;
    for (; s < end && is_digit(*s); s++) {
        uint64_t d = (uint64_t)(*s - '0');
        if (negative)
            v |= d;
        else if (v > ((uint64_t)INT64_MAX - d) / 10)
            return NULL;
        else
            v = v * 10 + d;
    }
    *out = negative ? (v ? -1 : 0) : (int64_t)v;
    return s;
}

/* Reads the longest prefix of s[0..end - s - 1] under the grammar
 * [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? and stores its float() into *out.
 * Returns the end of the prefix, or NULL when there is none, or when
 * strtod, which reads the decimal point of the C library's locale, does
 * not take all of it.
 *
 * Both ways round correctly, so the bits are float()'s. With at most 15
 * significant digits w and a power of ten 10^e with |e| <= 22, w and 10^e
 * are doubles exactly, and w * 10^e or w / 10^-e is one correctly rounded
 * operation (Clinger 1990). Every other number goes to glibc's strtod,
 * which rounds correctly, subnormals and overflow to inf included. */
static const char *parse_number(const char *s, const char *end, double *out)
{
    const char *at = s;
    int negative = at < end && *at == '-';
    if (at < end && (*at == '+' || *at == '-'))
        at++;
    /* the digits from the first nonzero one are significant; w holds them
     * exactly while there are at most 19, and is only read for at most 15 */
    uint64_t w = 0;
    int64_t significant = 0, fraction = 0, digits = 0, exponent = 0;
    for (; at < end && is_digit(*at); at++, digits++) {
        w = w * 10 + (uint64_t)(*at - '0');
        significant += w != 0;
    }
    if (at < end && *at == '.')
        for (at++; at < end && is_digit(*at); at++, digits++, fraction++) {
            w = w * 10 + (uint64_t)(*at - '0');
            significant += w != 0;
        }
    if (!digits)
        return NULL;
    if (at < end && (*at == 'e' || *at == 'E')) {
        at++;
        int exp_negative = at < end && *at == '-';
        if (at < end && (*at == '+' || *at == '-'))
            at++;
        if (at == end || !is_digit(*at))
            return NULL;
        for (; at < end && is_digit(*at); at++)
            if (exponent < 100000) /* far past any double; strtod reads the rest */
                exponent = exponent * 10 + (*at - '0');
        if (exp_negative)
            exponent = -exponent;
    }
    int64_t e = exponent - fraction;
    if (significant <= 15 && -22 <= e && e <= 22) {
        double v = (double)w;
        v = e < 0 ? v / POW10[-e] : v * POW10[e];
        *out = negative ? -v : v;
        return at;
    }
    index_t m = at - s;
    if (m >= NUMBER_MAX)
        return NULL;
    char copy[NUMBER_MAX], *stop;
    memcpy(copy, s, (size_t)m);
    copy[m] = '\0';
    *out = strtod(copy, &stop);
    return stop == copy + m ? at : NULL;
}

/* Read a block of lines of n_cols tab-separated fields: size bytes of
 * text, each line ending in '\n' but perhaps the last, and blank lines
 * ("\n" alone) skipped. col[0..4] are the columns of snp_id, chrom, pos,
 * logr and baf. Writes the position (parse_position), LogR and BAF
 * (parse_number) of each of the rows (non-blank lines), at most capacity,
 * into pos, logr and baf, and its snp_id into ids, the ids joined by '\n'.
 * Each run of rows with one chrom gets three entries of runs: its first
 * row, and the start and end of its chrom's bytes in text. counts receives
 * the rows, the lines and the bytes of ids. Returns the number of runs, or
 * -1 when the block has a byte >= 0x80, a row of another field count, a
 * field outside its grammar or more rows than capacity: the caller then
 * reads the block otherwise. */
index_t cnv_parse_block(const char *text, index_t size, index_t capacity, index_t n_cols, const int64_t *col,
                        int64_t *pos, double *logr, double *baf, char *ids, int64_t *runs, int64_t *counts)
{
    unsigned char high = 0;
    for (index_t i = 0; i < size; i++)
        high |= (unsigned char)text[i];
    if (high & 0x80)
        return -1;
    const char *at = text, *end = text + size, *chrom = NULL;
    index_t rows = 0, lines = 0, n_runs = 0, chrom_size = 0;
    char *id_at = ids;
    while (at < end) {
        if (*at == '\n') {
            at++;
            lines++;
            continue;
        }
        if (rows == capacity)
            return -1;
        if (rows)
            *id_at++ = '\n';
        for (index_t k = 0;; k++) {
            const char *field = at;
            if (k == col[2])
                at = parse_position(field, end, pos + rows);
            else if (k == col[3])
                at = parse_number(field, end, logr + rows);
            else if (k == col[4])
                at = parse_number(field, end, baf + rows);
            else
                while (at < end && *at != '\t' && *at != '\n')
                    at++;
            if (!at)
                return -1;
            if (k == col[0]) {
                memcpy(id_at, field, (size_t)(at - field));
                id_at += at - field;
            } else if (k == col[1] &&
                       (!chrom || at - field != chrom_size || memcmp(field, chrom, (size_t)chrom_size))) {
                runs[3 * n_runs] = rows;
                runs[3 * n_runs + 1] = field - text;
                runs[3 * n_runs + 2] = at - text;
                n_runs++;
                chrom = field;
                chrom_size = at - field;
            }
            if (at < end && *at == '\t') {
                at++;
                continue;
            }
            if (k + 1 != n_cols || (at < end && *at != '\n'))
                return -1;
            break;
        }
        rows++;
        if (at < end) {
            at++;
            lines++;
        }
    }
    counts[0] = rows;
    counts[1] = lines;
    counts[2] = id_at - ids;
    return n_runs;
}

/* The bytes of each suffix of cnv_dpi_rows, the suffix then padding */
#define SUFFIX_SLOT 8

/* segment-dpi's per-SNP rows of one sequence of n SNPs into out, each
 * "{id}\t{chrom}\t{pos}{suffix}\n": ids holds the n ids joined by '\n'
 * (ids_size bytes), chrom is chrom_size bytes and pos[i] >= 0 (up to 19
 * digits; a negative one would be written as its 20-digit uint64). state[i]
 * indexes the suffixes: suffix s is the first lengths[s] bytes of
 * suffixes[SUFFIX_SLOT * s ..]. Each suffix is copied as a whole slot, so
 * out needs SUFFIX_SLOT bytes to spare past the rows. Returns the bytes of
 * the rows. */
index_t cnv_dpi_rows(index_t n, const char *ids, index_t ids_size, const char *chrom, index_t chrom_size,
                     const int64_t *pos, const int64_t *state, const char *suffixes, const int64_t *lengths,
                     char *out)
{
    const char *id = ids, *ids_end = ids + ids_size;
    char *at = out;
    for (index_t i = 0; i < n; i++) {
        while (id < ids_end && *id != '\n')
            *at++ = *id++;
        id += id < ids_end;
        *at++ = '\t';
        for (index_t j = 0; j < chrom_size; j++)
            *at++ = chrom[j];
        *at++ = '\t';
        uint64_t p = (uint64_t)pos[i];
        int m = 1;
        for (uint64_t rest = p / 10; rest; rest /= 10)
            m++;
        for (int j = m - 1; j >= 0; j--, p /= 10)
            at[j] = (char)('0' + p % 10);
        at += m;
        memcpy(at, suffixes + SUFFIX_SLOT * state[i], SUFFIX_SLOT);
        at += lengths[state[i]];
        *at++ = '\n';
    }
    return at - out;
}
