"""Reference helpers the tests check the library against.

None of these runs in a CLI or library route: the fused-lasso gradient
and the soft-thresholding identity (acceptance criteria 1 and 5), the
exact solution of the non-smoothed fused-lasso criterion and the MM loop
that computes every surrogate and objective from scratch, with the block
sweep that is ``solve_mm_block``'s step (tests/test_fused_lasso.py), and,
for the discrete objective (criterion 6 and tests/test_dpi.py), the
per-state losses, the exhaustive search over every state sequence and the
re-evaluation of one path. The pure-Python forms of the compiled kernels
are the references they are held to bit for bit: the DP recursion's
(``min_plus_path``, on the columns of ``stage_columns``, with
``trace_back``), the MM fit's (``reference_mm``, with ``block_sweep``)
and the Thomas solve's (``tests/test_fused_lasso.py``'s
``reference_thomas_solve``).
"""

import numpy as np
from scipy.optimize import lsq_linear

from cnvfuse.dpi import DpiModel
from cnvfuse import fused_lasso
from cnvfuse.fused_lasso import BetaFit, build_surrogate, objective, smooth_abs, solve_mm_tdm
from cnvfuse.signal_model import DEFAULT_EPSILON, TEN_STATES, CopyState, SnpTrack, TuningConstants

STATE_BY_NAME = {s.genotype: s for s in TEN_STATES}


def gradient(beta, y, tc: TuningConstants) -> np.ndarray:
    """Gradient of the smoothed criterion (exists for every eps > 0)."""
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    g = beta - y + tc.lambda1 * beta / smooth_abs(beta, tc.epsilon)
    if beta.size > 1:
        d = np.diff(beta)
        t = tc.lambda2 * d / smooth_abs(d, tc.epsilon)
        g[1:] += t
        g[:-1] -= t
    return g


def soft_threshold_check(
    y,
    lambda1: float,
    lambda2: float,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = 1e-8,
    max_iter: int = 200000,
) -> float:
    """Max deviation from the soft-thresholding identity linking lambda1 > 0
    solutions to the lambda1 = 0 solution.

    Solves at (0, lambda2) and (lambda1, lambda2), applies
    sign(b0)*( |b0| - lambda1 )_+ elementwise to the first solution, and
    returns the largest absolute difference from the second. For the
    unsmoothed criterion the identity is exact; smoothing and solver
    tolerance contribute a small bias.
    """
    if not (lambda1 > 0 and lambda2 > 0):
        raise ValueError("lambda1 and lambda2 must be positive")
    fit0 = solve_mm_tdm(y, TuningConstants(0.0, lambda2, epsilon=epsilon), tol, max_iter)
    fit1 = solve_mm_tdm(y, TuningConstants(lambda1, lambda2, epsilon=epsilon), tol, max_iter)
    b0 = fit0.beta
    thresholded = np.sign(b0) * np.maximum(np.abs(b0) - lambda1, 0.0)
    return float(np.max(np.abs(thresholded - fit1.beta)))


def block_sweep(system, beta: np.ndarray) -> np.ndarray:
    """The step of ``solve_mm_block``: odd-indexed coordinates minimize the
    surrogate given their neighbours, then even-indexed ones. Updates
    ``beta`` in place."""
    # sub[i] = a[i, i-1], sup[i] = a[i, i+1], and the neighbours
    # left[i] = beta[i-1], right[i] = beta[i+1], with zero padding at ends
    sub = np.concatenate(([0.0], system.off))
    sup = np.concatenate((system.off, [0.0]))
    for idx in (slice(1, None, 2), slice(0, None, 2)):
        left = np.concatenate(([0.0], beta[:-1]))
        right = np.concatenate((beta[1:], [0.0]))
        beta[idx] = (system.rhs[idx] - sub[idx] * left[idx] - sup[idx] * right[idx]) / system.diag[idx]
    return beta


def reference_mm(y, tc: TuningConstants, tol: float, max_iter: int, step) -> BetaFit:
    """The MM loop in Python, from the library's single-call forms: at
    each iterate ``build_surrogate`` and ``objective`` compute their norms
    from scratch, and ``beta = step(system, beta)`` takes the step.
    ``solve_mm_tdm`` (step: a Thomas solve) and ``solve_mm_block`` (step
    ``block_sweep``), whose loop runs in C, must return the same BetaFit
    bit for bit. A track of one SNP has the closed-form scalar solve."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 1:
        return fused_lasso._solve_scalar(float(y[0]), tc)
    beta = y.copy()
    f_cur = objective(beta, y, tc)
    trace = [f_cur]
    converged = False
    for _ in range(max_iter):
        beta = step(build_surrogate(beta, y, tc), beta)
        f_new = objective(beta, y, tc)
        trace.append(f_new)
        converged = f_cur - f_new < tol
        f_cur = f_new
        if converged:
            break
    return BetaFit(beta, f_cur, len(trace) - 1, converged, np.asarray(trace))


def exact_fused_lasso(y, lambda1: float, lambda2: float) -> np.ndarray:
    """Exact minimizer of the non-smoothed criterion
    0.5*||y - b||^2 + lambda1*sum|b_i| + lambda2*sum|b_i+1 - b_i|.

    First the lambda1 = 0 problem (total-variation denoising) through its
    dual, the box-constrained least-squares problem
    min ||y - D'z||^2 with |z_i| <= lambda2, D the difference matrix,
    solved by bounded-variable least squares: b0 = y - D'z. Then
    soft-thresholding b0 by lambda1 gives the solution (Friedman et al.
    2007), the identity that acceptance criterion 5 checks on the solver.
    """
    y = np.asarray(y, dtype=np.float64)
    b0 = y.copy()
    if y.size > 1:
        dt = np.diff(np.eye(y.size), axis=0).T
        b0 -= dt @ lsq_linear(dt, y, bounds=(-lambda2, lambda2), method="bvls", tol=1e-14).x
    return np.sign(b0) * np.maximum(np.abs(b0) - lambda1, 0.0)


def exact_objective(beta, y, lambda1: float, lambda2: float) -> float:
    """Value of the non-smoothed fused-lasso criterion at ``beta``."""
    beta = np.asarray(beta, dtype=np.float64)
    r = np.asarray(y, dtype=np.float64) - beta
    return 0.5 * float(r @ r) + lambda1 * float(np.sum(np.abs(beta))) + lambda2 * float(np.sum(np.abs(np.diff(beta))))


def loss_logr(y: float, state: CopyState, model: DpiModel) -> float:
    """Squared LogR distance to the state's copy-number mean."""
    d = y - model.mu[state.copy_number]
    return d * d


def baf_losses(x) -> np.ndarray:
    """n x 10 table of BAF losses, one column per TEN_STATES entry: the
    squared distance to the genotype's centre, and for phi the expected
    squared distance to a Uniform(0, 1) draw."""
    x = np.asarray(x, dtype=np.float64)
    # A, B, AA, AB, BB, AAA, AAB, ABB, BBB
    centres = (0.0, 1.0, 0.0, 0.5, 1.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
    return np.column_stack([(x**3 + (1.0 - x) ** 3) / 3.0, *((x - c) ** 2 for c in centres)])


def class_baf_losses(x) -> tuple[np.ndarray, np.ndarray]:
    """The least BAF loss of each copy class and the index, within the
    class, of the first genotype that attains it (n x 4 each)."""
    table = baf_losses(x)
    classes = [table[:, a:b] for a, b in ((0, 1), (1, 3), (3, 6), (6, 10))]
    return (
        np.column_stack([losses.min(axis=1) for losses in classes]),
        np.column_stack([losses.argmin(axis=1) for losses in classes]),
    )


def loss_baf_10(x: float, state: CopyState) -> float:
    """BAF loss of one value in one genotype state."""
    return float(baf_losses([x])[0, TEN_STATES.index(state)])


def loss_baf_4(x: float, copy_number: int) -> float:
    """Collapsed BAF loss: minimum over the genotypes of one copy class."""
    return float(class_baf_losses([x])[0][0, copy_number])


def enumerate_paths(track: SnpTrack, model: DpiModel, n_states: int) -> tuple[float, np.ndarray]:
    """Exhaustive search over all n_states**n state sequences: the 10
    genotypes of TEN_STATES, or the 4 copy classes with their least BAF
    loss. Returns the least objective, summed in the order of the
    recursion, and the first sequence that reaches it."""
    mu = np.asarray(model.mu)
    if n_states == 10:
        mu = mu[[s.copy_number for s in TEN_STATES]]
        l2 = baf_losses(track.baf)
    else:
        l2 = class_baf_losses(track.baf)[0]
    stage = ((track.logr[:, None] - mu) ** 2 + model.alpha * l2) + model.lambda1 * np.abs(mu)
    pen = model.lambda2 * np.abs(mu[:, None] - mu[None, :])
    seqs = np.indices((n_states,) * track.n).reshape(track.n, -1)
    acc = stage[0, seqs[0]]
    for i in range(1, track.n):
        acc = (acc + pen[seqs[i - 1], seqs[i]]) + stage[i, seqs[i]]
    best = int(np.argmin(acc))
    return float(acc[best]), seqs[:, best]


def path_objective(track: SnpTrack, states, model: DpiModel) -> float:
    """Re-evaluate the discrete objective for a given state sequence.

    Uses the per-genotype BAF loss, accumulating in the same order as the
    recursion. On a path from ``dp_impute`` each state is the best
    genotype of its copy class, so this equals the collapsed per-class
    loss (``loss_baf_4``) the recursion minimizes.
    """
    y = track.logr
    x = track.baf
    mu = model.mu
    lam1, lam2, alpha = model.lambda1, model.lambda2, model.alpha

    def stage(i: int, state: CopyState) -> float:
        l2 = loss_baf_10(float(x[i]), state)
        return (loss_logr(float(y[i]), state, model) + alpha * l2) + lam1 * abs(mu[state.copy_number])

    states = list(states)
    acc = stage(0, states[0])
    for i in range(1, len(states)):
        pen = lam2 * abs(mu[states[i].copy_number] - mu[states[i - 1].copy_number])
        acc = (acc + pen) + stage(i, states[i])
    return acc


def stage_columns(track: SnpTrack, model: DpiModel) -> list[np.ndarray]:
    """Per-position stage cost of each copy class, one array per class:
    ``((y - mu_j)**2 + alpha * l2_j) + lambda1 * |mu_j|``, where ``l2_j``
    is the class's least BAF loss from the track's genotype table."""
    return [
        ((track.logr - mu) ** 2 + model.alpha * l2_j) + model.lambda1 * abs(mu)
        for mu, l2_j in zip(model.mu, track.genotype_fit[0])
    ]


def min_plus_path(cols, pen) -> tuple[float, np.ndarray]:
    """Exact minimum and first-minimum path of the four-class recursion.

    ``cols`` holds four arrays of non-negative stage costs, one per class,
    and ``pen[k][j]`` is the penalty for stepping from class k to class j,
    a line metric ``lambda2 * |mu_j - mu_k|``. Each step minimizes over
    the previous class with strict ``<``, so the lowest class wins ties.
    Returns the objective and the class of every position (int64).
    """
    (
        (p00, p01, p02, p03),
        (p10, p11, p12, p13),
        (p20, p21, p22, p23),
        (p30, p31, p32, p33),
    ) = pen
    # Leader test. If g_k > g_L + p_Lk for every k != L, the triangle
    # inequality of the metric gives g_k + p_kj > g_L + p_Lj for every j, so
    # L is the strict best predecessor of all four classes. delta covers the
    # rounding of the compared sums: every g is at most U, the sum of all
    # stage costs (a single-class path costs no more). An inf or nan cost or
    # penalty makes delta inf or nan, and then no test passes.
    delta = 1e-12 * (sum(float(np.sum(c)) for c in cols) + float(np.max(pen)))
    (
        (_, q01, q02, q03),
        (q10, _, q12, q13),
        (q20, q21, _, q23),
        (q30, q31, q32, _),
    ) = [[p + delta for p in row] for row in pen]

    # each column keeps its order of additions and strict < (the lowest
    # class wins ties), as criterion 6 compares objectives with ==
    rows = zip(*map(memoryview, cols))
    g0, g1, g2, g3 = next(rows)
    # the leader: the lowest class with the least g after the last full step
    lead = 2
    # bK is the best previous class for class K, kept pre-shifted into bits
    # 2K..2K+1, so one SNP's backpointers pack into one byte of ``back``.
    # When the leader test passes, every class steps from the leader, which
    # packs to 85 * leader. The leader's own step leaves out its penalty: a
    # finite delta means a finite metric, whose p_LL is 0.0, and g + 0.0 ==
    # g because no g is -0.0 (each stage cost is a square plus non-negative
    # terms).
    back = bytearray()
    push = back.append
    for s0, s1, s2, s3 in rows:
        if lead == 2:
            if g0 > g2 + q20 and g1 > g2 + q21 and g3 > g2 + q23:
                g0 = (g2 + p20) + s0
                g1 = (g2 + p21) + s1
                g3 = (g2 + p23) + s3
                g2 += s2
                push(170)
                continue
        elif lead == 1:
            if g0 > g1 + q10 and g2 > g1 + q12 and g3 > g1 + q13:
                g0 = (g1 + p10) + s0
                g2 = (g1 + p12) + s2
                g3 = (g1 + p13) + s3
                g1 += s1
                push(85)
                continue
        elif lead == 3:
            if g0 > g3 + q30 and g1 > g3 + q31 and g2 > g3 + q32:
                g0 = (g3 + p30) + s0
                g1 = (g3 + p31) + s1
                g2 = (g3 + p32) + s2
                g3 += s3
                push(255)
                continue
        elif g1 > g0 + q01 and g2 > g0 + q02 and g3 > g0 + q03:
            g1 = (g0 + p01) + s1
            g2 = (g0 + p02) + s2
            g3 = (g0 + p03) + s3
            g0 += s0
            push(0)
            continue

        best = g0 + p00
        b0 = 0
        v = g1 + p10
        if v < best:
            best = v
            b0 = 1
        v = g2 + p20
        if v < best:
            best = v
            b0 = 2
        v = g3 + p30
        if v < best:
            best = v
            b0 = 3
        n0 = best + s0

        best = g0 + p01
        b1 = 0
        v = g1 + p11
        if v < best:
            best = v
            b1 = 4
        v = g2 + p21
        if v < best:
            best = v
            b1 = 8
        v = g3 + p31
        if v < best:
            best = v
            b1 = 12
        n1 = best + s1

        best = g0 + p02
        b2 = 0
        v = g1 + p12
        if v < best:
            best = v
            b2 = 16
        v = g2 + p22
        if v < best:
            best = v
            b2 = 32
        v = g3 + p32
        if v < best:
            best = v
            b2 = 48
        n2 = best + s2

        best = g0 + p03
        b3 = 0
        v = g1 + p13
        if v < best:
            best = v
            b3 = 64
        v = g2 + p23
        if v < best:
            best = v
            b3 = 128
        v = g3 + p33
        if v < best:
            best = v
            b3 = 192
        g0, g1, g2, g3 = n0, n1, n2, best + s3
        push(b0 | b1 | b2 | b3)

        lead = 0
        best = g0
        if g1 < best:
            best = g1
            lead = 1
        if g2 < best:
            best = g2
            lead = 2
        if g3 < best:
            lead = 3

    g = (g0, g1, g2, g3)
    c = int(np.argmin(g))  # argmin takes the first minimum: lowest class wins
    return g[c], trace_back(back, c)


def trace_back(back: bytearray, last: int) -> np.ndarray:
    """The class of every position (int64), given the packed backpointers
    of positions 1..n-1 and the class ``last`` of the last position.

    back[i] packs the best predecessors of position i + 1, so path[i] is
    bits 2c..2c+1 of back[i] with c = path[i + 1]. A byte 85 * L (a leader
    step, or a full step whose four classes all chose L) pins path[i] to L
    whatever c is, so numpy fills those in at once and only the other
    steps, about a tenth on genome tracks, are walked, last first.
    """
    packed = np.frombuffer(back, np.uint8)
    low = packed & 3
    path = bytearray(low.tobytes())
    path.append(last)
    for i in np.flatnonzero(packed != low * 85)[::-1].tolist():
        path[i] = back[i] >> 2 * path[i + 1] & 3
    return np.frombuffer(path, np.uint8).astype(np.int64)
