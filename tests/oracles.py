"""Reference helpers the tests check the library against.

None of these runs in a CLI or library route: the fused-lasso gradient
and the soft-thresholding identity (acceptance criteria 1 and 5), and the
per-state losses and path re-evaluation of the discrete objective
(criterion 6 and tests/test_dpi.py).
"""

import numpy as np

from cnvfuse.dpi import DpiModel
from cnvfuse.fused_lasso import smooth_abs, solve_mm_tdm
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


def loss_logr(y: float, state: CopyState, model: DpiModel) -> float:
    """Squared LogR distance to the state's copy-number mean."""
    d = y - model.mu[state.copy_number]
    return d * d


def loss_baf_10(x: float, state: CopyState) -> float:
    """Squared BAF distance to the genotype center; for the null state,
    the expected squared distance to a Uniform(0, 1) draw."""
    if state.baf_center is None:
        return (x**3 + (1.0 - x) ** 3) / 3.0
    d = x - state.baf_center
    return d * d


def loss_baf_4(x: float, copy_number: int) -> float:
    """Collapsed BAF loss: minimum over the genotypes of one copy class."""
    if copy_number == 0:
        return (x**3 + (1.0 - x) ** 3) / 3.0
    if copy_number == 1:
        return min(x * x, (x - 1.0) ** 2)
    if copy_number == 2:
        return min(x * x, (x - 0.5) ** 2, (x - 1.0) ** 2)
    if copy_number == 3:
        return min(x * x, (x - 1.0 / 3.0) ** 2, (x - 2.0 / 3.0) ** 2, (x - 1.0) ** 2)
    raise ValueError(f"copy_number must be in 0..3, got {copy_number}")


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
