"""Smoothed fused-lasso minimization by majorization-minimization.

The target criterion is

    f_eps(beta) = 1/2 sum (y_i - beta_i)^2
                  + lambda1 * sum ||beta_i||
                  + lambda2 * sum ||beta_i - beta_{i-1}||

where ||x|| = sqrt(x^2 + eps) smooths the absolute value. Each penalty
term is majorized by a quadratic tangent at the current iterate, so every
MM step reduces to one symmetric positive-definite tridiagonal solve
(``solve_mm_tdm``). ``solve_mm_block`` replaces the exact solve with one
even/odd block-relaxation sweep; it is retained only as a slow baseline
for benchmarking.

Both solvers check their input here and run the whole MM loop in one
compiled call (``_kernels.mm``): each iteration builds the surrogate,
takes the step, evaluates the objective and tests the decrement in C,
with the operations of ``build_surrogate``, ``thomas_solve`` and
``objective`` below in their order, so a fit is bit for bit the one
those functions give when looped in Python (``tests/oracles.py``'s
``reference_mm``). The three stay as the library's single-call forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NonFiniteInput
from .signal_model import TuningConstants, _fields_equal

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 10000


def smooth_abs(x, epsilon: float):
    """sqrt(x^2 + epsilon): differentiable, strictly convex |x| surrogate."""
    return np.sqrt(np.square(x) + epsilon)


def objective(beta, y, tc: TuningConstants) -> float:
    """Value of the smoothed fused-lasso criterion at ``beta``."""
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if beta.shape != y.shape:
        raise ValueError(f"length mismatch: beta {beta.shape} vs y {y.shape}")
    r = y - beta
    # einsum sums without BLAS (`r @ r` wakes an OpenBLAS thread), and the
    # MM kernel reproduces its order of additions
    value = 0.5 * float(np.einsum("i,i->", r, r))
    value += tc.lambda1 * float(np.sum(smooth_abs(beta, tc.epsilon)))
    value += tc.lambda2 * float(np.sum(smooth_abs(np.diff(beta), tc.epsilon)))
    return value


@dataclass(frozen=True, eq=False)
class TridiagonalSystem:
    """Symmetric tridiagonal system A x = rhs.

    diag holds a[i,i] and off holds a[i,i+1] = a[i+1,i]. For lambda1 > 0
    the MM surrogate is strictly diagonally dominant (hence positive
    definite).
    """

    diag: np.ndarray
    off: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        n = self.diag.size
        if n < 1 or self.rhs.size != n:
            raise ValueError("diag and rhs must have equal length >= 1")
        if self.off.size != n - 1:
            raise ValueError("off-diagonal must have length n - 1")

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class BetaFit:
    """Solver output: the estimate plus convergence diagnostics.

    objective_trace records the criterion value at the start and after
    every iteration; the MM descent property makes it nonincreasing up to
    rounding.
    """

    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray

    __eq__ = _fields_equal


def build_surrogate(beta_m, y, tc: TuningConstants) -> TridiagonalSystem:
    """Assemble the quadratic-majorizer system at the expansion point.

    Row i carries 1 + lambda1/||beta_i|| plus lambda2/||delta|| for each
    of the (up to two) adjacent differences; off-diagonal entries are the
    negated fusion weights; the right-hand side is y.
    """
    beta_m = np.asarray(beta_m, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = beta_m.size
    if n < 2:
        raise ValueError("surrogate needs n >= 2 (scalar case is closed-form)")
    if y.size != n:
        raise ValueError("beta_m and y must have equal length")
    w2 = tc.lambda2 / smooth_abs(np.diff(beta_m), tc.epsilon)
    diag = 1.0 + tc.lambda1 / smooth_abs(beta_m, tc.epsilon)
    diag[:-1] += w2
    diag[1:] += w2
    return TridiagonalSystem(diag=diag, off=-w2, rhs=y.copy())


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Solve the tridiagonal system by forward elimination + back substitution.

    O(n) work in compiled code and no pivoting; valid because the
    surrogate is strictly diagonally dominant. A vanishing pivot raises
    ZeroPivot.
    """
    return _kernels.thomas(system.diag, system.off, system.rhs)


def _solve_scalar(y0: float, tc: TuningConstants) -> BetaFit:
    # n == 1: minimize 0.5*(y-b)^2 + lambda1*sqrt(b^2+eps) directly.
    # h'(b) = b - y + lambda1*b/||b|| is strictly increasing with a root
    # bracketed by 0 and y; safeguarded Newton converges fast.
    lam, eps = tc.lambda1, tc.epsilon

    def h1(b):
        return b - y0 + lam * b / math.sqrt(b * b + eps)

    f0 = objective([y0], [y0], tc)
    if y0 == 0.0 or lam == 0.0:
        b = 0.0 if lam > 0.0 else y0
    else:
        lo, hi = (0.0, y0) if y0 > 0 else (y0, 0.0)
        b = y0
        for _ in range(200):
            g = h1(b)
            if abs(g) < 1e-15 * max(1.0, abs(y0), lam):
                break
            if g > 0:
                hi = b
            else:
                lo = b
            h2 = 1.0 + lam * eps / (b * b + eps) ** 1.5
            step = b - g / h2
            b = step if lo < step < hi else 0.5 * (lo + hi)
            if hi - lo < 1e-17:
                break
    fit = objective([b], [y0], tc)
    return BetaFit(np.array([b]), fit, 1, True, np.array([f0, fit]))


def _solve(y, tc: TuningConstants, tol: float, max_iter: int, block: bool) -> BetaFit:
    """Check the input of either solver and run its MM fit in C."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("y must be a 1-D vector of length >= 1")
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("y contains non-finite values")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if y.size == 1:
        return _solve_scalar(float(y[0]), tc)
    beta, trace, converged = _kernels.mm(y, tc.lambda1, tc.lambda2, tc.epsilon, tol, max_iter, block)
    return BetaFit(beta, float(trace[-1]), trace.size - 1, converged, trace)


def solve_mm_tdm(
    y,
    tc: TuningConstants,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BetaFit:
    """Minimize the smoothed criterion by MM with exact tridiagonal solves.

    Starts from beta = y and stops once the objective decrement between
    consecutive iterations falls below ``tol`` (or after ``max_iter``
    steps). Because each MM step solves its surrogate exactly, the
    residual gradient at return is bounded by
    (sqrt(lambda1) + 2*sqrt(lambda2)) * sqrt(2*tol) / eps^(1/4) in
    max-norm; in practice it is far smaller (see the test suite).
    """
    return _solve(y, tc, tol, max_iter, block=False)


def solve_mm_block(
    y,
    tc: TuningConstants,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BetaFit:
    """MM baseline whose inner step is one even/odd block-relaxation sweep.

    Same contract as ``solve_mm_tdm`` but the surrogate is only improved,
    not minimized, per iteration: odd-indexed coordinates are updated
    given the even ones, then even given odd. Each coordinate update is
    an independent scalar quadratic minimization, so descent still holds;
    convergence, however, is dramatically slower.
    """
    return _solve(y, tc, tol, max_iter, block=True)

