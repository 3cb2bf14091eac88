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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NonFiniteInput, ZeroPivot
from .signal_model import TuningConstants, _fields_equal

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 10000


def smooth_abs(x, epsilon: float, out=None):
    """sqrt(x^2 + epsilon): differentiable, strictly convex |x| surrogate,
    written into ``out`` when given."""
    return np.sqrt(np.add(np.square(x, out=out), epsilon, out=out), out=out)


def objective(beta, y, tc: TuningConstants, *, magnitudes=None) -> float:
    """Value of the smoothed fused-lasso criterion at ``beta``.

    ``magnitudes``, a pair of float64 arrays of lengths n and n - 1,
    receives in place the two arrays the penalties sum,
    ``smooth_abs(beta)`` and ``smooth_abs(np.diff(beta))``, for
    ``build_surrogate`` at the same ``beta``; the first also holds the
    residual on the way. Without it the call allocates its own.
    """
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if beta.shape != y.shape:
        raise ValueError(f"length mismatch: beta {beta.shape} vs y {y.shape}")
    if magnitudes is None:
        magnitudes = (np.empty(beta.size), np.empty(max(beta.size - 1, 0)))
    norm1, norm2 = magnitudes
    r = np.subtract(y, beta, out=norm1)
    # einsum sums without BLAS: `r @ r` wakes an OpenBLAS thread that
    # spins on the other core for the rest of the solve
    value = 0.5 * float(np.einsum("i,i->", r, r))
    smooth_abs(beta, tc.epsilon, out=norm1)
    smooth_abs(np.subtract(beta[1:], beta[:-1], out=norm2), tc.epsilon, out=norm2)
    for weight, norm in zip((tc.lambda1, tc.lambda2), magnitudes):
        value += weight * float(np.sum(norm))
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


def build_surrogate(beta_m, y, tc: TuningConstants, *, magnitudes=None, out=None) -> TridiagonalSystem:
    """Assemble the quadratic-majorizer system at the expansion point.

    Row i carries 1 + lambda1/||beta_i|| plus lambda2/||delta|| for each
    of the (up to two) adjacent differences; off-diagonal entries are the
    negated fusion weights; the right-hand side is y. ``magnitudes``, as
    ``objective`` filled it in at ``beta_m``, saves computing the norms
    again. ``out``, a float64 system of the same size, receives the
    surrogate in place and is returned.
    """
    beta_m = np.asarray(beta_m, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = beta_m.size
    if n < 2:
        raise ValueError("surrogate needs n >= 2 (scalar case is closed-form)")
    if y.size != n:
        raise ValueError("beta_m and y must have equal length")
    if magnitudes is None:
        magnitudes = (smooth_abs(beta_m, tc.epsilon), smooth_abs(np.diff(beta_m), tc.epsilon))
    if out is None:
        out = TridiagonalSystem(diag=np.empty(n), off=np.empty(n - 1), rhs=np.empty(n))
    diag, w2 = out.diag, out.off
    np.divide(tc.lambda1, magnitudes[0], out=diag)
    np.divide(tc.lambda2, magnitudes[1], out=w2)
    np.add(1.0, diag, out=diag)
    diag[:-1] += w2
    diag[1:] += w2
    np.negative(w2, out=w2)
    np.copyto(out.rhs, y)
    return out


def thomas_solve(system: TridiagonalSystem, *, out=None, work=None) -> np.ndarray:
    """Solve the tridiagonal system by forward elimination + back substitution.

    O(n) work in compiled code and no pivoting; valid because the
    surrogate is strictly diagonally dominant. A vanishing pivot raises
    ZeroPivot. ``out`` receives the solution, which is returned, and
    ``work`` holds the forward sweep's ratios; each is a float64 array of
    n entries, allocated when not given.
    """
    n = system.diag.size
    out = np.empty(n) if out is None else out
    row = _kernels.thomas(system.diag, system.off, system.rhs, out, np.empty(n) if work is None else work)
    if row >= 0:
        raise ZeroPivot(f"zero pivot at row {row}")
    return out


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


def _solve_mm(y, tc: TuningConstants, tol: float, max_iter: int, step) -> BetaFit:
    """The MM loop of both solvers. Each iteration builds the surrogate at
    the current iterate and takes ``beta = step(system, beta)``."""
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

    # An iteration writes into these buffers, and with the Thomas step it
    # allocates no n-sized array: a temporary above glibc's mmap threshold
    # (128 KiB, n = 16k) would be mapped and faulted in afresh each time.
    # The surrogate at each iterate reuses the norms its objective summed.
    n = y.size
    magnitudes = (np.empty(n), np.empty(n - 1))
    system = TridiagonalSystem(diag=np.empty(n), off=np.empty(n - 1), rhs=np.empty(n))
    beta = y.copy()
    f_cur = objective(beta, y, tc, magnitudes=magnitudes)
    trace = [f_cur]
    converged = False
    for _ in range(max_iter):
        beta = step(build_surrogate(beta, y, tc, magnitudes=magnitudes, out=system), beta)
        f_new = objective(beta, y, tc, magnitudes=magnitudes)
        trace.append(f_new)
        converged = f_cur - f_new < tol
        f_cur = f_new
        if converged:
            break
    return BetaFit(beta, f_cur, len(trace) - 1, converged, np.asarray(trace))


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
    work = np.empty(np.size(y))
    # each solve overwrites the iterate it replaces
    return _solve_mm(y, tc, tol, max_iter, lambda system, beta: thomas_solve(system, out=beta, work=work))


def _block_sweep(system: TridiagonalSystem, beta: np.ndarray) -> np.ndarray:
    """The step of ``solve_mm_block``; updates ``beta`` in place."""
    # sub[i] = a[i, i-1], sup[i] = a[i, i+1], and the neighbours
    # left[i] = beta[i-1], right[i] = beta[i+1], with zero padding at ends
    sub = np.concatenate(([0.0], system.off))
    sup = np.concatenate((system.off, [0.0]))
    for idx in (slice(1, None, 2), slice(0, None, 2)):
        left = np.concatenate(([0.0], beta[:-1]))
        right = np.concatenate((beta[1:], [0.0]))
        beta[idx] = (system.rhs[idx] - sub[idx] * left[idx] - sup[idx] * right[idx]) / system.diag[idx]
    return beta


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
    return _solve_mm(y, tc, tol, max_iter, _block_sweep)

