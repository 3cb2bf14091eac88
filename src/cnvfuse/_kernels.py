"""The compiled kernels of ``_kernels.c``, built on first use: a whole MM
fit of the fused lasso, the Thomas solve and the DP recursion.

The first call compiles the C file with the C compiler Python was built
with (``sysconfig``'s ``CC``) into ``__pycache__/_kernels-<digest>.so``
beside it, where the digest covers the source and the compile command, so
an edited source or another compiler gets a library of its own. Processes
that build at once each compile to a file of their own and rename it into
place. Nothing is compiled or loaded at import.

The wrappers check sizes, dtypes and contiguity before handing pointers to
C, and keep every array they pass alive for the call.

The MM fit reproduces numpy's own sums bit for bit: ``np.sum``'s pairwise
order, and ``np.einsum("i,i->")``'s order on numpy 2.4 built for an
X86_V2 (SSE) baseline, two lanes per 8 192-element buffer. On a numpy that
sums in another order (an AVX2 baseline's four lanes, aarch64's fused
multiply-add) the fits still minimize the same criterion, but the tests
that hold the kernel's objective to ``fused_lasso.objective`` bit for bit
fail.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import CnvFuseError, ZeroPivot

#: no -ffast-math or -march, and no contraction: each operation must round
#: as the source says. -fno-math-errno lets sqrt compile to one instruction.
FLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC")

#: MM iterations per kernel call: the objective trace grows a chunk at a
#: time, so its memory follows the iterations run, not max_iter
MM_CHUNK = 1024


@functools.cache
def library():
    import ctypes
    import logging
    import shlex
    import sysconfig
    import time

    try:  # CPython's own sha256: hashlib's loads OpenSSL, 4 MB more resident
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_kernels.c")
    with open(source, "rb") as fh:
        code = fh.read()
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *FLAGS]
    digest = sha256(code + b"\0" + "\0".join(command).encode()).hexdigest()
    path = os.path.join(here, "__pycache__", f"_kernels-{digest}.so")
    log = logging.getLogger(__name__)
    if os.path.exists(path):
        log.debug("loaded the kernel library %s from the cache", path)
    else:
        start = time.perf_counter()
        _build(command, source, path)
        log.debug("built the kernel library %s in %.2f s", path, time.perf_counter() - start)

    lib = ctypes.CDLL(path)
    index, pointer, double = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    lib.cnv_thomas.argtypes = [index] + [pointer] * 5
    lib.cnv_thomas.restype = index
    lib.cnv_objective.argtypes = [index, pointer, pointer, double, double, double, pointer]
    lib.cnv_objective.restype = double
    lib.cnv_mm.argtypes = [index, pointer] + [double] * 4 + [ctypes.c_int, index] + [pointer] * 3
    lib.cnv_mm.restype = index
    lib.cnv_min_plus_path.argtypes = [index] + [pointer] * 4 + [double, double, pointer, pointer]
    lib.cnv_min_plus_path.restype = double
    return lib


def _build(command, source, path):
    """Compile ``source`` into ``path`` through a file of this process's
    own, renamed into place once complete."""
    import subprocess

    partial = f"{path}.{os.getpid()}.tmp"
    argv = [*command, "-o", partial, source]
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode == 0:
            os.replace(partial, path)
            return
        problem = done.stderr.strip() or f"exit status {done.returncode}"
    except OSError as exc:
        problem = str(exc)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    raise CnvFuseError(f"cannot build the compiled kernels: {' '.join(argv)}: {problem}")


def _writable(arr, n: int, dtype) -> None:
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.size == n
        and arr.flags.c_contiguous
        and arr.flags.writeable
    ):
        raise ValueError(f"output buffer must be a writable contiguous {np.dtype(dtype)} array of {n} entries")


def _check_pivot(row: int) -> None:
    if row >= 0:
        raise ZeroPivot(f"zero pivot at row {row}")


def thomas(diag, off, rhs) -> np.ndarray:
    """The solution of the tridiagonal system (``cnv_thomas``); a pivot
    that vanishes raises ZeroPivot naming its row."""
    diag, off, rhs = (np.ascontiguousarray(a, dtype=np.float64) for a in (diag, off, rhs))
    n = diag.size
    if n < 1 or off.size != n - 1 or rhs.size != n:
        raise ValueError("diag and rhs must have length n >= 1 and off n - 1")
    out, ratio = np.empty(n), np.empty(n)
    row = library().cnv_thomas(n, diag.ctypes.data, off.ctypes.data, rhs.ctypes.data, out.ctypes.data, ratio.ctypes.data)
    _check_pivot(row)
    return out


def mm(y, lambda1: float, lambda2: float, epsilon: float, tol: float, max_iter: int, block: bool):
    """An MM fit from beta = y (``cnv_mm``), n >= 2: the exact tridiagonal
    solve per step, or with ``block`` one block sweep. Returns the final
    iterate, the objective trace (its start, then one entry per
    iteration) and whether the last decrement fell below ``tol``. The
    fit's buffers are six arrays of n floats; the kernel runs MM_CHUNK
    iterations per call, so the trace takes memory only for the
    iterations run."""
    lib = library()
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = y.size
    if n < 2:
        raise ValueError("an MM fit needs n >= 2 (the scalar case is closed-form)")
    beta, work, chunk = y.copy(), np.empty(5 * n - 2), np.empty(MM_CHUNK + 1)
    y_at, beta_at, work_at, chunk_at = y.ctypes.data, beta.ctypes.data, work.ctypes.data, chunk.ctypes.data
    chunk[0] = lib.cnv_objective(n, y_at, beta_at, lambda1, lambda2, epsilon, work_at)
    parts = [chunk[:1].copy()]
    left, converged = max_iter, False
    while left and not converged:
        ran = lib.cnv_mm(n, y_at, lambda1, lambda2, epsilon, tol, block, min(left, MM_CHUNK), beta_at, work_at, chunk_at)
        if ran < 0:
            _check_pivot(-1 - ran)
        parts.append(chunk[1 : ran + 1].copy())
        converged = bool(chunk[ran - 1] - chunk[ran] < tol)
        left -= ran
        chunk[0] = chunk[ran]
    return beta, np.concatenate(parts), converged


def min_plus_path(logr, losses, picks, mu, alpha: float, lambda1: float, pen, out) -> float:
    """The least objective of the four-class recursion
    (``cnv_min_plus_path``); ``out`` (int64, n entries) receives each
    position's TEN_STATES index. ``losses`` and ``picks`` are (4, n): each
    class's least BAF loss and its genotype; ``pen`` is 4 x 4."""
    logr = np.ascontiguousarray(logr, dtype=np.float64)
    losses = np.ascontiguousarray(losses, dtype=np.float64)
    picks = np.ascontiguousarray(picks, dtype=np.uint8)
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    pen = np.ascontiguousarray(pen, dtype=np.float64)
    n = logr.size
    if n < 1 or losses.shape != (4, n) or picks.shape != (4, n) or mu.shape != (4,) or pen.shape != (4, 4):
        raise ValueError("need n >= 1 LogR values, (4, n) losses and picks, 4 means and 4 x 4 penalties")
    _writable(out, n, np.int64)
    return library().cnv_min_plus_path(
        n, logr.ctypes.data, losses.ctypes.data, picks.ctypes.data, mu.ctypes.data,
        alpha, lambda1, pen.ctypes.data, out.ctypes.data,
    )
