"""The compiled kernels of ``_kernels.c``, built on first use.

The first call compiles the C file with the C compiler Python was built
with (``sysconfig``'s ``CC``) into ``__pycache__/_kernels-<digest>.so``
beside it, where the digest covers the source and the compile command, so
an edited source or another compiler gets a library of its own. Processes
that build at once each compile to a file of their own and rename it into
place. Nothing is compiled or loaded at import.

The wrappers check sizes, dtypes and contiguity before handing pointers to
C, and keep every array they pass alive for the call.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import CnvFuseError

#: no -ffast-math or -march: each operation must round as the source says
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def _library():
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


def thomas(diag, off, rhs, out, ratio) -> int:
    """Solve the tridiagonal system into ``out`` (``cnv_thomas``), with
    ``ratio`` as scratch; both are float64 arrays of n entries. Returns
    -1, or the row of the first pivot that vanished."""
    diag, off, rhs = (np.ascontiguousarray(a, dtype=np.float64) for a in (diag, off, rhs))
    n = diag.size
    if n < 1 or off.size != n - 1 or rhs.size != n:
        raise ValueError("diag and rhs must have length n >= 1 and off n - 1")
    _writable(out, n, np.float64)
    _writable(ratio, n, np.float64)
    return _library().cnv_thomas(n, diag.ctypes.data, off.ctypes.data, rhs.ctypes.data, out.ctypes.data, ratio.ctypes.data)


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
    return _library().cnv_min_plus_path(
        n, logr.ctypes.data, losses.ctypes.data, picks.ctypes.data, mu.ctypes.data,
        alpha, lambda1, pen.ctypes.data, out.ctypes.data,
    )
