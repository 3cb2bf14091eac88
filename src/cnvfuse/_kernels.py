"""The compiled kernels of ``_kernels.c``, built on first use: a whole MM
fit of the fused lasso, the Thomas solve, the DP recursion, the reader of
a track file's blocks of lines (``parse_block``) and the writer of
segment-dpi's per-SNP rows (``dpi_rows``).

The first call compiles the C file with the C compiler Python was built
with (``sysconfig``'s ``CC``) into ``_kernels-<digest>.so``, where the
digest covers the source and the compile command, so an edited source or
another compiler gets a library of its own. The library goes into
``__pycache__`` beside the source or, where that cannot be made or
written (an install the user does not own), into ``cnvfuse`` under the
user's cache directory (``$XDG_CACHE_HOME``, or ``~/.cache``). Processes
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

#: bytes of each suffix's slot in cnv_dpi_rows's table (SUFFIX_SLOT there)
SUFFIX_SLOT = 8


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
    name = f"_kernels-{digest}.so"
    log = logging.getLogger(__name__)
    unusable = []
    for directory in _cache_directories(here):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            log.debug("loaded the kernel library %s from the cache", path)
            break
        start = time.perf_counter()
        try:
            _build(command, source, path)
        except OSError as exc:
            unusable.append(str(exc))
            continue
        log.debug("built the kernel library %s in %.2f s", path, time.perf_counter() - start)
        break
    else:
        raise CnvFuseError(
            f"cannot build the compiled kernels: no cache directory can be written: {'; '.join(unusable)}"
        )

    lib = ctypes.CDLL(path)
    index, pointer, double, text = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double, ctypes.c_char_p
    lib.cnv_thomas.argtypes = [index] + [pointer] * 5
    lib.cnv_thomas.restype = index
    lib.cnv_objective.argtypes = [index, pointer, pointer, double, double, double, pointer]
    lib.cnv_objective.restype = double
    lib.cnv_mm.argtypes = [index, pointer] + [double] * 4 + [ctypes.c_int, index] + [pointer] * 3
    lib.cnv_mm.restype = index
    lib.cnv_min_plus_path.argtypes = [index] + [pointer] * 4 + [double, double, pointer, pointer]
    lib.cnv_min_plus_path.restype = double
    lib.cnv_parse_block.argtypes = [text, index, index, index] + [pointer] * 7
    lib.cnv_parse_block.restype = index
    lib.cnv_dpi_rows.argtypes = [index, text, index, text, index, pointer, pointer, text, pointer, pointer]
    lib.cnv_dpi_rows.restype = index
    return lib


def _cache_directories(here):
    """Where the library may be cached, in the order tried: ``__pycache__``
    beside the source, then the user's cache directory (the XDG base
    directory rule: ``$XDG_CACHE_HOME``, or ``~/.cache`` when that is unset,
    empty or relative)."""
    user = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(user):
        user = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(here, "__pycache__"), os.path.join(user, "cnvfuse")


def _build(command, source, path):
    """Compile ``source`` into ``path`` through a file of this process's
    own, renamed into place once complete. Raises OSError when the
    directory of ``path`` cannot be made or written, and CnvFuseError when
    the compiler fails."""
    import subprocess

    partial = f"{path}.{os.getpid()}.tmp"
    argv = [*command, "-o", partial, source]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(partial, "wb"):
        pass
    try:
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


def parse_block(data: bytes, n_cols: int, col):
    """Read a block of whole lines of ``n_cols`` tab-separated fields
    (``cnv_parse_block``), skipping blank lines; ``col`` gives the columns
    of snp_id, chrom, pos, logr and baf. Returns the ids, the first row and
    the chrom of each run of rows with one chrom, the positions (negative
    ones as -1), the LogR and BAF values and the number of newlines; or
    None when the kernel refuses the block."""
    col = np.ascontiguousarray(col, dtype=np.int64)
    if col.shape != (5,) or not (0 <= col.min() and col.max() < n_cols):
        raise ValueError("need the 5 columns, each below n_cols")
    # every row but the last ends in n_cols - 1 tabs and a newline
    capacity = len(data) // n_cols + 1
    pos, values, runs = np.empty(capacity, np.int64), np.empty((2, capacity)), np.empty((capacity, 3), np.int64)
    ids, counts = np.empty(len(data), np.uint8), np.empty(3, np.int64)
    n_runs = library().cnv_parse_block(
        data, len(data), capacity, n_cols, col.ctypes.data, pos.ctypes.data, values.ctypes.data,
        values[1].ctypes.data, ids.ctypes.data, runs.ctypes.data, counts.ctypes.data,
    )
    if n_runs < 0:
        return None
    n, n_lines, ids_size = counts.tolist()
    starts, name_starts, name_ends = runs[:n_runs].T.tolist() if n else ([], [], [])
    names = [data[a:b].decode() for a, b in zip(name_starts, name_ends)]
    ids = str(ids[:ids_size], "ascii").split("\n") if n else []
    return ids, starts, names, pos[:n].copy(), values[0, :n].copy(), values[1, :n].copy(), n_lines


def dpi_rows(ids, chrom: str, positions, states, suffixes) -> str:
    """segment-dpi's rows of one sequence (``cnv_dpi_rows``), joined by
    newlines: "{id}\\t{chrom}\\t{position}{suffix}" per SNP, where the
    suffix is ``suffixes[state]``, of at most SUFFIX_SLOT bytes.
    ``positions`` are non-negative and no id holds a newline."""
    text, name = "\n".join(ids).encode(), chrom.encode()
    encoded = [s.encode() for s in suffixes]
    lengths = np.array([len(s) for s in encoded], dtype=np.int64)
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    states = np.ascontiguousarray(states, dtype=np.int64)
    n = positions.size
    if not (n >= 1 and len(ids) == n and states.size == n and 0 <= states.min() and states.max() < len(encoded)):
        raise ValueError("need n >= 1 ids, positions and states, each state indexing the suffixes")
    if lengths.max() > SUFFIX_SLOT:
        raise ValueError(f"suffixes hold at most {SUFFIX_SLOT} bytes")
    # per row: its id, at most 20 digits, 3 separators and the suffix; the
    # last suffix's slot may reach past it
    out = np.empty(len(text) + n * (len(name) + 23 + int(lengths.max())) + SUFFIX_SLOT, np.uint8)
    size = library().cnv_dpi_rows(
        n, text, len(text), name, len(name), positions.ctypes.data, states.ctypes.data,
        b"".join(s.ljust(SUFFIX_SLOT, b"\0") for s in encoded), lengths.ctypes.data, out.ctypes.data,
    )
    return str(out[: size - 1], "utf-8")
