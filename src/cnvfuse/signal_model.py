"""Core domain types, robust noise estimation, and default tuning constants.

Shared by the continuous fused-lasso solver and the discrete imputation
solver: the per-SNP measurement track (LogR + BAF), the genotype-state
table with copy numbers and BAF centers, and the sigma-based defaults for
the penalty weights.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateSignal, TooFewSnps

logger = logging.getLogger(__name__)

# Below this the 95% trim window retains too few points for a stable sd.
MIN_SNPS_FOR_SIGMA = 40

TRIM_LOWER_PCT = 2.5
TRIM_UPPER_PCT = 97.5

DEFAULT_EPSILON = 1e-10


def _frozen(values, dtype) -> np.ndarray:
    """Read-only array of ``values``. A writeable array the caller still
    holds (or a view of one) is copied first, so freezing never reaches
    the caller's data; read-only arrays are shared."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        if arr is values or arr.base is not None:
            arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _fields_equal(self, other):
    """``__eq__`` of a dataclass holding numpy arrays: ``other`` is of the
    same class and every field is equal, arrays by ``np.array_equal``. A
    class built with ``eq=False`` that takes it as its ``__eq__`` is
    unhashable, like its arrays."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


def _rebuilt(self):
    """``__reduce__`` of a frozen dataclass: copies and unpickled values are
    built by its constructor from the fields alone."""
    return self.__class__, tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class SnpTrack:
    """Ordered per-SNP measurements for one sequence (chromosome arm).

    snp_ids : opaque string labels, one per SNP, or None (unlabelled)
    positions : strictly increasing non-negative base-pair coordinates
    logr : normalized log-intensity, ~0 at copy number 2
    baf : B-allele frequency in [0, 1]

    Tracks compare by value and are unhashable.
    """

    snp_ids: tuple[str, ...] | None
    positions: np.ndarray
    logr: np.ndarray
    baf: np.ndarray

    def __post_init__(self):
        positions = _frozen(self.positions, np.int64)
        logr = _frozen(self.logr, np.float64)
        baf = _frozen(self.baf, np.float64)
        n = logr.size
        if self.snp_ids is not None:
            object.__setattr__(self, "snp_ids", tuple(self.snp_ids))
            n = len(self.snp_ids)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "logr", logr)
        object.__setattr__(self, "baf", baf)

        if n < 1:
            raise ValueError("track must contain at least one SNP")
        if not (positions.shape == logr.shape == baf.shape == (n,)):
            raise ValueError("snp_ids, positions, logr, baf must have equal length")
        # array methods, not np.any/np.all: on short arms the wrappers
        # cost more than the scans
        if (positions < 0).any():
            raise ValueError("positions must be non-negative")
        if (positions[1:] <= positions[:-1]).any():
            raise ValueError("positions must be strictly increasing")
        if not np.isfinite(logr).all():
            raise ValueError("logr contains non-finite values")
        if not np.isfinite(baf).all():
            raise ValueError("baf contains non-finite values")
        if (baf < 0.0).any() or (baf > 1.0).any():
            raise ValueError("baf values must lie in [0, 1] (clamp on ingest)")

    __eq__ = _fields_equal
    __reduce__ = _rebuilt

    @property
    def n(self) -> int:
        return self.logr.size

    @functools.cached_property
    def genotype_fit(self) -> tuple[np.ndarray, np.ndarray]:
        """Each copy class's least BAF loss per SNP (copy 0: the expected
        squared distance to a Uniform(0, 1) draw) and the index in
        STATES_BY_COPY[c] of the first genotype with that loss, as two
        read-only (4, n) arrays, float64 and uint8. They depend on the BAF
        alone: built on first read, they are kept (36 bytes per SNP)."""
        x = self.baf
        least = np.empty((4, x.size))
        pick = np.zeros((4, x.size), dtype=np.uint8)
        least[0] = (x**3 + (1.0 - x) ** 3) / 3.0
        for c in (1, 2, 3):
            first, *rest = STATES_BY_COPY[c]
            least[c] = (x - first.baf_center) ** 2
            for k, state in enumerate(rest, start=1):
                loss = (x - state.baf_center) ** 2
                np.copyto(pick[c], k, where=loss < least[c])  # strict: an earlier genotype keeps a tie
                np.minimum(least[c], loss, out=least[c])
        least.flags.writeable = False
        pick.flags.writeable = False
        return least, pick

    @classmethod
    def from_values(cls, logr, baf, positions=None, snp_ids=None):
        """Build a track, clamping out-of-range BAF values on ingest.

        Array noise occasionally overshoots [0, 1]; rejecting such tracks
        would discard whole sequences, so the load policy clamps and logs
        a warning with the affected count and the first clamped SNP (its
        id, or its position in an unlabelled track). Without ``positions``
        the SNPs sit 5000 bp apart; without ``snp_ids`` they are unlabelled.
        """
        logr = np.asarray(logr, dtype=np.float64)
        baf = np.asarray(baf, dtype=np.float64)
        n = logr.size
        if positions is None:
            positions = np.arange(5000, 5000 * (n + 1), 5000, dtype=np.int64)
        outside = (baf < 0.0) | (baf > 1.0)
        n_clamped = int(np.count_nonzero(outside))
        if n_clamped:
            baf = np.clip(baf, 0.0, 1.0)
        track = cls(snp_ids=snp_ids, positions=positions, logr=logr, baf=baf)
        if n_clamped:
            # after the constructor's checks: only then do the lengths match
            i = int(outside.argmax())
            where = f"SNP {track.snp_ids[i]!r}" if track.snp_ids is not None else f"position {track.positions[i]}"
            logger.warning("clamped %d BAF values outside [0, 1], the first at %s", n_clamped, where)
        return track


@dataclass(frozen=True)
class TuningConstants:
    """Penalty weights and smoothing constant of the fused-lasso criterion
    (the DP route's weights, alpha included, live in ``dpi.DpiModel``).

    lambda1 : sparsity penalty weight
    lambda2 : fusion (successive-difference) penalty weight
    epsilon : smoothing constant of sqrt(x^2 + epsilon)
    """

    lambda1: float
    lambda2: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lambda1, self.lambda2, self.epsilon))):
            raise ValueError("lambda1, lambda2 and epsilon must be finite")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be non-negative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class CopyState:
    """One genotype state: allele configuration, copy number, BAF center.

    baf_center is None for the null (copy 0) state, whose BAF loss is the
    integral over Uniform(0, 1) rather than a squared distance.
    """

    genotype: str
    copy_number: int
    baf_center: float | None


# Genotype states in canonical order (copy number ascending, allele count
# of B ascending within a copy class). Ties in the solvers break toward
# the lower index in this table.
TEN_STATES: tuple[CopyState, ...] = (
    CopyState("phi", 0, None),
    CopyState("A", 1, 0.0),
    CopyState("B", 1, 1.0),
    CopyState("AA", 2, 0.0),
    CopyState("AB", 2, 0.5),
    CopyState("BB", 2, 1.0),
    CopyState("AAA", 3, 0.0),
    CopyState("AAB", 3, 1.0 / 3.0),
    CopyState("ABB", 3, 2.0 / 3.0),
    CopyState("BBB", 3, 1.0),
)

#: states grouped by copy number, in table order: STATES_BY_COPY[c][k] is the
#: genotype of copy number c with k B alleles
STATES_BY_COPY: dict[int, tuple[CopyState, ...]] = {
    c: tuple(s for s in TEN_STATES if s.copy_number == c) for c in range(4)
}

#: TEN_STATES as an array, their copy numbers, and their BAF centers with
#: 0.0 for phi, for lookups by ``state_index``
STATE_ARRAY = np.array(TEN_STATES, dtype=object)
STATE_COPIES = np.array([s.copy_number for s in TEN_STATES])
BAF_CENTERS = np.array([s.baf_center or 0.0 for s in TEN_STATES])


def state_index(copy_numbers, b_alleles) -> np.ndarray:
    """Index in TEN_STATES of the genotype with each copy number c and
    count k of B alleles, STATES_BY_COPY[c][k]: the table's order puts the
    states of copy c from index c * (c + 1) // 2 = 0, 1, 3, 6 on."""
    c = np.asarray(copy_numbers)
    return c * (c + 1) // 2 + b_alleles


def _percentiles(values: np.ndarray, q) -> np.ndarray:
    """``np.percentile(values, q)`` of a 1-D float64 array of finite values,
    for percentiles 0 <= q < 100: numpy 2.4's linear method step for step,
    so the result equals numpy's (up to the sign of a zero), but without
    its ``np.unique`` call, which imports ``numpy.ma`` (10-20 ms) in every
    fresh process."""
    virtual = (values.size - 1) * np.true_divide(q, 100)
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    arr = values.flatten()
    arr.partition(sorted({*below.tolist(), *above.tolist()}))
    a, b = arr[below], arr[above]
    gamma = virtual - below
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    return result


def _median(values: np.ndarray) -> np.float64:
    """``np.median(values)`` of a non-empty 1-D float64 array of finite
    values: numpy 2.4's steps, so the result is bit-identical, but without
    its NaN check, which imports ``numpy.ma`` (10-20 ms) in a fresh process."""
    h = values.size // 2
    odd = values.size % 2
    part = np.partition(values, [h] if odd else [h - 1, h])
    # the mean of one value too: np.mean([-0.0]) is 0.0
    return np.mean(part[h : h + 1] if odd else part[h - 1 : h + 1])


def estimate_sigma(track: SnpTrack) -> float:
    """Robust noise level of a track's LogR values: the sample sd of the
    values between their 2.5th and 97.5th percentiles.

    Percentiles use the linear-interpolation (type 7) convention; the
    retained window is inclusive on both ends. Trimming excludes SNPs in
    likely deletions/duplications, making the estimate conservative.
    """
    v = track.logr
    if v.size < MIN_SNPS_FOR_SIGMA:
        raise TooFewSnps(
            f"need at least {MIN_SNPS_FOR_SIGMA} values to estimate sigma, got {v.size}"
        )
    lo, hi = _percentiles(v, [TRIM_LOWER_PCT, TRIM_UPPER_PCT])
    kept = v[(v >= lo) & (v <= hi)]
    s = float(kept.std(ddof=1))
    if not s > 0.0:
        raise DegenerateSignal("trimmed LogR values are constant")
    return s


def default_lambdas(sigma: float, n: int) -> tuple[float, float]:
    """Default penalty weights: lambda1 = sigma, lambda2 = 2*sigma*sqrt(ln n)."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    return sigma, 2.0 * sigma * math.sqrt(math.log(n))
