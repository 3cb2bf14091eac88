"""Core domain types, robust noise estimation, and default tuning constants.

Shared by the continuous fused-lasso solver and the discrete imputation
solver: the per-SNP measurement track (LogR + BAF), the genotype-state
table with copy numbers and BAF centers, and the sigma-based defaults for
the penalty weights.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SnpTrack:
    """Ordered per-SNP measurements for one sequence (chromosome arm).

    snp_ids : opaque string labels, one per SNP
    positions : strictly increasing non-negative base-pair coordinates
    logr : normalized log-intensity, ~0 at copy number 2
    baf : B-allele frequency in [0, 1]
    """

    snp_ids: tuple[str, ...]
    positions: np.ndarray
    logr: np.ndarray
    baf: np.ndarray

    def __post_init__(self):
        positions = _frozen(self.positions, np.int64)
        logr = _frozen(self.logr, np.float64)
        baf = _frozen(self.baf, np.float64)
        object.__setattr__(self, "snp_ids", tuple(self.snp_ids))
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "logr", logr)
        object.__setattr__(self, "baf", baf)

        n = len(self.snp_ids)
        if n < 1:
            raise ValueError("track must contain at least one SNP")
        if not (positions.shape == logr.shape == baf.shape == (n,)):
            raise ValueError("snp_ids, positions, logr, baf must have equal length")
        if np.any(positions < 0):
            raise ValueError("positions must be non-negative")
        if n > 1 and np.any(np.diff(positions) <= 0):
            raise ValueError("positions must be strictly increasing")
        if not np.all(np.isfinite(logr)):
            raise ValueError("logr contains non-finite values")
        if not np.all(np.isfinite(baf)):
            raise ValueError("baf contains non-finite values")
        if np.any(baf < 0.0) or np.any(baf > 1.0):
            raise ValueError("baf values must lie in [0, 1] (clamp on ingest)")

    @property
    def n(self) -> int:
        return len(self.snp_ids)

    @classmethod
    def from_values(cls, logr, baf, positions=None, snp_ids=None):
        """Build a track, clamping out-of-range BAF values on ingest.

        Array noise occasionally overshoots [0, 1]; rejecting such tracks
        would discard whole sequences, so the load policy clamps and logs
        a warning with the affected count.
        """
        logr = np.asarray(logr, dtype=np.float64)
        baf = np.asarray(baf, dtype=np.float64)
        n = logr.size
        if positions is None:
            positions = np.arange(1, n + 1, dtype=np.int64) * 5000
        if snp_ids is None:
            snp_ids = tuple(f"snp{i + 1:07d}" for i in range(n))
        n_clamped = int(np.count_nonzero((baf < 0.0) | (baf > 1.0)))
        if n_clamped:
            logger.warning("clamped %d BAF values outside [0, 1]", n_clamped)
            baf = np.clip(baf, 0.0, 1.0)
        return cls(snp_ids=snp_ids, positions=positions, logr=logr, baf=baf)


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


def _percentiles(values: np.ndarray, q) -> np.ndarray:
    """``np.percentile(values, q)`` of a 1-D float64 array, for percentiles
    0 <= q < 100: numpy 2.4's linear method step for step, so the result
    equals numpy's (up to the sign of a zero), but without its
    ``np.unique`` call, which imports ``numpy.ma`` (10-20 ms) in every
    fresh process."""
    virtual = (values.size - 1) * np.true_divide(q, 100)
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    arr = values.flatten()
    # -1 puts the largest value, nan if any, last for the check below
    arr.partition(sorted({-1, *below.tolist(), *above.tolist()}))
    a, b = arr[below], arr[above]
    gamma = virtual - below
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    if np.isnan(arr[-1]):
        result[:] = arr[-1]
    return result


def _median(values: np.ndarray) -> np.float64:
    """``np.median(values)`` of a non-empty 1-D float64 array: numpy 2.4's
    steps, so the result is bit-identical, but without its NaN check, which
    imports ``numpy.ma`` (10-20 ms) in every fresh process."""
    h = values.size // 2
    odd = values.size % 2
    part = np.partition(values, [h, -1] if odd else [h - 1, h, -1])
    if np.isnan(part[-1]):
        return part[-1]
    # the mean of one value too: np.mean([-0.0]) is 0.0
    return np.mean(part[h : h + 1] if odd else part[h - 1 : h + 1])


def trimmed_std(values) -> float:
    """Sample sd of the values between their 2.5th and 97.5th percentiles.

    Percentiles use the linear-interpolation (type 7) convention; the
    retained window is inclusive on both ends. Trimming excludes SNPs in
    likely deletions/duplications, making the estimate conservative.
    """
    v = np.asarray(values, dtype=np.float64)
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


def estimate_sigma(track: SnpTrack) -> float:
    """Robust noise level of a track's LogR values (trimmed sample sd)."""
    return trimmed_std(track.logr)


def default_lambdas(sigma: float, n: int) -> tuple[float, float]:
    """Default penalty weights: lambda1 = sigma, lambda2 = 2*sigma*sqrt(ln n)."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    return sigma, 2.0 * sigma * math.sqrt(math.log(n))
