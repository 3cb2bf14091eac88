"""FDR-controlled deletion/duplication calling on a fused-lasso estimate.

The smoothed estimate is grouped into maximal near-constant segments, each
segment gets a normal test statistic from its summed estimate, and the
significance threshold is chosen as the largest p-value cutoff whose
estimated false discovery rate stays at or below the requested level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_FDR_LEVEL = 0.05
DEFAULT_MIN_SNPS = 5

# Default merge tolerance as a fraction of sigma_hat. Within one plateau
# of the smoothed estimate the wobble is well below 0.05*sigma, while
# genuine fused-lasso levels sit >= ~0.25*sigma apart, so 0.1*sigma
# groups each plateau without bridging real steps.
DEFAULT_MERGE_TOL_FACTOR = 0.1


class Call(str, enum.Enum):
    DELETION = "deletion"
    DUPLICATION = "duplication"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class SegmentCall:
    """One contiguous run of SNPs with its test statistic and call.

    Indices are 0-based and inclusive; the segments returned for a track
    partition [0, n) with no gaps or overlaps.
    """

    start_index: int
    end_index: int
    n_snps: int
    mean_beta: float
    z: float
    p_value: float
    call: Call


def extract_segments(beta, merge_tol: float) -> list[tuple[int, int]]:
    """Group indices into maximal runs of near-constant estimate.

    Consecutive positions stay in one segment while the absolute step
    between them is at most ``merge_tol``. The smoothed solver output is
    never exactly piecewise constant, so exact-equality grouping would
    fragment everything.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.size < 1:
        raise ValueError("beta must be non-empty")
    if not merge_tol > 0:
        raise ValueError("merge_tol must be positive")
    breaks = np.flatnonzero(np.abs(np.diff(beta)) > merge_tol) + 1
    bounds = [0, *breaks.tolist(), beta.size]
    return [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]


def segment_z(beta, segment: tuple[int, int], sigma_hat: float) -> float:
    """Test statistic: summed estimate over the segment, normalized by
    sqrt(segment length) times the noise level."""
    if not sigma_hat > 0:
        raise ValueError("sigma_hat must be positive")
    beta = np.asarray(beta, dtype=np.float64)
    start, end = segment
    n_k = end - start + 1
    return float(np.sum(beta[start : end + 1]) / (math.sqrt(n_k) * sigma_hat))


def normal_p_value(z: float) -> float:
    """Two-sided tail probability 2*P(Z > |z|) for standard normal Z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def estimate_fdr(segments: list[SegmentCall], q: float) -> float:
    """Estimated FDR at p-value cutoff q: q times total SNP count, over
    the SNP count inside segments with p <= q. Infinity when no segment
    passes the cutoff."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    total = sum(seg.n_snps for seg in segments)
    called = sum(seg.n_snps for seg in segments if seg.p_value <= q)
    if called == 0:
        return math.inf
    return q * total / called


def fdr_cutoff(segments: list[SegmentCall], fdr_level: float) -> float | None:
    """Largest p-value cutoff q with ``estimate_fdr(segments, q) <= fdr_level``.

    Candidates are the observed p-values in (0, 1), the only points where
    the estimate changes. One sort of the p-values with a running SNP
    count gives every candidate's estimate in O(S log S), computed as
    ``estimate_fdr`` computes it. A p-value that underflows to 0 has an
    estimated FDR of 0 at q = 0, so when no positive candidate passes but
    such a segment exists the cutoff is 0.0. None when nothing passes.
    """
    total = sum(seg.n_snps for seg in segments)
    ranked = sorted((seg.p_value, seg.n_snps) for seg in segments)
    q_star = None
    called = 0
    # ascending p, so a later pass overrides an earlier one; within a tie
    # the count grows to the full count at p, and an earlier pass of the
    # tie implies that the full count passes too
    for p, n_snps in ranked:
        called += n_snps
        if p == 0.0:
            q_star = 0.0
        elif p < 1.0 and p * total / called <= fdr_level:
            q_star = p
    return q_star


def _segment(beta, start: int, end: int, sigma_hat: float, call: Call) -> SegmentCall:
    """The SegmentCall of SNPs start..end (inclusive) with its statistics."""
    z = segment_z(beta, (start, end), sigma_hat)
    return SegmentCall(
        start_index=start,
        end_index=end,
        n_snps=end - start + 1,
        mean_beta=float(np.mean(beta[start : end + 1])),
        z=z,
        p_value=normal_p_value(z),
        call=call,
    )


def call_cnvs(
    beta,
    sigma_hat: float,
    fdr_level: float = DEFAULT_FDR_LEVEL,
    min_snps: int = DEFAULT_MIN_SNPS,
) -> list[SegmentCall]:
    """Segment the estimate and call deletions/duplications under FDR control.

    Segments are the runs of ``extract_segments`` with a merge tolerance
    of ``DEFAULT_MERGE_TOL_FACTOR * sigma_hat``. The cutoff q is
    ``fdr_cutoff``: the largest observed p-value with estimated FDR <=
    fdr_level, or 0 when only p-values that underflowed to 0 pass.
    Segments passing the cutoff are called by the sign of their
    statistic; calls spanning fewer than ``min_snps`` SNPs revert to
    neutral. The returned list always covers the whole track, neutral
    segments included.
    """
    if not 0.0 < fdr_level < 1.0:
        raise ValueError("fdr_level must lie in (0, 1)")
    beta = np.asarray(beta, dtype=np.float64)
    segments = [
        _segment(beta, start, end, sigma_hat, Call.NEUTRAL)
        for start, end in extract_segments(beta, DEFAULT_MERGE_TOL_FACTOR * sigma_hat)
    ]

    q_star = fdr_cutoff(segments, fdr_level)
    if q_star is None:
        return segments

    called = []
    for seg in segments:
        if seg.p_value <= q_star and seg.n_snps >= min_snps and seg.z != 0.0:
            call = Call.DELETION if seg.z < 0 else Call.DUPLICATION
            seg = replace(seg, call=call)
        called.append(seg)
    return called


def merge_adjacent_calls(beta, segments: list[SegmentCall], sigma_hat: float) -> list[SegmentCall]:
    """Coalesce neighboring segments that carry the same call.

    A noisy CNV often fits as a staircase of two or three plateaus that
    are all individually significant; for reporting, one interval per
    call is wanted. Statistics are recomputed on the merged spans, so the
    result still partitions the track.
    """
    beta = np.asarray(beta, dtype=np.float64)
    merged: list[SegmentCall] = []
    for seg in segments:
        if merged and merged[-1].call is seg.call:
            seg = _segment(beta, merged.pop().start_index, seg.end_index, sigma_hat, seg.call)
        merged.append(seg)
    return merged
