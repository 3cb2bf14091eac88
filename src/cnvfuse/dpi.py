"""Discrete copy-number imputation by dynamic programming.

Reconstructs a genotype-state sequence by globally minimizing a sum of
LogR and BAF losses plus lasso/fusion penalties on the per-copy-number
LogR means. A forward recursion over states with backpointer traceback
finds the exact optimum; an outer loop alternates imputation with robust
re-estimation of the LogR means.

The transition penalty and the LogR loss depend on a state only through
its copy number, and the BAF loss of the best genotype within a copy
class is a per-position minimum, so the recursion runs over the four
copy classes with the winning genotype recorded per position. This is an
exact collapse of the ten-state recursion (identical objective values),
not an approximation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .signal_model import STATE_ARRAY, STATE_COPIES, CopyState, SnpTrack, _fields_equal, _frozen, _median, _rebuilt, state_index

#: default per-copy LogR means for Illumina-style arrays (copy 0..3)
DEFAULT_COPY_LOGR_MEANS = (-5.5923, -0.6313, -0.0045, 0.3252)

DEFAULT_ALPHA = 12.0
DEFAULT_MAX_ROUNDS = 20

#: groups smaller than this keep their previous mean during re-estimation
MIN_GROUP_FOR_UPDATE = 5

@dataclass(frozen=True)
class DpiModel:
    """Imputation model: per-copy LogR means plus tuning constants.

    The means must be strictly increasing in copy number; re-estimation
    preserves this by rejecting violating updates.
    """

    mu: tuple[float, float, float, float]
    lambda1: float
    lambda2: float
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        mu = tuple(float(m) for m in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) != 4:
            raise ValueError("mu must hold exactly four means (copy 0..3)")
        if not all(map(math.isfinite, (*mu, self.lambda1, self.lambda2, self.alpha))):
            raise ValueError("mu, lambda1, lambda2 and alpha must be finite")
        if not (mu[0] < mu[1] < mu[2] < mu[3]):
            raise ValueError("means must be strictly increasing in copy number")
        if self.lambda1 < 0 or self.lambda2 < 0 or self.alpha < 0:
            raise ValueError("lambda1, lambda2, alpha must be non-negative")


@dataclass(frozen=True, eq=False)
class StatePath:
    """An imputed genotype sequence with its objective value.

    ``state_indices[i]`` is the index in TEN_STATES of position i's state.
    ``copy_numbers`` and ``states`` (the CopyState of each position) are
    read from it on first use. Two paths are equal when they visit the
    same states and their objectives are equal. Like their index arrays,
    paths are unhashable.
    """

    state_indices: np.ndarray
    objective: float

    def __post_init__(self):
        object.__setattr__(self, "state_indices", _frozen(self.state_indices, np.int64))

    @functools.cached_property
    def copy_numbers(self) -> np.ndarray:
        copy_numbers = STATE_COPIES[self.state_indices]
        copy_numbers.flags.writeable = False
        return copy_numbers

    @functools.cached_property
    def states(self) -> tuple[CopyState, ...]:
        return tuple(STATE_ARRAY[self.state_indices].tolist())

    __eq__ = _fields_equal
    __reduce__ = _rebuilt


@dataclass(frozen=True)
class DpiFit:
    """Result of the alternating impute / re-estimate loop."""

    path: StatePath
    model: DpiModel
    rounds: int


def _stage_columns(track: SnpTrack, model: DpiModel) -> list[np.ndarray]:
    """Per-position stage cost of each copy class, one array per class:
    ``((y - mu_j)**2 + alpha * l2_j) + lambda1 * |mu_j|``, where ``l2_j``
    is the class's least BAF loss from the track's genotype table."""
    return [
        ((track.logr - mu) ** 2 + model.alpha * l2_j) + model.lambda1 * abs(mu)
        for mu, l2_j in zip(model.mu, track.genotype_fit[0])
    ]


def _min_plus_path(cols, pen) -> tuple[float, np.ndarray]:
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

    # Unrolled into locals because per-element numpy access dominated the
    # loop; each column must keep its order of additions and strict < (the
    # lowest class wins ties), as criterion 6 compares objectives with ==.
    # memoryviews yield each column's floats without a list copy.
    rows = zip(*map(memoryview, cols))
    g0, g1, g2, g3 = next(rows)
    # the leader: the lowest class with the least g after the last full step
    lead = 2
    # bK is the best previous class for class K, kept pre-shifted into bits
    # 2K..2K+1, so one SNP's backpointers pack into one byte of ``back``,
    # and the loop allocates no object the collector counts. When the
    # leader test passes, every class steps from the leader, which packs to
    # 85 * leader. The leader's own step leaves out its penalty: a finite
    # delta means a finite metric, whose p_LL is 0.0, and g + 0.0 == g
    # because no g is -0.0 (each stage cost is a square plus non-negative
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
    return g[c], _traceback(back, c)


def _traceback(back: bytearray, last: int) -> np.ndarray:
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


def dp_impute(track: SnpTrack, model: DpiModel) -> StatePath:
    """Globally minimize the discrete objective by forward recursion.

    The stage cost of position i in state j is the LogR loss plus the
    weighted BAF loss plus the lasso penalty on the state's mean; each
    transition adds the fused penalty on the difference of means. Ties in
    the minimization break toward the lower state index, making the
    output deterministic.
    """
    mu = model.mu
    pen = [[model.lambda2 * abs(mu[j] - mu[k]) for j in range(4)] for k in range(4)]
    objective, copy_numbers = _min_plus_path(_stage_columns(track, model), pen)
    genotypes = track.genotype_fit[1][copy_numbers, np.arange(track.n)]
    return StatePath(state_index(copy_numbers, genotypes), objective)


def reestimate_mu(track: SnpTrack, path: StatePath, model: DpiModel) -> DpiModel:
    """Robust update of the per-copy LogR means from the current assignment.

    Each mean moves to the median of its group's LogR values when the
    group holds at least MIN_GROUP_FOR_UPDATE SNPs; smaller groups keep
    the previous mean. Updates are applied in copy-number order and any
    update that would break the strict ordering of the means is rejected
    in favor of the previous value.
    """
    if len(path.copy_numbers) != track.n:
        raise ValueError("path length does not match track length")
    mu = list(model.mu)
    for c in range(4):
        group = track.logr[path.copy_numbers == c]
        if group.size < MIN_GROUP_FOR_UPDATE:
            continue
        candidate = float(_median(group))
        lower_ok = c == 0 or mu[c - 1] < candidate
        upper_ok = c == 3 or candidate < mu[c + 1]
        if lower_ok and upper_ok:
            mu[c] = candidate
    return replace(model, mu=tuple(mu))


def dpi_fit(
    track: SnpTrack,
    initial: DpiModel,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> DpiFit:
    """Alternate imputation and mean re-estimation until stable.

    Stops when the state assignment repeats between rounds, when the
    objective rises by more than a rounding allowance (possible because
    medians, not means, drive the update), or after ``max_rounds``
    re-estimation rounds. On an objective rise the previous round's
    result is returned.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    path = dp_impute(track, initial)
    model = initial
    rounds = 0
    for _ in range(max_rounds):
        new_model = reestimate_mu(track, path, model)
        new_path = dp_impute(track, new_model)
        rounds += 1
        if new_path.objective > path.objective + 1e-9 * max(1.0, abs(path.objective)):
            rounds -= 1
            break
        stable = np.array_equal(new_path.state_indices, path.state_indices)
        path, model = new_path, new_model
        if stable:
            break
    return DpiFit(path=path, model=model, rounds=rounds)
