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

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteInput
from .signal_model import CopyState, SnpTrack, STATES_BY_COPY

#: default per-copy LogR means for Illumina-style arrays (copy 0..3)
DEFAULT_COPY_LOGR_MEANS = (-5.5923, -0.6313, -0.0045, 0.3252)

DEFAULT_ALPHA = 12.0
DEFAULT_MAX_ROUNDS = 20

#: groups smaller than this keep their previous mean during re-estimation
MIN_GROUP_FOR_UPDATE = 5

#: state for code copy_number * 4 + genotype index within the copy class
_STATE_BY_CODE = tuple(
    STATES_BY_COPY[c][k] if k < len(STATES_BY_COPY[c]) else None
    for c in range(4)
    for k in range(4)
)


class StateSpace(enum.Enum):
    TEN = "10"
    FOUR = "4"


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
    state_space: StateSpace = StateSpace.TEN

    def __post_init__(self):
        mu = tuple(float(m) for m in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) != 4:
            raise ValueError("mu must hold exactly four means (copy 0..3)")
        if not (mu[0] < mu[1] < mu[2] < mu[3]):
            raise ValueError("means must be strictly increasing in copy number")
        if self.lambda1 < 0 or self.lambda2 < 0 or self.alpha < 0:
            raise ValueError("lambda1, lambda2, alpha must be non-negative")


@dataclass(frozen=True)
class StatePath:
    """An imputed genotype sequence with its objective value."""

    states: tuple[CopyState, ...]
    objective: float
    copy_numbers: np.ndarray

    def __post_init__(self):
        cn = np.asarray(self.copy_numbers, dtype=np.int64)
        cn.flags.writeable = False
        object.__setattr__(self, "copy_numbers", cn)
        object.__setattr__(self, "states", tuple(self.states))


@dataclass(frozen=True)
class DpiFit:
    """Result of the alternating impute / re-estimate loop."""

    path: StatePath
    model: DpiModel
    rounds: int


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

    Uses the per-genotype BAF loss for the ten-state space and the
    collapsed per-class loss for the four-state space, accumulating in
    the same order as the recursion.
    """
    y = track.logr
    x = track.baf
    mu = model.mu
    lam1, lam2, alpha = model.lambda1, model.lambda2, model.alpha

    def stage(i: int, state: CopyState) -> float:
        c = state.copy_number
        if model.state_space is StateSpace.FOUR:
            l2 = loss_baf_4(float(x[i]), c)
        else:
            l2 = loss_baf_10(float(x[i]), state)
        return (loss_logr(float(y[i]), state, model) + alpha * l2) + lam1 * abs(mu[c])

    states = list(states)
    acc = stage(0, states[0])
    for i in range(1, len(states)):
        pen = lam2 * abs(mu[states[i].copy_number] - mu[states[i - 1].copy_number])
        acc = (acc + pen) + stage(i, states[i])
    return acc


def _class_loss_tables(track: SnpTrack, model: DpiModel):
    """Per-position stage cost for each copy class, plus the index of the
    best genotype within the class (lowest table index on ties)."""
    y = track.logr
    x = track.baf
    mu = np.asarray(model.mu)
    l1 = (y[:, None] - mu[None, :]) ** 2

    null_loss = (x**3 + (1.0 - x) ** 3) / 3.0
    cand1 = np.stack([x**2, (x - 1.0) ** 2])
    cand2 = np.stack([x**2, (x - 0.5) ** 2, (x - 1.0) ** 2])
    cand3 = np.stack([x**2, (x - 1.0 / 3.0) ** 2, (x - 2.0 / 3.0) ** 2, (x - 1.0) ** 2])
    l2 = np.column_stack(
        [null_loss, cand1.min(axis=0), cand2.min(axis=0), cand3.min(axis=0)]
    )
    geno_idx = np.column_stack(
        [
            np.zeros(track.n, dtype=np.int8),
            cand1.argmin(axis=0).astype(np.int8),
            cand2.argmin(axis=0).astype(np.int8),
            cand3.argmin(axis=0).astype(np.int8),
        ]
    )
    stage = (l1 + model.alpha * l2) + model.lambda1 * np.abs(mu)[None, :]
    return stage, geno_idx


def dp_impute(track: SnpTrack, model: DpiModel) -> StatePath:
    """Globally minimize the discrete objective by forward recursion.

    The stage cost of position i in state j is the LogR loss plus the
    weighted BAF loss plus the lasso penalty on the state's mean; each
    transition adds the fused penalty on the difference of means. Ties in
    the minimization break toward the lower state index, making the
    output deterministic.
    """
    if not (np.all(np.isfinite(track.logr)) and np.all(np.isfinite(track.baf))):
        raise NonFiniteInput("track contains non-finite values")
    n = track.n
    stage, geno_idx = _class_loss_tables(track, model)
    mu = model.mu
    # pKJ: fused penalty for stepping from class K at i-1 to class J at i
    (
        (p00, p01, p02, p03),
        (p10, p11, p12, p13),
        (p20, p21, p22, p23),
        (p30, p31, p32, p33),
    ) = [[model.lambda2 * abs(mu[j] - mu[k]) for j in range(4)] for k in range(4)]

    # Unrolled into locals because per-element numpy access dominated the
    # loop; each column must keep its order of additions and strict < (the
    # lowest class wins ties), as criterion 6 compares objectives with ==.
    rows = zip(*stage.T.tolist())  # per-SNP tuples without a list per row
    g0, g1, g2, g3 = next(rows)
    back = []
    push = back.append
    for s0, s1, s2, s3 in rows:
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
            b1 = 1
        v = g2 + p21
        if v < best:
            best = v
            b1 = 2
        v = g3 + p31
        if v < best:
            best = v
            b1 = 3
        n1 = best + s1

        best = g0 + p02
        b2 = 0
        v = g1 + p12
        if v < best:
            best = v
            b2 = 1
        v = g2 + p22
        if v < best:
            best = v
            b2 = 2
        v = g3 + p32
        if v < best:
            best = v
            b2 = 3
        n2 = best + s2

        best = g0 + p03
        b3 = 0
        v = g1 + p13
        if v < best:
            best = v
            b3 = 1
        v = g2 + p23
        if v < best:
            best = v
            b3 = 2
        v = g3 + p33
        if v < best:
            best = v
            b3 = 3
        g0, g1, g2, g3 = n0, n1, n2, best + s3
        push((b0, b1, b2, b3))

    g = (g0, g1, g2, g3)
    c = int(np.argmin(g))  # argmin takes the first minimum: lowest class wins
    objective = g[c]
    path = [c] * n
    for i in range(n - 2, -1, -1):
        c = back[i][c]
        path[i] = c
    copy_numbers = np.array(path, dtype=np.int64)

    codes = copy_numbers * 4 + geno_idx[np.arange(n), copy_numbers]
    states = tuple(map(_STATE_BY_CODE.__getitem__, codes.tolist()))
    return StatePath(states=states, objective=objective, copy_numbers=copy_numbers)


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
        candidate = float(np.median(group))
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
        stable = np.array_equal(new_path.copy_numbers, path.copy_numbers) and (
            new_path.states == path.states
        )
        path, model = new_path, new_model
        if stable:
            break
    return DpiFit(path=path, model=model, rounds=rounds)
