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

from . import _kernels
from .signal_model import STATE_ARRAY, STATE_COPIES, CopyState, SnpTrack, _fields_equal, _frozen, _median, _rebuilt

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


def dp_impute(track: SnpTrack, model: DpiModel) -> StatePath:
    """Globally minimize the discrete objective by forward recursion.

    The stage cost of position i in state j is the LogR loss plus the
    weighted BAF loss plus the lasso penalty on the state's mean; each
    transition adds the fused penalty on the difference of means. Ties in
    the minimization break toward the lower state index, making the
    output deterministic. The recursion and its traceback run in compiled
    code (``_kernels.c``).
    """
    mu = model.mu
    pen = [[model.lambda2 * abs(mu[j] - mu[k]) for j in range(4)] for k in range(4)]
    losses, picks = track.genotype_fit
    state_indices = np.empty(track.n, dtype=np.int64)
    objective = _kernels.min_plus_path(track.logr, losses, picks, mu, model.alpha, model.lambda1, pen, state_indices)
    # read-only, so the path keeps it without a copy
    state_indices.flags.writeable = False
    return StatePath(state_indices, objective)


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
