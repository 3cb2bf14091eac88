"""Synthetic LogR/BAF tracks with planted CNVs, plus accuracy scoring.

Generation is parametric: genotypes are drawn per SNP from a B-allele
population frequency under the true copy number, LogR is Gaussian around
the per-copy mean, and BAF is Gaussian around the genotype center (or
uniform for copy 0), clamped to [0, 1]. The benchmark harness runs the
reconstruction methods over a corpus of such tracks and aggregates
SNP-level accuracy, iteration counts, and wall-clock time.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from . import dpi as dpi_mod
from . import fused_lasso as fl
from . import pipeline
from . import segment_caller as sc
from .signal_model import BAF_CENTERS, DEFAULT_EPSILON, STATE_ARRAY, CopyState, SnpTrack, _fields_equal, _frozen, _rebuilt, state_index


class CnvType(enum.Enum):
    DELETION0 = "del0"  # homozygous deletion, copy 0
    DELETION1 = "del1"  # hemizygous deletion, copy 1
    DUPLICATION = "dup"  # single duplication, copy 3

    @property
    def copy_number(self) -> int:
        return {"del0": 0, "del1": 1, "dup": 3}[self.value]


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one simulated track.

    cnv_type may also be given as its value ("del1"); cnv_start of None
    centers the variant; sigma defaults are calibrated stand-ins (the real
    arrays' noise levels are not public) and may be set to 0 for noiseless
    tracks. maf is the B-allele population frequency used to draw genotypes.
    """

    n: int = 13000
    cnv_length: int = 50
    cnv_type: CnvType = CnvType.DELETION1
    cnv_start: int | None = None
    sigma_logr: float = 0.2
    sigma_baf: float = 0.03
    maf: float = 0.3
    mu_truth: tuple[float, float, float, float] = dpi_mod.DEFAULT_COPY_LOGR_MEANS
    seed: int = 0
    chrom: str = "1"

    def __post_init__(self):
        object.__setattr__(self, "cnv_type", CnvType(self.cnv_type))
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.cnv_length <= self.n:
            raise ValueError("cnv_length must lie in [0, n]")
        for name in ("sigma_logr", "sigma_baf"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(math.isfinite(m) for m in self.mu_truth):
            raise ValueError("mu_truth must be finite")
        if self.sigma_logr < 0 or self.sigma_baf < 0:
            raise ValueError("noise levels must be non-negative")
        if not 0.0 < self.maf <= 0.5:
            raise ValueError("maf must lie in (0, 0.5]")
        start = self.start_index
        if self.cnv_length and not 0 <= start <= self.n - self.cnv_length:
            raise ValueError("cnv window exceeds the track")

    @property
    def start_index(self) -> int:
        if self.cnv_start is not None:
            return self.cnv_start
        return (self.n - self.cnv_length) // 2


@dataclass(frozen=True, eq=False)
class TruthTrack:
    """A simulated track together with its ground truth."""

    track: SnpTrack
    true_copy: np.ndarray
    true_genotype: tuple[CopyState, ...]

    def __post_init__(self):
        tc = _frozen(self.true_copy, np.int64)
        object.__setattr__(self, "true_copy", tc)
        object.__setattr__(self, "true_genotype", tuple(self.true_genotype))
        if not (tc.size == self.track.n == len(self.true_genotype)):
            raise ValueError("truth annotations must match the track length")

    __eq__ = _fields_equal
    __reduce__ = _rebuilt


def generate(spec: SimSpec) -> TruthTrack:
    """Draw one track. Deterministic given the spec (including its seed)."""
    rng = np.random.default_rng(spec.seed)
    copy = np.full(spec.n, 2, dtype=np.int64)
    copy[spec.start_index : spec.start_index + spec.cnv_length] = spec.cnv_type.copy_number
    state = state_index(copy, rng.binomial(copy, spec.maf))
    logr = rng.normal(np.asarray(spec.mu_truth)[copy], spec.sigma_logr)
    baf = rng.normal(BAF_CENTERS[state], spec.sigma_baf)
    baf = np.clip(np.where(copy == 0, rng.uniform(0.0, 1.0, size=spec.n), baf), 0.0, 1.0)
    track = SnpTrack.from_values(logr=logr, baf=baf)
    return TruthTrack(track=track, true_copy=copy, true_genotype=STATE_ARRAY[state].tolist())


def score(true_copy, called_copy) -> tuple[float, float, float]:
    """SNP-level (TPR, FPR, FDR) with "positive" meaning true copy != 2.

    A true positive only requires the called copy to differ from 2; the
    class need not match. FDR is NaN when nothing was called positive.
    """
    true_copy = np.asarray(true_copy)
    called_copy = np.asarray(called_copy)
    if true_copy.shape != called_copy.shape:
        raise ValueError("true_copy and called_copy must have equal length")
    return _rates(*confusion_counts(true_copy, called_copy))


def _rates(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float, float]:
    """(TPR, FPR, FDR) of confusion counts; NaN where a denominator is 0."""
    tpr = tp / (tp + fn) if tp + fn else math.nan
    fpr = fp / (fp + tn) if fp + tn else math.nan
    fdr = fp / (tp + fp) if tp + fp else math.nan
    return tpr, fpr, fdr


def confusion_counts(true_copy, called_copy) -> tuple[int, int, int, int]:
    """(TP, FP, FN, TN) SNP counts for copy != 2 detection."""
    true_pos = np.asarray(true_copy) != 2
    called_pos = np.asarray(called_copy) != 2
    tp = int(np.count_nonzero(true_pos & called_pos))
    fp = int(np.count_nonzero(~true_pos & called_pos))
    fn = int(np.count_nonzero(true_pos & ~called_pos))
    tn = int(np.count_nonzero(~true_pos & ~called_pos))
    return tp, fp, fn, tn


#: CNV sizes of both datasets' corpora
CNV_SIZES = (5, 10, 20, 30, 40, 50)


def dataset1_specs(
    count: int = 3600,
    n: int = SimSpec.n,
    cnv_sizes: Sequence[int] = CNV_SIZES,
    seed: int = 0,
) -> list[SimSpec]:
    """Corpus of fixed-length tracks with a centered CNV.

    Sizes cycle through ``cnv_sizes`` and deletion/duplication alternate,
    so both are equally represented; per-track seeds derive from ``seed``
    deterministically.
    """
    return dataset2_specs(count, (n,), cnv_sizes, seed)


def dataset2_specs(
    count: int = 300,
    lengths: Sequence[int] = (4000, 8000, 12000, 16000, 20000),
    cnv_sizes: Sequence[int] = CNV_SIZES,
    seed: int = 1,
) -> list[SimSpec]:
    """Corpus of variable-length tracks with a centered CNV."""
    child_seeds = np.random.SeedSequence(seed).generate_state(max(count, 1), np.uint64)
    return [
        SimSpec(
            n=lengths[(i // 2) % len(lengths)],
            cnv_length=cnv_sizes[(i // 2) % len(cnv_sizes)],
            cnv_type=CnvType.DELETION1 if i % 2 == 0 else CnvType.DUPLICATION,
            seed=int(child_seeds[i]),
        )
        for i in range(count)
    ]


@dataclass
class BenchRow:
    """One aggregated benchmark cell (method x track shape)."""

    method: str
    n: int
    cnv_size: int
    cnv_type: str
    tpr: float
    fpr: float
    fdr: float
    iters_mean: float
    time_ms_mean: float


def run_benchmark(
    specs: Sequence[SimSpec],
    methods: Sequence[str],
    fdr_level: float = sc.DEFAULT_FDR_LEVEL,
    min_snps: int = sc.DEFAULT_MIN_SNPS,
    alpha: float = dpi_mod.DEFAULT_ALPHA,
    mu_init: tuple = dpi_mod.DEFAULT_COPY_LOGR_MEANS,
    tol: float = fl.DEFAULT_TOL,
    max_iter: int = fl.DEFAULT_MAX_ITER,
) -> list[BenchRow]:
    """Run each requested method over the corpus and aggregate per cell.

    Methods: "fused_lasso" (MMTDM + FDR calling), "dpi" (alternating
    imputation), "mmb" (block-relaxation fused lasso, for baselines).
    TP/FP/FN/TN counts pool across the tracks of one cell; iteration
    counts and per-track wall times average.
    """
    known = {"fused_lasso", "dpi", "mmb"}
    for m in methods:
        if m not in known:
            raise ValueError(f"unknown method {m!r}; expected one of {sorted(known)}")

    # (method, n, cnv_size, cnv_type) -> (each track's (TP, FP, FN, TN), iterations, times in ms)
    cells: dict[tuple, tuple[list, list, list]] = {}
    for spec in specs:
        truth = generate(spec)
        for method in methods:
            t0 = time.perf_counter()
            if method == "dpi":
                fit = pipeline.fit_dpi(
                    truth.track,
                    alpha=alpha,
                    mu_init=mu_init,
                    max_rounds=dpi_mod.DEFAULT_MAX_ROUNDS,
                )
                called, iters = fit.path.copy_numbers, max(fit.rounds, 1)
            else:
                _, fit, segments = pipeline.fit_fused_lasso(
                    truth.track,
                    epsilon=DEFAULT_EPSILON,
                    tol=tol,
                    max_iter=max_iter,
                    fdr_level=fdr_level,
                    min_snps=min_snps,
                    solver=fl.solve_mm_tdm if method == "fused_lasso" else fl.solve_mm_block,
                )
                called, iters = pipeline.called_copies(segments, spec.n), fit.iterations
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            key = (method, spec.n, spec.cnv_length, spec.cnv_type.value)
            counts, iterations, times_ms = cells.setdefault(key, ([], [], []))
            counts.append(confusion_counts(truth.true_copy, called))
            iterations.append(iters)
            times_ms.append(elapsed_ms)

    return [
        BenchRow(
            *key, *_rates(*map(sum, zip(*counts))), float(np.mean(iterations)), float(np.mean(times_ms))
        )
        for key, (counts, iterations, times_ms) in sorted(cells.items())
    ]


def format_report(rows: Sequence[BenchRow]) -> str:
    """Render benchmark rows as a TSV table, one column per ``BenchRow``
    field (floats with 6 significant digits)."""
    lines = ["\t".join(f.name for f in fields(BenchRow))] + [
        "\t".join(format(v, ".6g") if isinstance(v, float) else str(v) for v in astuple(r)) for r in rows
    ]
    return "\n".join(lines) + "\n"
