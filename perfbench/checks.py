"""Correctness checks on cnvfuse outputs, computed apart from the program.

Nothing here imports cnvfuse or compares against a saved copy of earlier
output. Each check is either a property the method must have (the rows
partition their sequence, the DP path is optimal, the MM fit is no worse
than its start) or a quantity the benchmark recomputes from the method's
definition (the criterion values, p = erfc(|z|/sqrt 2), the run-length
encoding of copy numbers, the trimmed sd).

Genome checks return one list of failure reasons per sequence; a
sequence fails when its list is not empty. Accuracy against the planted
truth is pooled over the whole file and reported with its floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gen import MU, Genome

#: smoothing constant of the CLI and of TuningConstants by default
EPSILON = 1e-10

#: floors of the repository's acceptance criteria 8 (fused lasso) and 7 (DPI)
FL_DEL_TPR_FLOOR = 0.80
FL_FDR_CEILING = 0.15
DPI_TPR_FLOOR = 0.85
DPI_FDR_CEILING = 0.05

# ten genotype states: name -> (copy number, BAF center or None)
GENOTYPES = {
    "phi": (0, None),
    "A": (1, 0.0),
    "B": (1, 1.0),
    "AA": (2, 0.0),
    "AB": (2, 0.5),
    "BB": (2, 1.0),
    "AAA": (3, 0.0),
    "AAB": (3, 1.0 / 3.0),
    "ABB": (3, 2.0 / 3.0),
    "BBB": (3, 1.0),
}
GENOTYPE_NAMES = tuple(GENOTYPES)
_STATE_COPY = np.array([GENOTYPES[g][0] for g in GENOTYPE_NAMES])

# relative agreement demanded between an objective the program reports
# and the benchmark's own evaluation (different summation order only)
OBJECTIVE_RTOL = 1e-9
# slack for single-site optimality: stage costs are O(1..100)
SITE_ATOL = 1e-8


@dataclass
class Accuracy:
    """Pooled SNP-level accuracy against the planted truth."""

    name: str
    value: float
    floor: float
    higher_is_better: bool

    @property
    def ok(self) -> bool:
        if math.isnan(self.value):
            return False
        return self.value >= self.floor if self.higher_is_better else self.value <= self.floor


@dataclass
class GenomeReport:
    failures: list  # one list of reasons per sequence
    accuracy: list = field(default_factory=list)
    stray: list = field(default_factory=list)  # rows that belong to no sequence

    @property
    def failed(self) -> int:
        return sum(1 for f in self.failures if f)

    @property
    def correct(self) -> bool:
        return not self.stray and all(a.ok for a in self.accuracy)

    def problems(self) -> list:
        out = [f"sequence {k}: {r[0]}" for k, r in enumerate(self.failures) if r]
        out += [f"stray row: {s}" for s in self.stray[:3]]
        out += [f"{a.name} {a.value:.4f} misses {a.floor}" for a in self.accuracy if not a.ok]
        return out


# ----------------------------------------------------------------- helpers


def _rows(text: str, header: tuple) -> list:
    lines = text.split("\n")
    if not lines or tuple(lines[0].split("\t")) != header:
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [line.split("\t") for line in lines[1:] if line]


def _group_rows(rows, genome: Genome, pos_col: int = 1, chrom_col: int = 0):
    """Assign each output row to the sequence whose position range holds
    its start position; return per-sequence row lists and stray rows."""
    by_chrom: dict = {}
    for k, s in enumerate(genome.sequences):
        by_chrom.setdefault(s.chrom, []).append(
            (int(genome.positions[s.start]), int(genome.positions[s.stop - 1]), k)
        )
    groups = [[] for _ in genome.sequences]
    stray = []
    for row in rows:
        try:
            pos = int(row[pos_col])
        except (IndexError, ValueError):
            stray.append("\t".join(row))
            continue
        for first, last, k in by_chrom.get(row[chrom_col], ()):
            if first <= pos <= last:
                groups[k].append(row)
                break
        else:
            stray.append("\t".join(row))
    return groups, stray


def p_matches_z(p_text: str, z_text: str) -> bool:
    """p equals erfc(|z|/sqrt 2) up to the 6 significant digits both were
    printed with: p must fall in the range erfc takes over the interval
    that the printed z stands for, widened by p's own rounding."""
    z, p = abs(float(z_text)), float(p_text)
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(z)) - 5) if z > 0 else 0.0
    hi = math.erfc(max(z - half_ulp, 0.0) / math.sqrt(2.0))
    lo = math.erfc((z + half_ulp) / math.sqrt(2.0))
    return lo * (1 - 1e-5) - 1e-300 <= p <= hi * (1 + 1e-5)


def _runs(values: np.ndarray) -> list:
    """(start, stop) of maximal runs of equal values."""
    if values.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(values)) + 1
    bounds = [0, *cuts.tolist(), values.size]
    return list(zip(bounds[:-1], bounds[1:]))


def _pooled(true_copy: np.ndarray, called: np.ndarray):
    true_pos, called_pos = true_copy != 2, called != 2
    tp = int(np.count_nonzero(true_pos & called_pos))
    fp = int(np.count_nonzero(~true_pos & called_pos))
    fn = int(np.count_nonzero(true_pos & ~called_pos))
    tpr = tp / (tp + fn) if tp + fn else math.nan
    fdr = fp / (tp + fp) if tp + fp else 0.0
    return tpr, fdr


# ------------------------------------------------------- genome: segment-fl

FL_HEADER = ("chrom", "start_pos", "end_pos", "n_snps", "mean_beta", "z", "p", "call")
CALL_COPY = {"neutral": 2, "deletion": 1, "duplication": 3}


def call_follows_z(call: str, z: float) -> bool:
    """Deletions carry z < 0, duplications z > 0; neutral carries any z."""
    return call == "neutral" or (call == "deletion" and z < 0) or (call == "duplication" and z > 0)


def _fl_sequence(rows, pos: np.ndarray, called: np.ndarray) -> list:
    """Failure reasons for the rows of one sequence; fills ``called``."""
    reasons = []
    expect = 0
    for chrom, start_pos, end_pos, n_snps, _, z, p, call in rows:
        a = int(np.searchsorted(pos, int(start_pos)))
        b = int(np.searchsorted(pos, int(end_pos)))
        if a != expect or b >= pos.size or pos[a] != int(start_pos) or pos[b] != int(end_pos):
            return [f"rows do not tile the arm at {chrom}:{start_pos}"]
        if int(n_snps) != b - a + 1:
            reasons.append(f"n_snps {n_snps} != {b - a + 1} at {chrom}:{start_pos}")
        if not p_matches_z(p, z):
            reasons.append(f"p {p} != erfc(|{z}|/sqrt 2) at {chrom}:{start_pos}")
        if not call_follows_z(call, float(z)):
            reasons.append(f"call {call} against z {z} at {chrom}:{start_pos}")
        called[a : b + 1] = CALL_COPY.get(call, -1)
        expect = b + 1
    if expect != pos.size:
        reasons.append(f"rows cover {expect} of {pos.size} SNPs")
    return reasons


def check_segment_fl(text: str, genome: Genome) -> GenomeReport:
    """Rows partition every sequence; p matches z; calls follow the sign
    of z; deletion sensitivity and the share of called SNPs outside
    planted CNVs meet criterion 8's floors.

    As in criterion 8, sensitivity is measured on hemizygous (copy 1)
    deletions of at least 20 SNPs. Copy-0 deletions are left out: their
    p-value underflows to 0, and ``call_cnvs`` never calls such a segment
    unless another segment of the arm has 0 < p <= q*, which depends on
    the seed.
    """
    groups, stray = _group_rows(_rows(text, FL_HEADER), genome)
    called = np.full(genome.n, -1, dtype=np.int64)
    failures = []
    for seq, rows in zip(genome.sequences, groups):
        try:
            reasons = _fl_sequence(rows, genome.positions[seq.start : seq.stop], called[seq.start : seq.stop])
        except (ValueError, IndexError) as exc:
            reasons = [f"malformed row: {exc}"]
        failures.append(reasons)

    ok_rows = np.zeros(genome.n, dtype=bool)
    for seq, reasons in zip(genome.sequences, failures):
        ok_rows[seq.start : seq.stop] = not reasons
    truth = genome.true_copy[ok_rows]
    calls = called[ok_rows]
    big_del = np.zeros(genome.n, dtype=bool)
    for a, b in _runs(genome.true_copy):
        if genome.true_copy[a] == 1 and b - a >= 20:
            big_del[a:b] = True
    big_del = big_del[ok_rows]
    del_tpr = float(np.mean(calls[big_del] != 2)) if big_del.any() else math.nan
    _, fdr = _pooled(truth, calls)
    return GenomeReport(
        failures,
        [
            Accuracy("copy-1 deletion TPR (>= 20 SNPs)", del_tpr, FL_DEL_TPR_FLOOR, True),
            Accuracy("share of calls outside planted CNVs", fdr, FL_FDR_CEILING, False),
        ],
        stray,
    )


# ------------------------------------------------------ genome: segment-dpi

DPI_HEADER = ("snp_id", "chrom", "pos", "genotype_state", "copy_number")
SEG_HEADER = ("chrom", "start_pos", "end_pos", "n_snps", "copy_number")


def _dpi_sequence(rows, seg_rows, genome: Genome, seq, called: np.ndarray) -> list:
    """Failure reasons for the rows of one sequence; fills ``called``."""
    want_ids = genome.snp_ids[seq.start : seq.stop]
    want_pos = genome.positions[seq.start : seq.stop].tolist()
    if [r[0] for r in rows] != want_ids or [int(r[2]) for r in rows] != want_pos:
        return [f"{len(rows)} rows for {len(want_ids)} SNPs, or out of order"]
    reasons = []
    copies = np.array([int(r[4]) for r in rows], dtype=np.int64)
    for r in rows:
        if GENOTYPES.get(r[3], (None,))[0] != int(r[4]):
            reasons.append(f"genotype {r[3]} with copy number {r[4]} at {r[1]}:{r[2]}")
            break
    rle = [
        [seq.chrom, str(want_pos[a]), str(want_pos[b - 1]), str(b - a), str(copies[a])]
        for a, b in _runs(copies)
    ]
    if seg_rows != rle:
        reasons.append("segments differ from the run-length encoding of copy numbers")
    called[:] = copies
    return reasons


def check_segment_dpi(states_text: str, segments_text: str, genome: Genome) -> GenomeReport:
    """One row per input SNP in input order; genotypes agree with copy
    numbers; the segments file is the run-length encoding of the per-SNP
    copy numbers; TPR and FDR meet criterion 7's floors."""
    groups, stray = _group_rows(_rows(states_text, DPI_HEADER), genome, pos_col=2, chrom_col=1)
    seg_groups, seg_stray = _group_rows(_rows(segments_text, SEG_HEADER), genome)
    called = np.full(genome.n, -1, dtype=np.int64)
    failures = []
    for seq, rows, seg_rows in zip(genome.sequences, groups, seg_groups):
        try:
            reasons = _dpi_sequence(rows, seg_rows, genome, seq, called[seq.start : seq.stop])
        except (ValueError, IndexError) as exc:
            reasons = [f"malformed row: {exc}"]
        failures.append(reasons)

    ok_rows = np.zeros(genome.n, dtype=bool)
    for seq, reasons in zip(genome.sequences, failures):
        ok_rows[seq.start : seq.stop] = not reasons
    tpr, fdr = _pooled(genome.true_copy[ok_rows], called[ok_rows])
    return GenomeReport(
        failures,
        [
            Accuracy("DPI TPR", tpr, DPI_TPR_FLOOR, True),
            Accuracy("DPI FDR", fdr, DPI_FDR_CEILING, False),
        ],
        stray + seg_stray,
    )


# ------------------------------------------------------ arm corpus: library


def trimmed_sd(y: np.ndarray) -> float:
    """Sample sd of the values between their 2.5th and 97.5th percentiles
    (linear interpolation, inclusive window): the documented sigma_hat."""
    lo, hi = np.percentile(y, [2.5, 97.5])
    return float(np.std(y[(y >= lo) & (y <= hi)], ddof=1))


def smoothed_criterion(beta, y, lam1: float, lam2: float, eps: float = EPSILON) -> float:
    """1/2 sum (y - b)^2 + lam1 sum ||b_i|| + lam2 sum ||b_i - b_{i-1}||
    with ||x|| = sqrt(x^2 + eps)."""
    beta = np.asarray(beta, dtype=np.float64)
    return float(
        0.5 * np.sum((y - beta) ** 2)
        + lam1 * np.sum(np.sqrt(beta * beta + eps))
        + lam2 * np.sum(np.sqrt(np.diff(beta) ** 2 + eps))
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= OBJECTIVE_RTOL * max(1.0, abs(a), abs(b))


def check_fl_fit(y, beta, objective, sigma, lam1, lam2, true_copy, segments) -> list:
    """Failure reasons for one arm through the fused-lasso route.

    ``segments`` holds (start, end, z, p, call) per returned segment.
    """
    reasons = []
    n = y.size
    if not _close(sigma, trimmed_sd(y)):
        reasons.append(f"sigma {sigma!r} != trimmed sd {trimmed_sd(y)!r}")
    if not (_close(lam1, sigma) and _close(lam2, 2.0 * sigma * math.sqrt(math.log(n)))):
        reasons.append("lambdas differ from sigma, 2 sigma sqrt(ln n)")
    f_beta = smoothed_criterion(beta, y, lam1, lam2)
    if not _close(f_beta, objective):
        reasons.append(f"criterion at beta {f_beta!r} != reported {objective!r}")
    f_y = smoothed_criterion(y, y, lam1, lam2)
    f_true = smoothed_criterion(np.asarray(MU)[true_copy], y, lam1, lam2)
    if f_beta > f_y or f_beta > f_true:
        reasons.append(f"criterion {f_beta!r} above start {f_y!r} or planted means {f_true!r}")
    expect = 0
    for start, end, z, p, call in segments:
        if start != expect or end < start:
            reasons.append(f"segments do not tile the arm at {start}")
            break
        if not _close(p, math.erfc(abs(z) / math.sqrt(2.0))):
            reasons.append(f"p {p!r} != erfc(|z|/sqrt 2) for z {z!r}")
        if not call_follows_z(call, z):
            reasons.append(f"call {call} against z {z!r}")
        expect = end + 1
    if not reasons and expect != n:
        reasons.append(f"segments cover {expect} of {n} SNPs")
    return reasons


def _baf_loss(x: np.ndarray) -> np.ndarray:
    """(n, 10) BAF loss per genotype; uniform-draw loss for copy 0."""
    out = np.empty((x.size, len(GENOTYPE_NAMES)))
    for s, g in enumerate(GENOTYPE_NAMES):
        center = GENOTYPES[g][1]
        out[:, s] = (x**3 + (1.0 - x) ** 3) / 3.0 if center is None else (x - center) ** 2
    return out


def _stage_table(y, x, mu, lam1, alpha) -> np.ndarray:
    """(n, 10) stage cost: LogR loss + alpha * BAF loss + lasso penalty."""
    mu = np.asarray(mu, dtype=np.float64)
    m = mu[_STATE_COPY]
    return (y[:, None] - m[None, :]) ** 2 + alpha * _baf_loss(x) + lam1 * np.abs(m)[None, :]


def discrete_objective(stage: np.ndarray, states: np.ndarray, mu, lam2: float) -> float:
    """Objective of a genotype-state path given its stage-cost table."""
    m = np.asarray(mu, dtype=np.float64)[_STATE_COPY[states]]
    return float(stage[np.arange(states.size), states].sum() + lam2 * np.abs(np.diff(m)).sum())


def check_dpi_fit(y, x, states, objective, mu, lam1, lam2, alpha, true_copy, true_nb) -> list:
    """Failure reasons for one arm through the DPI route.

    ``states`` holds genotype indices into GENOTYPE_NAMES; ``mu`` and the
    constants are those of the model the fit returned. The path must
    reproduce its reported objective, be no worse than the planted path
    or the all-copy-2 path, and be optimal against every path that
    differs from it at one SNP, as an exact DP optimum is.
    """
    reasons = []
    mu = np.asarray(mu, dtype=np.float64)
    if not np.all(np.diff(mu) > 0):
        reasons.append(f"means {mu.tolist()} not strictly increasing")
    stage = _stage_table(y, x, mu, lam1, alpha)
    f_path = discrete_objective(stage, states, mu, lam2)
    if not _close(f_path, objective):
        reasons.append(f"objective of path {f_path!r} != reported {objective!r}")

    names = {g: s for s, g in enumerate(GENOTYPE_NAMES)}
    planted = np.array(
        [
            names["phi"] if c == 0 else names["A" * (c - b) + "B" * b]
            for c, b in zip(true_copy.tolist(), true_nb.tolist())
        ]
    )
    two = 3 + np.argmin(stage[:, 3:6], axis=1)
    for label, other in (("planted", planted), ("all-copy-2", two)):
        f_other = discrete_objective(stage, other, mu, lam2)
        if f_path > f_other + SITE_ATOL:
            reasons.append(f"path {f_path!r} worse than the {label} path {f_other!r}")

    # single-site moves: change state i to s, neighbours fixed
    n = states.size
    m = mu[_STATE_COPY]
    cur_m = m[states]
    delta = stage - stage[np.arange(n), states][:, None]
    if n > 1:
        left = cur_m[:-1, None]
        delta[1:] += lam2 * (np.abs(m[None, :] - left) - np.abs(cur_m[1:, None] - left))
        right = cur_m[1:, None]
        delta[:-1] += lam2 * (np.abs(m[None, :] - right) - np.abs(cur_m[:-1, None] - right))
    worst = float(delta.min())
    if worst < -SITE_ATOL:
        i = int(np.argmin(delta.min(axis=1)))
        reasons.append(f"changing SNP {i} alone lowers the objective by {-worst!r}")
    return reasons
