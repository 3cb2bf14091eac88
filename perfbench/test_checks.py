"""Self-tests of the benchmark's correctness checks.

Each check must accept the program's real output on a small input and
reject a corrupted copy of it. Run from the repository root with::

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import gen  # noqa: E402
from cnvfuse import cli  # noqa: E402


@pytest.fixture
def small_genome(monkeypatch):
    monkeypatch.setattr(gen, "ARM_LENGTHS", ((600, 900), (700, 800)))
    monkeypatch.setattr(gen, "SNPS_PER_ARM_CNV", 300)
    monkeypatch.setattr(gen, "TUMOUR_LENGTH", 1500)
    monkeypatch.setattr(gen, "TUMOUR_CNVS", 8)
    return gen.make_genome(7)


def _run_cli(genome, tmp_path, route):
    track = tmp_path / "genome.tsv"
    gen.write_track(genome, str(track))
    out, seg = tmp_path / "out.tsv", tmp_path / "seg.tsv"
    argv = [route, str(track), "--split-at", genome.split_at, "--output", str(out)]
    if route == "segment-dpi":
        argv += ["--segments-out", str(seg)]
    assert cli.main(argv) == 0
    return out.read_text(), seg.read_text() if route == "segment-dpi" else None


def _replace_field(text, row, col, value):
    lines = text.split("\n")
    parts = lines[row].split("\t")
    parts[col] = value
    lines[row] = "\t".join(parts)
    return "\n".join(lines)


def test_segment_fl_accepts_real_output_and_rejects_corruptions(small_genome, tmp_path):
    text, _ = _run_cli(small_genome, tmp_path, "segment-fl")
    clean = checks.check_segment_fl(text, small_genome)
    assert clean.failed == 0 and not clean.stray

    # shifted boundary: the first row ends one SNP later than it did
    lines = text.split("\n")
    end_pos = int(lines[1].split("\t")[2])
    pos = small_genome.positions
    shifted = _replace_field(text, 1, 2, str(int(pos[np.searchsorted(pos, end_pos) + 1])))
    assert checks.check_segment_fl(shifted, small_genome).failures[0]

    # wrong p on the first row
    p = float(lines[1].split("\t")[6])
    wrong_p = _replace_field(text, 1, 6, format(min(1.0, p * 1.01 + 1e-6), ".6g"))
    assert checks.check_segment_fl(wrong_p, small_genome).failures[0]

    # a call against the sign of z
    z = float(lines[1].split("\t")[5])
    flipped = _replace_field(text, 1, 7, "duplication" if z < 0 else "deletion")
    assert checks.check_segment_fl(flipped, small_genome).failures[0]

    # a dropped row leaves its arm uncovered
    dropped = "\n".join(lines[:1] + lines[2:])
    assert checks.check_segment_fl(dropped, small_genome).failures[0]


def test_segment_dpi_accepts_real_output_and_rejects_corruptions(small_genome, tmp_path):
    states, segments = _run_cli(small_genome, tmp_path, "segment-dpi")
    clean = checks.check_segment_dpi(states, segments, small_genome)
    assert clean.failed == 0 and not clean.stray

    lines = states.split("\n")
    dropped = "\n".join(lines[:5] + lines[6:])
    assert checks.check_segment_dpi(dropped, segments, small_genome).failures[0]

    row = next(k for k, line in enumerate(lines) if line.endswith("\tAB\t2"))
    seq = next(
        k for k, s in enumerate(small_genome.sequences) if s.start <= row - 1 < s.stop
    )
    wrong_genotype = _replace_field(states, row, 3, "A")
    assert checks.check_segment_dpi(wrong_genotype, segments, small_genome).failures[seq]

    seg_lines = segments.split("\n")
    wrong_segment = _replace_field(segments, 1, 3, str(int(seg_lines[1].split("\t")[3]) + 1))
    assert checks.check_segment_dpi(states, wrong_segment, small_genome).failures[0]


def test_p_matches_z_to_printed_precision():
    assert checks.p_matches_z("0.05", "1.95996")
    assert checks.p_matches_z("0", "-45.1234")
    assert checks.p_matches_z(format(math.erfc(30.0 / math.sqrt(2)), ".6g"), "30")
    assert not checks.p_matches_z("0.0501", "1.95996")
    assert not checks.p_matches_z("0.05", "2.5")


@pytest.fixture(scope="module")
def arm():
    rng = np.random.default_rng(3)
    copy = np.full(1500, 2, dtype=np.int64)
    copy[700:740] = 1
    nb, logr, baf = gen._measure(rng, copy)
    (sigma, lam1, lam2, fit, segments), dp = corpus.fit_arm(corpus.Package("cnvfuse"), logr, baf)
    return copy, nb, logr, baf, sigma, lam1, lam2, fit, segments, dp


def _fl_reasons(arm, beta=None, segments=None):
    copy, _, y, _, sigma, lam1, lam2, fit, segs, _ = arm
    if segments is None:
        segments = [(s.start_index, s.end_index, s.z, s.p_value, s.call.value) for s in segs]
    beta = fit.beta if beta is None else beta
    return checks.check_fl_fit(y, beta, fit.objective, sigma, lam1, lam2, copy, segments)


def test_fl_fit_check_rejects_perturbed_beta(arm):
    assert _fl_reasons(arm) == []
    beta = arm[7].beta.copy()
    beta[100:110] += 0.01
    assert _fl_reasons(arm, beta=beta)


def test_fl_fit_check_rejects_broken_segments(arm):
    segs = [(s.start_index, s.end_index, s.z, s.p_value, s.call.value) for s in arm[8]]
    start, end, z, p, call = segs[0]
    assert _fl_reasons(arm, segments=[(start, end - 1, z, p, call)] + segs[1:])
    assert _fl_reasons(arm, segments=[(start, end, z, p * 2 + 1e-3, call)] + segs[1:])


def _dpi_reasons(arm, states, objective):
    copy, nb, y, x, *_, dp = arm
    m = dp.model
    return checks.check_dpi_fit(
        y, x, states, objective, m.mu, m.lambda1, m.lambda2, m.alpha, copy, nb
    )


def test_dpi_check_rejects_non_optimal_paths(arm):
    copy, nb, y, x, *_, dp = arm
    names = {g: s for s, g in enumerate(checks.GENOTYPE_NAMES)}
    states = np.array([names[s.genotype] for s in dp.path.states])
    assert _dpi_reasons(arm, states, dp.path.objective) == []
    m = dp.model
    stage = checks._stage_table(y, x, m.mu, m.lambda1, m.alpha)

    # one genotype swapped for a worse one of the same copy number,
    # reported with its true objective
    i = int(np.flatnonzero(states == names["AB"])[0])
    worse = states.copy()
    worse[i] = names["AA"]
    f = checks.discrete_objective(stage, worse, m.mu, m.lambda2)
    assert _dpi_reasons(arm, worse, f)

    # a spurious copy-0 run
    worse = states.copy()
    worse[200:205] = names["phi"]
    f = checks.discrete_objective(stage, worse, m.mu, m.lambda2)
    assert _dpi_reasons(arm, worse, f)

    # the right path reported with a wrong objective
    assert _dpi_reasons(arm, states, dp.path.objective * (1 + 1e-6))
