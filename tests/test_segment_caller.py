"""Tests for segment extraction and FDR-controlled calling."""

import math

import numpy as np
import pytest

from cnvfuse.fused_lasso import solve_mm_tdm
from cnvfuse.segment_caller import (
    Call,
    SegmentCall,
    call_cnvs,
    estimate_fdr,
    extract_segments,
    fdr_cutoff,
    merge_adjacent_calls,
    normal_p_value,
    segment_z,
)
from cnvfuse.signal_model import TuningConstants


def seg(n_snps, p_value, z=1.0, call=Call.NEUTRAL):
    return SegmentCall(0, n_snps - 1, n_snps, 0.0, z, p_value, call)


class TestExtractSegments:
    def test_constant_vector_is_one_segment(self):
        assert extract_segments([0.0, 0.0, 0.0], 1e-4) == [(0, 2)]

    def test_step_splits(self):
        assert extract_segments([0.0, 0.0, 1.0, 1.0], 1e-4) == [(0, 1), (2, 3)]

    def test_single_point(self):
        assert extract_segments([3.0], 1e-4) == [(0, 0)]

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        beta = np.repeat(rng.normal(size=7), rng.integers(1, 9, size=7))
        ranges = extract_segments(beta, 1e-6)
        assert ranges[0][0] == 0 and ranges[-1][1] == beta.size - 1
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert c == b + 1

    def test_solver_output_boundaries_near_truth(self):
        # the negative region may itself be a staircase of plateaus, but
        # its outer boundaries must land on the true step within one SNP
        rng = np.random.default_rng(1)
        y = np.concatenate([np.zeros(200), np.full(40, -1.0), np.zeros(200)])
        y = y + rng.normal(0, 0.1, y.size)
        fit = solve_mm_tdm(y, TuningConstants(0.1, 0.6), tol=1e-8)
        ranges = extract_segments(fit.beta, 0.1 * 0.1)
        negative = [r for r in ranges if np.mean(fit.beta[r[0] : r[1] + 1]) < -0.5]
        assert negative
        assert abs(negative[0][0] - 200) <= 1
        assert abs(negative[-1][1] - 239) <= 1


class TestSegmentZ:
    def test_zero_segment(self):
        assert segment_z(np.zeros(10), (2, 7), 1.0) == 0.0

    def test_arithmetic_small(self):
        beta = np.full(4, 0.5)
        assert segment_z(beta, (0, 3), 1.0) == pytest.approx(1.0)

    def test_arithmetic_negative(self):
        beta = np.full(25, -0.6)
        assert segment_z(beta, (0, 24), 0.3) == pytest.approx(-10.0)

    def test_p_value_is_two_sided_tail(self):
        assert normal_p_value(0.0) == 1.0
        assert normal_p_value(1.959963985) == pytest.approx(0.05, abs=1e-6)
        assert normal_p_value(-1.959963985) == pytest.approx(0.05, abs=1e-6)


class TestEstimateFdr:
    def test_single_segment(self):
        assert estimate_fdr([seg(10, 0.01)], 0.05) == pytest.approx(0.05)

    def test_two_segments(self):
        segs = [seg(10, 0.01), seg(30, 0.5)]
        assert estimate_fdr(segs, 0.05) == pytest.approx(0.2)

    def test_empty_denominator_is_infinite(self):
        assert estimate_fdr([seg(10, 0.5)], 0.05) == math.inf

    def test_linear_in_q_for_fixed_call_set(self):
        segs = [seg(10, 0.001), seg(30, 0.9)]
        f1 = estimate_fdr(segs, 0.01)
        f2 = estimate_fdr(segs, 0.02)
        assert f2 == pytest.approx(2.0 * f1)

    def test_nonincreasing_in_denominator(self):
        high = [seg(10, 0.01), seg(30, 0.01)]
        low = [seg(10, 0.01), seg(30, 0.5)]
        assert estimate_fdr(high, 0.05) <= estimate_fdr(low, 0.05)


def brute_force_cutoff(segments, level):
    """Largest observed p in (0, 1) passing estimate_fdr, tried one by
    one; 0.0 when only p-values that underflowed to 0 pass."""
    for q in sorted({s.p_value for s in segments if 0.0 < s.p_value < 1.0}, reverse=True):
        if estimate_fdr(segments, q) <= level:
            return q
    return 0.0 if any(s.p_value == 0.0 for s in segments) else None


class TestFdrCutoff:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = int(rng.integers(1, 40))
            # draw from a small pool so ties, zeros and ones all occur
            pool = np.concatenate([[0.0, 1.0], 10.0 ** -rng.uniform(0, 8, 6)])
            segs = [seg(int(n), float(p)) for n, p in zip(rng.integers(1, 300, k), rng.choice(pool, k))]
            level = float(rng.choice([0.001, 0.01, 0.05, 0.2]))
            assert fdr_cutoff(segs, level) == brute_force_cutoff(segs, level)

    def test_underflowed_p_alone_passes_at_zero(self):
        assert fdr_cutoff([seg(5000, 1.0), seg(20, 0.0), seg(4000, 0.3)], 0.05) == 0.0

    def test_nothing_passes(self):
        assert fdr_cutoff([seg(5000, 1.0), seg(20, 0.5)], 0.05) is None


class TestCallCnvs:
    def test_flat_track_yields_no_calls(self):
        rng = np.random.default_rng(2)
        beta = rng.normal(0, 1e-4, size=500)
        segs = call_cnvs(beta, sigma_hat=0.2)
        assert all(s.call is Call.NEUTRAL for s in segs)

    def test_single_strong_deletion(self):
        beta = np.concatenate([np.zeros(400), np.full(50, -0.6), np.zeros(400)])
        segs = call_cnvs(beta, 0.15, fdr_level=0.05)
        called = [s for s in segs if s.call is not Call.NEUTRAL]
        assert len(called) == 1
        assert called[0].call is Call.DELETION
        assert (called[0].start_index, called[0].end_index) == (400, 449)

    def test_noisy_deletion_merges_to_one_call(self):
        # staircase plateaus over one CNV carry the same call and merge
        rng = np.random.default_rng(3)
        y = np.concatenate([np.zeros(400), np.full(50, -0.6), np.zeros(400)])
        y = y + rng.normal(0, 0.15, y.size)
        fit = solve_mm_tdm(y, TuningConstants(0.15, 0.8))
        segs = call_cnvs(fit.beta, 0.15, fdr_level=0.05)
        merged = merge_adjacent_calls(fit.beta, segs, 0.15)
        called = [s for s in merged if s.call is not Call.NEUTRAL]
        assert len(called) == 1
        assert called[0].call is Call.DELETION
        assert called[0].start_index >= 395 and called[0].end_index <= 455
        assert sum(s.n_snps for s in merged) == y.size

    def test_underflowed_p_value_is_called(self):
        # a 20-SNP copy-0 run: z is about -134 and its p-value underflows
        # to 0, and no other segment of the arm is significant
        sigma = 0.2
        depth = -134.0 * math.sqrt(20) * sigma / 20
        beta = np.concatenate([np.zeros(4000), np.full(20, depth), np.zeros(5000)])
        segs = call_cnvs(beta, sigma)
        called = [s for s in segs if s.call is not Call.NEUTRAL]
        assert len(called) == 1
        assert called[0].call is Call.DELETION
        assert called[0].p_value == 0.0 and called[0].z == pytest.approx(-134.0)
        assert (called[0].start_index, called[0].end_index) == (4000, 4019)

    def test_min_snps_filter(self):
        beta = np.concatenate([np.zeros(200), np.full(3, -2.0), np.zeros(200)])
        with_filter = call_cnvs(beta, 0.2, min_snps=5)
        assert all(s.call is Call.NEUTRAL for s in with_filter)
        without = call_cnvs(beta, 0.2, min_snps=1)
        assert any(s.call is Call.DELETION for s in without)

    def test_partition_covers_track(self):
        rng = np.random.default_rng(4)
        beta = np.repeat(rng.normal(size=9), 30)
        segs = call_cnvs(beta, 0.5)
        assert sum(s.n_snps for s in segs) == beta.size
        assert segs[0].start_index == 0
        assert segs[-1].end_index == beta.size - 1

    def test_sign_consistency(self):
        rng = np.random.default_rng(5)
        y = np.concatenate(
            [np.zeros(200), np.full(40, -0.8), np.zeros(200), np.full(40, 0.8), np.zeros(200)]
        ) + rng.normal(0, 0.15, 680)
        fit = solve_mm_tdm(y, TuningConstants(0.15, 0.8))
        for s in call_cnvs(fit.beta, 0.15):
            if s.call is Call.DELETION:
                assert s.z < 0 and s.mean_beta < 0
            elif s.call is Call.DUPLICATION:
                assert s.z > 0 and s.mean_beta > 0

    def test_lower_fdr_level_never_adds_calls(self):
        rng = np.random.default_rng(6)
        y = np.concatenate([np.zeros(300), np.full(30, -0.5), np.zeros(300)])
        y = y + rng.normal(0, 0.2, y.size)
        fit = solve_mm_tdm(y, TuningConstants(0.2, 0.9))

        def called_snps(level):
            out = set()
            for s in call_cnvs(fit.beta, 0.2, fdr_level=level):
                if s.call is not Call.NEUTRAL:
                    out.update(range(s.start_index, s.end_index + 1))
            return out

        levels = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2]
        sets = [called_snps(lv) for lv in levels]
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger

    def test_rejects_bad_fdr_level(self):
        with pytest.raises(ValueError):
            call_cnvs(np.zeros(10), 0.1, fdr_level=1.5)
