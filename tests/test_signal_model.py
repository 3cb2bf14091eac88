"""Tests for domain types, noise estimation, and default tuning constants."""

import math

import numpy as np
import pytest
from scipy import stats

from cnvfuse.errors import DegenerateSignal, TooFewSnps
from cnvfuse.signal_model import (
    TRIM_LOWER_PCT,
    TRIM_UPPER_PCT,
    STATES_BY_COPY,
    SnpTrack,
    TEN_STATES,
    TuningConstants,
    _median,
    _percentiles,
    default_lambdas,
    estimate_sigma,
    trimmed_std,
)


def make_track(logr, baf=None):
    logr = np.asarray(logr, dtype=float)
    if baf is None:
        baf = np.full(logr.size, 0.5)
    return SnpTrack.from_values(logr=logr, baf=baf)


def truncated_normal_sd(lower_pct=2.5, upper_pct=97.5):
    """Analytic sd of a standard normal truncated to its central window."""
    a = stats.norm.ppf(lower_pct / 100.0)
    b = stats.norm.ppf(upper_pct / 100.0)
    return stats.truncnorm.std(a, b)


class TestEstimateSigma:
    def test_standard_normal_matches_truncated_sd(self):
        rng = np.random.default_rng(11)
        oracle = truncated_normal_sd()  # ~0.8711
        sigma = estimate_sigma(make_track(rng.normal(size=1000)))
        assert sigma == pytest.approx(oracle, rel=0.10)

    def test_constant_input_is_degenerate(self):
        with pytest.raises(DegenerateSignal):
            estimate_sigma(make_track(np.zeros(100)))

    def test_outliers_are_trimmed_away(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=1000)
        idx = rng.choice(1000, size=20, replace=False)
        y[idx] = np.where(rng.random(20) < 0.5, -50.0, 50.0)
        sigma = estimate_sigma(make_track(y))
        assert sigma == pytest.approx(truncated_normal_sd(), rel=0.15)
        assert sigma < 2.0  # far below what the outliers would inflate

    def test_too_few_snps(self):
        with pytest.raises(TooFewSnps):
            trimmed_std(np.arange(39.0))

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=300)
        assert trimmed_std(y + 17.3) == pytest.approx(trimmed_std(y), rel=1e-12)

    @pytest.mark.parametrize("c", [-3.0, 0.25, 7.5])
    def test_linear_scaling(self, c):
        rng = np.random.default_rng(14)
        y = rng.normal(size=300)
        assert trimmed_std(c * y) == pytest.approx(abs(c) * trimmed_std(y), rel=1e-10)


def tied_values(rng, n):
    """``n`` draws from a few values, 0.0 and -0.0 among them."""
    pool = np.concatenate([rng.normal(size=int(rng.integers(1, 8))).round(1), [0.0, -0.0]])
    return rng.choice(pool, size=n)


class TestPartitionPercentiles:
    TRIM = [TRIM_LOWER_PCT, TRIM_UPPER_PCT]

    def test_trimmed_window_and_sd_match_numpy(self):
        # trimmed_std uses the percentiles only in a >=/<= window, where
        # 0.0 and -0.0 compare equal, so the sign of a zero may differ
        rng = np.random.default_rng(41)
        lengths = [40, 41, 42, 79, 80, 81, 401, 20_000, *rng.integers(40, 20_001, size=30)]
        # numpy's two-sided lerp differs from a one-sided one in about 1 of
        # 400 short arrays
        lengths += rng.integers(40, 3_000, size=1_000).tolist()
        for n in lengths:
            for values in (tied_values(rng, n), rng.normal(size=n), np.zeros(n) * -1.0):
                kept = values.copy()
                lo, hi = _percentiles(values, self.TRIM)
                ref_lo, ref_hi = np.percentile(values, self.TRIM)
                assert values.tobytes() == kept.tobytes()
                assert lo == ref_lo and hi == ref_hi, n
                window = (values >= ref_lo) & (values <= ref_hi)
                assert np.array_equal((values >= lo) & (values <= hi), window), n
                ref_sd = values[window].std(ddof=1)
                if ref_sd > 0:
                    assert trimmed_std(values) == ref_sd, n

    def test_nan_input_gives_nan(self):
        rng = np.random.default_rng(42)
        for n in (100, 1_000, 20_000):
            values = rng.normal(size=n)
            values[[3, n // 2]] = np.nan
            assert np.isnan(_percentiles(values, self.TRIM)).all(), n


class TestPartitionMedian:
    def test_bit_identical_to_numpy(self):
        rng = np.random.default_rng(29)
        for n in [5, 6, 7, 8, 41, 42, 20_000, *rng.integers(5, 20_001, size=30)]:
            for values in (tied_values(rng, n), rng.normal(size=n), np.zeros(n) * -1.0):
                kept = values.copy()
                got = np.float64(_median(values))
                assert got.tobytes() == np.float64(np.median(values)).tobytes(), n
                assert values.tobytes() == kept.tobytes()

    def test_nan_input_gives_nan(self):
        values = np.random.default_rng(30).normal(size=9)
        values[4] = np.nan
        assert np.isnan(_median(values))


class TestDefaultLambdas:
    def test_formula_small_n(self):
        lam1, lam2 = default_lambdas(1.0, 3)
        assert lam1 == 1.0
        assert lam2 == pytest.approx(2.0 * math.sqrt(math.log(3.0)), rel=1e-12)
        assert lam2 == pytest.approx(2.0962941, abs=1e-6)

    def test_formula_paper_scale(self):
        # magnitude agrees with the published per-individual averages
        lam1, lam2 = default_lambdas(0.13, 13000)
        assert lam1 == 0.13
        assert lam2 == pytest.approx(0.26 * math.sqrt(math.log(13000.0)), rel=1e-12)
        assert lam2 == pytest.approx(0.8002218, abs=1e-6)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            default_lambdas(2.0, 1)

    def test_monotone_in_sigma_and_n(self):
        grid_sigma = [0.05, 0.1, 0.2, 0.5, 1.0]
        grid_n = [2, 10, 100, 10000]
        for n in grid_n:
            vals = [default_lambdas(s, n) for s in grid_sigma]
            assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(vals, vals[1:]))
        for s in grid_sigma:
            vals = [default_lambdas(s, n) for n in grid_n]
            assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(vals, vals[1:]))


class TestSnpTrack:
    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            SnpTrack(
                snp_ids=("a", "b"),
                positions=np.array([1, 2, 3]),
                logr=np.array([0.0, 0.0]),
                baf=np.array([0.5, 0.5]),
            )

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError):
            SnpTrack(
                snp_ids=("a", "b"),
                positions=np.array([5, 5]),
                logr=np.array([0.0, 0.0]),
                baf=np.array([0.5, 0.5]),
            )

    def test_rejects_out_of_range_baf(self):
        with pytest.raises(ValueError):
            SnpTrack(
                snp_ids=("a",),
                positions=np.array([1]),
                logr=np.array([0.0]),
                baf=np.array([1.5]),
            )

    def test_from_values_clamps_baf(self, caplog):
        track = SnpTrack.from_values(logr=[0.0, 0.0], baf=[-0.01, 1.2])
        assert track.baf.tolist() == [0.0, 1.0]

    def test_arrays_immutable(self):
        track = make_track(np.zeros(3))
        with pytest.raises(ValueError):
            track.logr[0] = 1.0

    def test_callers_arrays_stay_writeable(self):
        y = np.zeros(3)
        x = np.full(3, 0.5)
        pos = np.array([10, 20, 30])
        track = SnpTrack.from_values(logr=y, baf=x, positions=pos)
        assert y.flags.writeable and x.flags.writeable and pos.flags.writeable
        y[0] = 1.0
        assert track.logr[0] == 0.0

    def test_read_only_input_is_shared(self):
        y = np.zeros(3)
        y.flags.writeable = False
        track = SnpTrack.from_values(logr=y, baf=np.full(3, 0.5))
        assert track.logr is y


class TestTuningConstants:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            TuningConstants(-0.1, 1.0)

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ValueError):
            TuningConstants(1.0, 1.0, epsilon=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "epsilon"])
    def test_rejects_non_finite(self, field, bad):
        values = {"lambda1": 1.0, "lambda2": 1.0, "epsilon": 1e-10, field: bad}
        with pytest.raises(ValueError, match="must be finite"):
            TuningConstants(**values)


class TestStateTable:
    def test_copy_numbers(self):
        expected = {
            "phi": 0, "A": 1, "B": 1,
            "AA": 2, "AB": 2, "BB": 2,
            "AAA": 3, "AAB": 3, "ABB": 3, "BBB": 3,
        }
        assert {s.genotype: s.copy_number for s in TEN_STATES} == expected

    def test_baf_centers(self):
        centers = {s.genotype: s.baf_center for s in TEN_STATES}
        assert centers["phi"] is None
        assert centers["A"] == 0.0 and centers["B"] == 1.0
        assert centers["AB"] == 0.5
        assert centers["AAB"] == pytest.approx(1.0 / 3.0)
        assert centers["ABB"] == pytest.approx(2.0 / 3.0)
        assert {centers[g] for g in ("AA", "AAA")} == {0.0}
        assert {centers[g] for g in ("BB", "BBB")} == {1.0}

    def test_class_grouping_and_nb_lookup(self):
        assert [len(STATES_BY_COPY[c]) for c in range(4)] == [1, 2, 3, 4]
        for c in range(4):
            for k, state in enumerate(STATES_BY_COPY[c]):
                assert state.copy_number == c
                if c > 0:
                    assert state.baf_center == k / c
