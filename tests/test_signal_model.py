"""Tests for domain types, noise estimation, and default tuning constants."""

import copy
import logging
import math
import pickle

import numpy as np
import pytest
from scipy import stats

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test is skipped without hypothesis
    given = None

from cnvfuse import dpi, simulate
from cnvfuse.cli import _split_track
from cnvfuse.errors import DegenerateSignal, TooFewSnps
from cnvfuse.signal_model import (
    BAF_CENTERS,
    STATE_ARRAY,
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
    state_index,
)

from oracles import class_baf_losses


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
            estimate_sigma(make_track(np.arange(39.0)))

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=300)
        shifted = estimate_sigma(make_track(y + 17.3))
        assert shifted == pytest.approx(estimate_sigma(make_track(y)), rel=1e-12)

    @pytest.mark.parametrize("c", [-3.0, 0.25, 7.5])
    def test_linear_scaling(self, c):
        rng = np.random.default_rng(14)
        y = rng.normal(size=300)
        scaled = estimate_sigma(make_track(c * y))
        assert scaled == pytest.approx(abs(c) * estimate_sigma(make_track(y)), rel=1e-10)


#: drawn beside hypothesis's floats, so that ties and signed zeros occur often
SMALL_POOL = (0.0, -0.0, 0.5, -0.5)


def tied_values(rng, n):
    """``n`` draws from a few values, 0.0 and -0.0 among them."""
    pool = np.concatenate([rng.normal(size=int(rng.integers(1, 8))).round(1), [0.0, -0.0]])
    return rng.choice(pool, size=n)


class TestPartitionPercentiles:
    TRIM = [TRIM_LOWER_PCT, TRIM_UPPER_PCT]

    def test_trimmed_window_and_sd_match_numpy(self):
        # estimate_sigma uses the percentiles only in a >=/<= window, where
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
                    assert estimate_sigma(make_track(values)) == ref_sd, n

    if given is None:

        @pytest.mark.skip(reason="hypothesis is not installed")
        def test_random_sigma(self):
            pass

    else:

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(SMALL_POOL)), min_size=40, max_size=200))
        def test_random_sigma(self, values):
            values = np.array(values)
            lo, hi = np.percentile(values, self.TRIM)
            ref_sd = values[(values >= lo) & (values <= hi)].std(ddof=1)
            track = make_track(values)
            if ref_sd > 0:
                assert estimate_sigma(track) == ref_sd
            else:
                with pytest.raises(DegenerateSignal):
                    estimate_sigma(track)


class TestPartitionMedian:
    def test_bit_identical_to_numpy(self):
        rng = np.random.default_rng(29)
        for n in [5, 6, 7, 8, 41, 42, 20_000, *rng.integers(5, 20_001, size=30)]:
            for values in (tied_values(rng, n), rng.normal(size=n), np.zeros(n) * -1.0):
                kept = values.copy()
                got = np.float64(_median(values))
                assert got.tobytes() == np.float64(np.median(values)).tobytes(), n
                assert values.tobytes() == kept.tobytes()

    if given is None:

        @pytest.mark.skip(reason="hypothesis is not installed")
        def test_random_median(self):
            pass

    else:

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(
            st.lists(
                st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SMALL_POOL)),
                min_size=1,
                max_size=60,
            )
        )
        def test_random_median(self, values):
            values = np.array(values)
            assert np.float64(_median(values)).tobytes() == np.float64(np.median(values)).tobytes()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["logr", "baf"])
    def test_rejects_non_finite(self, name, bad):
        values = {"logr": np.zeros(3), "baf": np.full(3, 0.5)}
        values[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
            SnpTrack(None, np.array([1, 2, 3]), **values)

    def test_rejects_negative_position(self):
        with pytest.raises(ValueError, match="^positions must be non-negative$"):
            SnpTrack(None, np.array([-1, 2]), np.zeros(2), np.full(2, 0.5))

    def test_from_values_clamps_baf(self, caplog):
        with caplog.at_level(logging.WARNING):
            track = SnpTrack.from_values(logr=[0.0, 0.0, 0.0], baf=[0.5, -0.01, 1.2])
        assert track.baf.tolist() == [0.5, 0.0, 1.0]
        assert caplog.messages == ["clamped 2 BAF values outside [0, 1], the first at position 10000"]

    def test_clamping_malformed_track_raises_before_warning(self, caplog):
        with caplog.at_level(logging.WARNING), pytest.raises(ValueError, match="equal length"):
            SnpTrack.from_values(logr=[0.0] * 3, baf=[0.5, 0.5, 1.2], snp_ids=["a", "b"])
        assert caplog.messages == []

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

    def test_compares_arrays_by_value(self):
        rng = np.random.default_rng(5)
        y, x = rng.normal(0.0, 1.0, 6), rng.uniform(0.0, 1.0, 6)
        track = SnpTrack.from_values(logr=y, baf=x)
        same = SnpTrack.from_values(logr=y.copy(), baf=x.copy())
        assert track.logr is not same.logr
        track.genotype_fit  # a built table takes no part
        assert track == same and not track != same
        with pytest.raises(TypeError, match="unhashable"):
            hash(track)
        for other in (
            SnpTrack.from_values(logr=y + 1e-9, baf=x),
            SnpTrack.from_values(logr=y, baf=x[::-1]),
            SnpTrack.from_values(logr=y, baf=x, positions=np.arange(1, 7)),
            SnpTrack.from_values(logr=y[:5], baf=x[:5]),
            SnpTrack.from_values(logr=y, baf=x, snp_ids=("a",) * 6),
        ):
            assert track != other and not track == other
        assert track != (track.snp_ids, track.positions, track.logr, track.baf)


# BAF centres of each copy class's genotypes, and every centre and every
# midpoint between two centres of one class, as float64 computes them
CLASS_CENTRES = [[s.baf_center for s in STATES_BY_COPY[c]] for c in (1, 2, 3)]
TIE_BAF = sorted({x for cs in CLASS_CENTRES for x in (*cs, *((a + b) / 2.0 for a, b in zip(cs, cs[1:])))})


class TestGenotypeTable:
    """Each copy class's least BAF loss and first genotype with it, against
    the literal per-genotype table of the oracle."""

    @staticmethod
    def assert_matches_the_oracle(baf):
        track = make_track(np.zeros(len(baf)), baf)
        least, pick = track.genotype_fit
        want_least, want_pick = class_baf_losses(track.baf)
        assert least.shape == pick.shape == (4, track.n)
        assert least.tobytes() == np.ascontiguousarray(want_least.T).tobytes()
        assert pick.tolist() == want_pick.T.tolist()

    def test_centres_and_midpoints(self):
        assert TIE_BAF[:4] == [0.0, 1.0 / 6.0, 0.25, 1.0 / 3.0] and len(TIE_BAF) == 9
        self.assert_matches_the_oracle(TIE_BAF)
        # ties the first genotype must win: A over B at 0.5, AA over AB at
        # 0.25, AAA over AAB at 1/6
        least, pick = make_track(np.zeros(3), [0.5, 0.25, 1.0 / 6.0]).genotype_fit
        assert [least[1, 0], least[2, 1], least[3, 2]] == [0.25, 0.0625, (1.0 / 6.0) ** 2]
        assert [pick[1, 0], pick[2, 1], pick[3, 2]] == [0, 0, 0]

    def test_built_once_read_only(self):
        track = make_track(np.zeros(50), np.linspace(0.0, 1.0, 50))
        assert "genotype_fit" not in vars(track)
        least, pick = track.genotype_fit
        assert track.genotype_fit[0] is least and track.genotype_fit[1] is pick
        assert least.dtype == np.float64 and pick.dtype == np.uint8
        assert least.nbytes + pick.nbytes == 36 * track.n
        assert not least.flags.writeable and not pick.flags.writeable

    if given is None:

        @pytest.mark.skip(reason="hypothesis is not installed")
        def test_random_baf(self):
            pass

    else:

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(TIE_BAF)), min_size=1, max_size=60))
        def test_random_baf(self, baf):
            self.assert_matches_the_oracle(baf)



def labels(n):
    return tuple(f"snp{i:07d}" for i in range(1, n + 1))


class TestDefaultLabels:
    """A track keeps the labels it is given; one built without them is
    unlabelled: its snp_ids is None."""

    def test_read_back(self):
        assert SnpTrack.from_values(logr=[0.0], baf=[0.5]).snp_ids is None
        track = make_track(np.zeros(4))
        assert track.snp_ids is None and vars(track)["snp_ids"] is None
        labelled = SnpTrack(["a", "b", "c", "d"], track.positions, track.logr, track.baf)
        assert labelled.snp_ids == ("a", "b", "c", "d") and isinstance(labelled.snp_ids, tuple)

    def test_differs_from_the_track_with_explicit_labels(self):
        track = make_track(np.zeros(5))
        explicit = SnpTrack(labels(5), track.positions, track.logr, track.baf)
        assert track != explicit and explicit != track
        assert not track == explicit and not explicit == track
        assert SnpTrack(None, track.positions, track.logr, track.baf) == track

    def test_pickle_round_trip(self):
        track = make_track(np.linspace(-1.0, 1.0, 7))
        unlabelled = pickle.loads(pickle.dumps(track))
        assert unlabelled.snp_ids is None and vars(unlabelled)["snp_ids"] is None
        assert unlabelled == track
        explicit = SnpTrack(labels(7), track.positions, track.logr, track.baf)
        read = pickle.loads(pickle.dumps(explicit))
        assert vars(read)["snp_ids"] == labels(7) and read == explicit and read != unlabelled
        assert np.array_equal(read.logr, track.logr) and np.array_equal(read.positions, track.positions)

    def test_split_pieces_keep_their_labels(self):
        plain = make_track(np.zeros(10))  # positions 5000, 10000, ..., 50000
        track = SnpTrack(labels(10), plain.positions, plain.logr, plain.baf)
        pieces = _split_track(track, [12000, 40000])
        assert [piece.snp_ids for piece in pieces] == [labels(10)[:2], labels(10)[2:7], labels(10)[7:]]
        assert [piece.positions.tolist() for piece in pieces] == [
            [5000, 10000], [15000, 20000, 25000, 30000, 35000], [40000, 45000, 50000],
        ]

    def test_missing_attribute_still_raises(self):
        track = make_track(np.zeros(3))
        with pytest.raises(AttributeError, match="'SnpTrack' object has no attribute 'labels'"):
            track.labels

    def test_unequal_lengths_still_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            SnpTrack(None, np.array([1, 2, 3]), np.zeros(2), np.full(2, 0.5))
        with pytest.raises(ValueError, match="at least one SNP"):
            SnpTrack(None, np.array([], dtype=np.int64), np.zeros(0), np.zeros(0))

# a pickle round trip, a copy and a deep copy
COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestRebuilt:
    """Copied and unpickled tracks, DP paths and truth tracks come out of
    their constructors: equal, with read-only arrays and no cached value."""

    @staticmethod
    def track():
        return make_track(np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 1.0, 7))

    @pytest.mark.parametrize("how", COPIES)
    def test_track_with_unread_labels(self, how):
        # built without labels, the track and its copies are unlabelled
        track = self.track()
        got = COPIES[how](track)
        assert sorted(vars(got)) == ["baf", "logr", "positions", "snp_ids"]
        assert got.snp_ids is None
        assert not any(a.flags.writeable for a in (got.positions, got.logr, got.baf))
        assert got == track

    @pytest.mark.parametrize("how", COPIES)
    def test_track_with_labels_and_table(self, how):
        plain = self.track()
        track = SnpTrack(labels(7), plain.positions, plain.logr, plain.baf)
        track.genotype_fit
        got = COPIES[how](track)
        assert sorted(vars(got)) == ["baf", "logr", "positions", "snp_ids"]
        assert got.snp_ids == labels(7)
        assert not any(a.flags.writeable for a in (got.positions, got.logr, got.baf))
        assert got == track
        assert all(np.array_equal(a, b) for a, b in zip(got.genotype_fit, track.genotype_fit))

    @pytest.mark.parametrize("how", COPIES)
    def test_state_path(self, how):
        path = dpi.StatePath([4, 4, 1, 9, 0], 2.5)
        path.states, path.copy_numbers
        got = COPIES[how](path)
        assert sorted(vars(got)) == ["objective", "state_indices"]
        assert not got.state_indices.flags.writeable and not got.copy_numbers.flags.writeable
        assert got == path and got.states == path.states
        assert got.copy_numbers.tolist() == [2, 2, 1, 3, 0]

    @pytest.mark.parametrize("how", COPIES)
    def test_truth_track(self, how):
        truth = simulate.generate(simulate.SimSpec(n=60, cnv_length=10, seed=3))
        got = COPIES[how](truth)
        assert sorted(vars(got)) == ["track", "true_copy", "true_genotype"]
        assert sorted(vars(got.track)) == ["baf", "logr", "positions", "snp_ids"]
        assert got.track.snp_ids is None
        assert not got.true_copy.flags.writeable and not got.track.logr.flags.writeable
        assert got == truth


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

    def test_state_index_lookup(self):
        pairs = [(c, k) for c in range(4) for k in range(c + 1)]
        copies, b_alleles = np.array(pairs).T
        index = state_index(copies, b_alleles)
        assert [TEN_STATES[i] for i in index] == [STATES_BY_COPY[c][k] for c, k in pairs]
        assert STATE_ARRAY[index].tolist() == [STATES_BY_COPY[c][k] for c, k in pairs]
        # bit-identical to the k / c that the simulator drew around before
        expected = np.array([k / c if c else 0.0 for c, k in pairs])
        assert BAF_CENTERS[index].tobytes() == expected.tobytes()
