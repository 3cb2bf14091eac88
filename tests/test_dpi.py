"""Tests for dynamic-programming imputation.

The optimality oracle enumerates every state sequence outright (10^n or
4^n candidates, vectorized) and must agree with the recursion exactly.
"""

import math

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test is skipped without hypothesis
    given = None

from cnvfuse import simulate
from cnvfuse.dpi import (
    DEFAULT_COPY_LOGR_MEANS,
    DpiModel,
    StatePath,
    _min_plus_path,
    _stage_columns,
    dp_impute,
    dpi_fit,
    reestimate_mu,
)
from cnvfuse.errors import NonFiniteInput
from cnvfuse.signal_model import STATES_BY_COPY, SnpTrack, TEN_STATES

from oracles import STATE_BY_NAME, loss_baf_10, loss_baf_4, loss_logr, path_objective


def make_track(logr, baf):
    return SnpTrack.from_values(logr=np.asarray(logr, float), baf=np.asarray(baf, float))


def random_model(rng):
    mu = np.sort(rng.normal([-5.0, -0.6, 0.0, 0.35], 0.15))
    return DpiModel(
        mu=tuple(mu),
        lambda1=float(rng.uniform(0.0, 1.0)),
        lambda2=float(rng.uniform(0.0, 2.0)),
        alpha=float(rng.uniform(0.0, 15.0)),
    )


def brute_force_10(track, model):
    """Exhaustive search over all 10^n genotype sequences."""
    y, x, n = track.logr, track.baf, track.n
    mu = np.asarray(model.mu)
    state_mu = np.array([mu[s.copy_number] for s in TEN_STATES])
    l2 = np.empty((n, 10))
    l2[:, 0] = (x**3 + (1.0 - x) ** 3) / 3.0
    for j, s in enumerate(TEN_STATES[1:], start=1):
        l2[:, j] = (x - s.baf_center) ** 2
    l1 = (y[:, None] - state_mu[None, :]) ** 2
    stage = (l1 + model.alpha * l2) + (model.lambda1 * np.abs(state_mu))[None, :]
    pen = model.lambda2 * np.abs(state_mu[:, None] - state_mu[None, :])
    seqs = np.indices((10,) * n).reshape(n, -1)
    acc = stage[0, seqs[0]]
    for i in range(1, n):
        acc = (acc + pen[seqs[i - 1], seqs[i]]) + stage[i, seqs[i]]
    best = int(np.argmin(acc))
    return float(acc[best]), seqs[:, best]


def brute_force_4(track, model):
    """Exhaustive search over all 4^n copy-number sequences with the
    collapsed BAF loss."""
    y, x, n = track.logr, track.baf, track.n
    mu = np.asarray(model.mu)
    l2 = np.column_stack(
        [
            (x**3 + (1.0 - x) ** 3) / 3.0,
            np.minimum(x**2, (x - 1.0) ** 2),
            np.minimum(np.minimum(x**2, (x - 0.5) ** 2), (x - 1.0) ** 2),
            np.minimum(
                np.minimum(x**2, (x - 1.0 / 3.0) ** 2),
                np.minimum((x - 2.0 / 3.0) ** 2, (x - 1.0) ** 2),
            ),
        ]
    )
    l1 = (y[:, None] - mu[None, :]) ** 2
    stage = (l1 + model.alpha * l2) + (model.lambda1 * np.abs(mu))[None, :]
    pen = model.lambda2 * np.abs(mu[:, None] - mu[None, :])
    seqs = np.indices((4,) * n).reshape(n, -1)
    acc = stage[0, seqs[0]]
    for i in range(1, n):
        acc = (acc + pen[seqs[i - 1], seqs[i]]) + stage[i, seqs[i]]
    best = int(np.argmin(acc))
    return float(acc[best]), seqs[:, best]


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


def penalties(model):
    """pen[k][j]: fused penalty for stepping from class k to class j."""
    mu = model.mu
    return [[model.lambda2 * abs(mu[j] - mu[k]) for j in range(4)] for k in range(4)]


def reference_min_plus(stage_rows, pen):
    """The plain form of the recursion: a loop over the four target
    classes with int8 backpointers, on an n x 4 table of stage costs.
    Returns the objective and the copy number of every position."""
    n = len(stage_rows)
    g = list(stage_rows[0])
    back = np.empty((n, 4), dtype=np.int8)
    p0, p1, p2, p3 = pen
    for i in range(1, n):
        row = stage_rows[i]
        g0, g1, g2, g3 = g
        gn = [0.0, 0.0, 0.0, 0.0]
        for j in range(4):
            best = g0 + p0[j]
            arg = 0
            v = g1 + p1[j]
            if v < best:
                best = v
                arg = 1
            v = g2 + p2[j]
            if v < best:
                best = v
                arg = 2
            v = g3 + p3[j]
            if v < best:
                best = v
                arg = 3
            gn[j] = best + row[j]
            back[i, j] = arg
        g = gn
    c = int(np.argmin(g))
    objective = g[c]
    copy_numbers = np.empty(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        copy_numbers[i] = c
        c = int(back[i, c])
    copy_numbers[0] = c
    return objective, copy_numbers


def reference_dp_impute(track, model):
    """The reference recursion on the n x 4 loss table, with each
    position's genotype read from the table's per-class argmin. The
    library's kernel must reproduce it bit for bit."""
    stage, geno_idx = _class_loss_tables(track, model)
    objective, copy_numbers = reference_min_plus(stage.tolist(), penalties(model))
    states = tuple(
        STATES_BY_COPY[cn][geno_idx[i, cn]] for i, cn in enumerate(copy_numbers.tolist())
    )
    return StatePath(states=states, objective=objective, copy_numbers=copy_numbers)


def assert_same_path(track, model):
    got = dp_impute(track, model)
    want = reference_dp_impute(track, model)
    assert got.objective == want.objective
    assert np.array_equal(got.copy_numbers, want.copy_numbers)
    assert got.states == want.states


def assert_same_min_plus(rows, pen):
    """_min_plus_path on hand-built per-class columns against the reference."""
    cols = [np.array(c, dtype=float) for c in zip(*rows)]
    objective, path = _min_plus_path(cols, pen)
    want_objective, want_path = reference_min_plus(rows, pen)
    assert objective == want_objective
    assert path == want_path.tolist()
    return objective, path


class TestLosses:
    def test_logr_zero_at_mean(self):
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.1, 0.1)
        assert loss_logr(-0.0045, STATE_BY_NAME["AB"], model) == 0.0
        assert loss_logr(0.3252, STATE_BY_NAME["AAA"], model) == 0.0

    def test_logr_null_state_distance(self):
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.1, 0.1)
        assert loss_logr(1.0, STATE_BY_NAME["phi"], model) == pytest.approx(
            6.5923**2, rel=1e-12
        )

    def test_baf10_center_hit(self):
        assert loss_baf_10(2.0 / 3.0, STATE_BY_NAME["ABB"]) == 0.0

    def test_baf10_null_state_integral(self):
        assert loss_baf_10(0.0, STATE_BY_NAME["phi"]) == pytest.approx(1.0 / 3.0)
        assert loss_baf_10(0.5, STATE_BY_NAME["phi"]) == pytest.approx(1.0 / 12.0)
        # matches the quadrature of the defining integral
        u = np.linspace(0, 1, 200001)
        for x in (0.0, 0.3, 0.77):
            quad = np.trapezoid((x - u) ** 2, u)
            assert loss_baf_10(x, STATE_BY_NAME["phi"]) == pytest.approx(quad, abs=1e-9)

    def test_baf4_branches(self):
        assert loss_baf_4(0.4, 2) == pytest.approx(0.01)
        assert loss_baf_4(0.4, 3) == pytest.approx((0.4 - 1.0 / 3.0) ** 2)
        assert loss_baf_4(1.0, 1) == 0.0

    def test_baf4_equals_min_over_genotypes(self):
        for x in np.linspace(0, 1, 21):
            for c in range(4):
                per_state = min(
                    loss_baf_10(x, s) for s in TEN_STATES if s.copy_number == c
                )
                assert loss_baf_4(x, c) == pytest.approx(per_state, rel=1e-12)


def literal_stage_columns(track, model):
    """The stage columns with each copy class's BAF centres written out."""
    x = track.baf
    sq0 = x**2
    sq1 = (x - 1.0) ** 2
    l2 = (
        (x**3 + (1.0 - x) ** 3) / 3.0,
        np.minimum(sq0, sq1),
        np.minimum(np.minimum(sq0, (x - 0.5) ** 2), sq1),
        np.minimum(np.minimum(sq0, (x - 1.0 / 3.0) ** 2), np.minimum((x - 2.0 / 3.0) ** 2, sq1)),
    )
    return [
        ((track.logr - mu) ** 2 + model.alpha * l2_j) + model.lambda1 * abs(mu)
        for mu, l2_j in zip(model.mu, l2)
    ]


def test_stage_columns_match_the_literal_centres():
    rng = np.random.default_rng(47)
    centres = [0.0, 1.0, 0.5, 1.0 / 3.0, 2.0 / 3.0]
    for _ in range(50):
        n = int(rng.integers(1, 300))
        baf = np.where(rng.random(n) < 0.5, rng.choice(centres, n), rng.uniform(0, 1, n))
        track = make_track(rng.normal(0, 1, n), baf)
        model = random_model(rng)
        got = _stage_columns(track, model)
        want = literal_stage_columns(track, model)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


class TestDpImpute:
    def test_single_snp_base_case(self):
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.3, 0.7, alpha=5.0)
        track = make_track([-0.6], [0.05])
        path = dp_impute(track, model)
        best = min(
            TEN_STATES,
            key=lambda s: loss_logr(-0.6, s, model)
            + model.alpha * loss_baf_10(0.05, s)
            + model.lambda1 * abs(model.mu[s.copy_number]),
        )
        assert path.states[0] == best
        assert path.copy_numbers[0] == best.copy_number

    def test_lasso_prefers_copy_two_on_null_data(self):
        model = DpiModel((-5.6, -0.63, -0.005, 0.33), 0.5, 0.5, alpha=12.0)
        baf = np.tile([0.0, 0.5, 1.0], 10)
        track = make_track(np.zeros(30), baf)
        path = dp_impute(track, model)
        assert np.all(path.copy_numbers == 2)
        genotypes = [s.genotype for s in path.states]
        assert genotypes[:3] == ["AA", "AB", "BB"]

    def test_exact_vs_enumeration_10_state(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            track = make_track(rng.normal(-1, 2, n), rng.uniform(0, 1, n))
            model = random_model(rng)
            path = dp_impute(track, model)
            ref_obj, ref_seq = brute_force_10(track, model)
            assert path.objective == ref_obj  # bit-exact
            # path agrees up to objective ties
            assert path_objective(track, path.states, model) == pytest.approx(
                ref_obj, rel=1e-12
            )

    def test_exact_vs_enumeration_4_state(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            track = make_track(rng.normal(-1, 2, n), rng.uniform(0, 1, n))
            model = random_model(rng)
            path = dp_impute(track, model)
            ref_obj, ref_seq = brute_force_4(track, model)
            assert path.objective == ref_obj
            assert np.array_equal(path.copy_numbers, ref_seq) or (
                path_objective(track, path.states, model) == pytest.approx(ref_obj, rel=1e-12)
            )

    def test_huge_fusion_freezes_copy_number(self):
        rng = np.random.default_rng(23)
        n = 60
        track = make_track(rng.normal(0, 1, n), rng.uniform(0, 1, n))
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.1, 1e6, alpha=3.0)
        path = dp_impute(track, model)
        assert np.all(path.copy_numbers == path.copy_numbers[0])

    def test_objective_matches_reevaluation(self):
        rng = np.random.default_rng(24)
        track = make_track(rng.normal(0, 1, 200), rng.uniform(0, 1, 200))
        for _ in range(2):
            model = random_model(rng)
            path = dp_impute(track, model)
            assert path_objective(track, path.states, model) == pytest.approx(
                path.objective, rel=1e-9
            )

    def test_alpha_zero_ignores_baf(self):
        rng = np.random.default_rng(25)
        n = 300
        logr = rng.normal(0, 0.3, n)
        baf = rng.uniform(0, 1, n)
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8, alpha=0.0)
        path1 = dp_impute(make_track(logr, baf), model)
        path2 = dp_impute(make_track(logr, rng.permutation(baf)), model)
        assert np.array_equal(path1.copy_numbers, path2.copy_numbers)

    def test_changepoints_nonincreasing_in_lambda2(self):
        rng = np.random.default_rng(26)
        n = 400
        logr = np.zeros(n)
        logr[150:180] = -0.63
        logr += rng.normal(0, 0.25, n)
        baf = np.clip(rng.normal(0.5, 0.2, n), 0, 1)
        track = make_track(logr, baf)
        counts = []
        for lam2 in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0):
            model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, lam2, alpha=2.0)
            path = dp_impute(track, model)
            counts.append(int(np.sum(np.diff(path.copy_numbers) != 0)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rejects_non_finite(self):
        track = make_track([0.0, 0.1], [0.5, 0.5])
        object.__setattr__(track, "logr", np.array([np.nan, 0.1]))
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.1, 0.1)
        with pytest.raises(NonFiniteInput):
            dp_impute(track, model)


class TestDpiModel:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mu0", "mu3", "lambda1", "lambda2", "alpha"])
    def test_rejects_non_finite(self, field, bad):
        mu = list(DEFAULT_COPY_LOGR_MEANS)
        values = {"lambda1": 0.1, "lambda2": 0.1, "alpha": 12.0}
        if field.startswith("mu"):
            mu[int(field[2])] = bad
        else:
            values[field] = bad
        with pytest.raises(ValueError, match="must be finite"):
            DpiModel(tuple(mu), **values)

    def test_rejects_decreasing_means(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DpiModel((-5.6, -0.6, -0.7, 0.3), 0.1, 0.1)


class TestKernelEquivalence:
    """dp_impute against the reference recursion: same objective (==),
    copy numbers and genotypes."""

    @pytest.mark.parametrize(
        "n, cnv_type, seed",
        [(2000, "del1", 41), (3000, "dup", 42), (4000, "del0", 43), (5000, "del1", 44)],
    )
    def test_simulated_tracks(self, n, cnv_type, seed):
        spec = simulate.SimSpec(n=n, cnv_length=40, cnv_type=simulate.CnvType(cnv_type), seed=seed)
        track = simulate.generate(spec).track
        lam1 = float(np.std(track.logr))
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, lam1, 2.0 * lam1 * np.sqrt(np.log(n)))
        assert_same_path(track, model)

    @pytest.mark.parametrize("alpha, lambda2", [(0.0, 0.8), (12.0, 0.0), (0.0, 0.0)])
    def test_tie_heavy_inputs(self, alpha, lambda2):
        # LogR at the midpoints between means, BAF on the genotype centers
        # and halfway between them: many exact ties in both minimizations
        rng = np.random.default_rng(45)
        mu = np.asarray(DEFAULT_COPY_LOGR_MEANS)
        mids = (mu[:-1] + mu[1:]) / 2.0
        logr = rng.choice(np.concatenate([mids, mu]), 3000)
        baf = rng.choice([0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0], 3000)
        track = make_track(logr, baf)
        for lambda1 in (0.0, 0.3):
            assert_same_path(track, DpiModel(DEFAULT_COPY_LOGR_MEANS, lambda1, lambda2, alpha=alpha))

    def test_random_models_short_tracks(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            track = make_track(rng.normal(0, 1, n), rng.uniform(0, 1, n))
            assert_same_path(track, random_model(rng))


class TestLeaderFastPath:
    """The leader test of _min_plus_path on hand-built columns, against the
    reference recursion: gaps at the guard, runs of each leader, leader
    switches, inf costs, and cases where rounding breaks the triangle
    inequality of the penalties."""

    @pytest.mark.parametrize("leader", [0, 1, 2, 3])
    def test_gaps_around_the_guard(self, leader):
        pen = penalties(DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.0, 0.9))
        # After a row of zeros, the full step sets g to the next row, whose
        # least class becomes the leader. One class of the last row is
        # cheap, so the path ends there and reads that class's backpointer.
        # the kernel's delta, near enough: the rows' costs sum to 163-172
        delta = 1e-12 * (168.0 + float(np.max(pen)))
        for k in range(4):
            if k == leader:
                continue
            for factor in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 8.0):
                first = [1.0 + pen[leader][m] + 1.0 for m in range(4)]
                first[leader] = 1.0
                first[k] = (1.0 + pen[leader][k]) + factor * delta
                for end in range(4):
                    second = [50.0] * 4
                    second[end] = 0.0
                    assert_same_min_plus([[0.0] * 4, first, second], pen)

    @pytest.mark.parametrize("order", [(0,), (1,), (3,), (2, 1, 2, 3, 0, 3, 1, 0, 2)])
    def test_runs_of_each_leader(self, order):
        rng = np.random.default_rng(47)
        pen = penalties(DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.0, 0.8))
        rows = []
        for c in order:
            block = rng.uniform(1.0, 3.0, (int(rng.integers(20, 60)), 4))
            block[:, c] = rng.uniform(0.0, 0.5, len(block))
            rows += block.tolist()
        _, path = assert_same_min_plus(rows, pen)
        assert set(path) == set(order)

    def test_inf_costs(self):
        rng = np.random.default_rng(48)
        pen = penalties(DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.0, 0.8))
        rows = rng.uniform(0.0, 3.0, (300, 4))
        rows[rng.random((300, 4)) < 0.05] = np.inf
        objective, _ = assert_same_min_plus(rows.tolist(), pen)
        assert math.isfinite(objective)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_logr_overflow_gives_inf_costs(self):
        rng = np.random.default_rng(49)
        logr = rng.normal(0.0, 0.3, 300)
        logr[[5, 6, 100, 250]] = 1e200
        track = make_track(logr, rng.uniform(0.0, 1.0, 300))
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8)
        assert dp_impute(track, model).objective == np.inf
        assert_same_path(track, model)

    @pytest.mark.parametrize(
        "mu, lambda2, g2",
        [
            (DEFAULT_COPY_LOGR_MEANS, 2.06, 0.877),  # the two steps tie
            ((-4.9998, -0.5403, -0.0548, 0.1719), 0.97, 2.684),  # 2 -> 1 -> 0 is cheaper
        ],
    )
    def test_rounding_breaks_the_triangle_inequality(self, mu, lambda2, g2):
        # mu_1 lies between mu_0 and mu_2, so exactly p20 == p21 + p10. In
        # floats the step 2 -> 1 -> 0 here costs no more than 2 -> 0. With g1
        # one ulp above g2 + p21, a leader test without delta would pass and
        # step class 0 from class 2, but the first minimum is class 1.
        pen = penalties(DpiModel(mu, 0.0, lambda2))
        g1 = math.nextafter(g2 + pen[2][1], math.inf)
        assert g1 + pen[1][0] <= g2 + pen[2][0]
        first = [g2 + pen[2][0] + 1.0, g1, g2, g2 + pen[2][3] + 1.0]
        _, path = assert_same_min_plus([first, [0.0, 100.0, 100.0, 100.0]], pen)
        assert path == [1, 0]


if given is None:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_matches_reference_on_random_tracks():
        pass

else:

    @st.composite
    def tracks_and_models(draw):
        mu = sorted(draw(st.lists(st.floats(-7.0, 1.0), min_size=4, max_size=4, unique=True)))
        # LogR at the means and midway between them, BAF on the genotype
        # centres and midway between them: exact ties in both minimizations
        logr = st.one_of(
            st.floats(-8.0, 3.0), st.sampled_from(mu + [(a + b) / 2.0 for a, b in zip(mu, mu[1:])])
        )
        baf = st.one_of(
            st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0])
        )
        n = draw(st.integers(1, 40))
        track = make_track(
            draw(st.lists(logr, min_size=n, max_size=n)), draw(st.lists(baf, min_size=n, max_size=n))
        )
        model = DpiModel(
            tuple(mu),
            draw(st.floats(0.0, 2.0)),
            draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
            alpha=draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
        )
        return track, model

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tracks_and_models())
    def test_matches_reference_on_random_tracks(case):
        assert_same_path(*case)


class TestReestimateMu:
    def test_all_copy_two_updates_only_mu2(self):
        rng = np.random.default_rng(27)
        logr = rng.normal(0.01, 0.001, 50)
        track = make_track(logr, np.full(50, 0.5))
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.1, 0.1)
        path = StatePath(
            states=tuple(STATE_BY_NAME["AB"] for _ in range(50)),
            objective=0.0,
            copy_numbers=np.full(50, 2),
        )
        updated = reestimate_mu(track, path, model)
        assert updated.mu[2] == pytest.approx(float(np.median(logr)))
        assert updated.mu[0] == model.mu[0]
        assert updated.mu[1] == model.mu[1]
        assert updated.mu[3] == model.mu[3]

    def test_small_group_keeps_previous(self):
        logr = np.concatenate([np.full(3, -0.9), np.zeros(47)])
        track = make_track(logr, np.full(50, 0.5))
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.1, 0.1)
        copies = np.concatenate([np.ones(3, int), np.full(47, 2)])
        states = tuple(
            STATE_BY_NAME["A"] if c == 1 else STATE_BY_NAME["AB"] for c in copies
        )
        updated = reestimate_mu(track, StatePath(states, 0.0, copies), model)
        assert updated.mu[1] == model.mu[1]

    def test_ordering_violation_rejected(self):
        # copy-1 group whose median would land above the copy-2 mean
        logr = np.concatenate([np.full(10, 0.5), np.zeros(40)])
        track = make_track(logr, np.full(50, 0.5))
        model = DpiModel((-5.6, -0.63, -0.005, 0.33), 0.1, 0.1)
        copies = np.concatenate([np.ones(10, int), np.full(40, 2)])
        states = tuple(
            STATE_BY_NAME["A"] if c == 1 else STATE_BY_NAME["AB"] for c in copies
        )
        updated = reestimate_mu(track, StatePath(states, 0.0, copies), model)
        assert updated.mu[1] == model.mu[1]  # rejected
        assert updated.mu[0] < updated.mu[1] < updated.mu[2] < updated.mu[3]

    def test_ordering_invariant_random_assignments(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            n = 80
            track = make_track(rng.normal(0, 2, n), rng.uniform(0, 1, n))
            copies = rng.integers(0, 4, n)
            states = tuple(
                next(s for s in TEN_STATES if s.copy_number == c) for c in copies
            )
            model = random_model(rng)
            updated = reestimate_mu(track, StatePath(states, 0.0, copies), model)
            assert updated.mu[0] < updated.mu[1] < updated.mu[2] < updated.mu[3]


class TestDpiFit:
    def test_stable_on_exact_data(self):
        # data drawn exactly at the initial means: one round suffices
        rng = np.random.default_rng(29)
        copies = np.repeat([2, 1, 2], [40, 20, 40])
        mu = np.asarray(DEFAULT_COPY_LOGR_MEANS)
        logr = mu[copies]
        baf = np.where(copies == 1, 0.0, 0.5)
        track = make_track(logr, baf)
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8, alpha=12.0)
        fit = dpi_fit(track, model)
        assert fit.rounds <= 2
        assert np.array_equal(fit.path.copy_numbers, copies)

    def test_zero_rounds_returns_initial_imputation(self):
        rng = np.random.default_rng(30)
        track = make_track(rng.normal(0, 0.3, 60), rng.uniform(0, 1, 60))
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8)
        fit = dpi_fit(track, model, max_rounds=0)
        direct = dp_impute(track, model)
        assert fit.rounds == 0
        assert fit.model == model
        assert np.array_equal(fit.path.copy_numbers, direct.copy_numbers)
        assert fit.path.objective == direct.objective

    def test_simulated_track_stabilizes(self):
        rng = np.random.default_rng(31)
        n = 800
        copies = np.full(n, 2)
        copies[380:420] = 1
        mu = np.asarray(DEFAULT_COPY_LOGR_MEANS)
        logr = rng.normal(mu[copies], 0.2)
        centers = np.where(copies == 1, rng.integers(0, 2, n).astype(float), 0.5)
        baf = np.clip(rng.normal(centers, 0.03), 0, 1)
        track = make_track(logr, baf)
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8, alpha=12.0)
        fit = dpi_fit(track, model)
        assert fit.rounds <= 10
        assert np.all(fit.path.copy_numbers[385:415] == 1)
        assert fit.model.mu[0] < fit.model.mu[1] < fit.model.mu[2] < fit.model.mu[3]
