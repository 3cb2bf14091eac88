"""Tests for dynamic-programming imputation.

The optimality oracle (oracles.enumerate_paths) enumerates every state
sequence outright (10^n or 4^n candidates, vectorized) and must agree with
the recursion exactly.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test is skipped without hypothesis
    given = None

from cnvfuse import _kernels, simulate
from cnvfuse.dpi import (
    DEFAULT_COPY_LOGR_MEANS,
    DpiModel,
    StatePath,
    dp_impute,
    dpi_fit,
    reestimate_mu,
)
from cnvfuse.signal_model import STATE_COPIES, STATES_BY_COPY, SnpTrack, TEN_STATES

from oracles import (
    STATE_BY_NAME,
    class_baf_losses,
    enumerate_paths,
    loss_baf_10,
    loss_baf_4,
    loss_logr,
    min_plus_path,
    path_objective,
    stage_columns,
    trace_back,
)


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


def _class_loss_tables(track: SnpTrack, model: DpiModel):
    """Per-position stage cost for each copy class, plus the index of the
    best genotype within the class (lowest table index on ties)."""
    l2, geno_idx = class_baf_losses(track.baf)
    mu = np.asarray(model.mu)
    stage = ((track.logr[:, None] - mu) ** 2 + model.alpha * l2) + model.lambda1 * np.abs(mu)
    return stage, geno_idx


def penalties(model):
    """pen[k][j]: fused penalty for stepping from class k to class j."""
    mu = model.mu
    return [[model.lambda2 * abs(mu[j] - mu[k]) for j in range(4)] for k in range(4)]


def reference_recursion(stage_rows, pen):
    """The plain form of the recursion: a loop over the four target
    classes with int8 backpointers, on an n x 4 table of stage costs.
    Returns the last position's g and back[i, j], the best class before
    class j at position i (row 0 unused)."""
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
    return g, back


def reference_min_plus(stage_rows, pen):
    """The objective and the copy number of every position, by the
    reference recursion and a scalar traceback."""
    n = len(stage_rows)
    g, back = reference_recursion(stage_rows, pen)
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
    return SimpleNamespace(states=states, objective=objective, copy_numbers=copy_numbers)


def path_of(states, objective=0.0):
    """The StatePath of a sequence of CopyStates."""
    return StatePath(np.array([TEN_STATES.index(s) for s in states]), objective)


def assert_same_path(track, model):
    got = dp_impute(track, model)
    want = reference_dp_impute(track, model)
    assert got.objective == want.objective
    assert np.array_equal(got.copy_numbers, want.copy_numbers)
    assert got.states == want.states


def kernel_min_plus(losses, pen):
    """The compiled recursion on hand-built stage costs, one row of the
    (4, n) ``losses`` per class: with LogR 0, means 0, alpha 1 and lambda1
    0 each stage cost is the loss as given, and with every genotype pick 0
    each state index names its copy class. Returns the objective and the
    class of every position."""
    n = np.shape(losses)[1]
    out = np.empty(n, dtype=np.int64)
    objective = _kernels.min_plus_path(np.zeros(n), losses, np.zeros((4, n), np.uint8), (0.0,) * 4, 1.0, 0.0, pen, out)
    return objective, STATE_COPIES[out]


def assert_same_min_plus(rows, pen, losses=None):
    """The compiled recursion on per-class stage costs (by default, the
    columns of ``rows``) against the reference recursion and the Python
    kernel; returns the objective and the path as a list."""
    if losses is None:
        losses = np.array(rows, dtype=float).T
    objective, path = kernel_min_plus(losses, pen)
    want_objective, want_path = reference_min_plus(rows, pen)
    python_objective, python_path = min_plus_path(list(losses), pen)
    assert objective == want_objective == python_objective
    assert path.tolist() == want_path.tolist() == python_path.tolist()
    return objective, path.tolist()


def pinned_steps(rows, pen):
    """Whether the reference's four backpointers agree at each step into
    positions 1..n-1: the kernel packs such a step into the byte 85 * L."""
    _, back = reference_recursion(rows, pen)
    return np.all(back[1:] == back[1:, :1], axis=1)


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


def test_stage_columns_match_the_literal_centres():
    rng = np.random.default_rng(47)
    centres = [0.0, 1.0, 0.5, 1.0 / 3.0, 2.0 / 3.0]
    for _ in range(50):
        n = int(rng.integers(1, 300))
        baf = np.where(rng.random(n) < 0.5, rng.choice(centres, n), rng.uniform(0, 1, n))
        track = make_track(rng.normal(0, 1, n), baf)
        model = random_model(rng)
        got = stage_columns(track, model)
        # the reference table's columns, from BAF centres written out as literals
        want = _class_loss_tables(track, model)[0].T
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
            ref_obj, ref_seq = enumerate_paths(track, model, 10)
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
            ref_obj, ref_seq = enumerate_paths(track, model, 4)
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
    """The leader test of the compiled recursion on hand-built stage costs,
    against the reference recursion: gaps at the guard, runs of each
    leader, leader switches, inf costs, and cases where rounding breaks the
    triangle inequality of the penalties."""

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


class TestKernelEdgeCases:
    """The compiled recursion at the edges of its packed backpointers and
    its traceback, against the reference recursion."""

    PEN = penalties(DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.0, 0.8))
    # class 2 far below the rest: each step after the first into it is a
    # leader step
    RUN = [[50.0, 50.0, 0.0, 50.0]] * 100
    # equal costs: the next step keeps every class where it is, a full step
    TIE = [[0.0] * 4]

    @pytest.mark.parametrize("row", [[3.0, 1.0, 2.0, 4.0], [1.0] * 4, [0.0, 5.0, 5.0, 0.0], [9.0, 9.0, 9.0, 0.5]])
    def test_one_position(self, row):
        # no step, so no backpointer byte
        _, path = assert_same_min_plus([row], self.PEN)
        assert path == [int(np.argmin(row))]

    def test_two_positions(self):
        rng = np.random.default_rng(50)
        pinned = set()
        for _ in range(300):
            rows = rng.uniform(0.0, 10.0, (2, 4))
            rows[rng.random((2, 4)) < 0.2] = 0.0
            assert_same_min_plus(rows.tolist(), self.PEN)
            pinned.add(bool(pinned_steps(rows.tolist(), self.PEN)[0]))
        assert pinned == {False, True}

    def test_every_step_full(self):
        # costs far below the least penalty: every class keeps itself at
        # every step, so no byte is 85 * L and the walk visits every step
        rng = np.random.default_rng(51)
        rows = rng.uniform(0.0, 1e-4, (300, 4)).tolist()
        assert not pinned_steps(rows, self.PEN).any()
        assert_same_min_plus(rows, self.PEN)

    @pytest.mark.parametrize("leader", [0, 1, 2, 3])
    def test_every_step_pinned(self, leader):
        # one class far below the rest: from the second step on every step
        # is a leader step, and the first step is a full step whose four
        # classes all choose the leader
        rows = np.full((300, 4), 50.0)
        rows[:, leader] = 0.0
        assert pinned_steps(rows.tolist(), self.PEN).all()
        _, path = assert_same_min_plus(rows.tolist(), self.PEN)
        assert path == [leader] * 300

    @pytest.mark.parametrize("end", [0, 1, 2, 3])
    def test_full_step_at_either_end(self, end):
        last = [50.0] * 4
        last[end] = 0.0
        # after the TIE row the gaps to class 2 equal the penalties, so the
        # leader test fails and the next step is full
        cases = {"first": self.TIE + self.RUN, "last": self.RUN + self.TIE + [last]}
        cases["both"] = self.TIE + cases["last"]
        for where, rows in cases.items():
            pinned = pinned_steps(rows, self.PEN)
            assert (not pinned[0]) == (where != "last")
            assert (not pinned[-1]) == (where != "first")
            assert pinned[1:-1].all()
            assert_same_min_plus(rows, self.PEN)

    def test_strided_columns(self):
        # the classes of an n x 4 table are strided views; the kernel must
        # read them exactly as a contiguous copy
        rng = np.random.default_rng(52)
        table = rng.uniform(0.0, 3.0, (500, 4))
        table[rng.random((500, 4)) < 0.3] = 0.0
        assert not table.T.flags.c_contiguous
        objective, path = assert_same_min_plus(table.tolist(), self.PEN, losses=table.T)
        contiguous = kernel_min_plus(np.ascontiguousarray(table.T), self.PEN)
        assert contiguous[0] == objective
        assert contiguous[1].tolist() == path


def chain_walk(back, last):
    """The scalar traceback: each position's class from the packed byte of
    the step after it and the class after it."""
    path = [last]
    for packed in reversed(back):
        path.append(packed >> 2 * path[-1] & 3)
    return path[::-1]


class TestStatePath:
    """StatePath keeps state indices; states and copy numbers read from
    them as they did when states were stored."""

    @staticmethod
    def assert_reads_as_states(path, n):
        assert "states" not in vars(path)  # built on first read only
        assert isinstance(path.states, tuple) and len(path.states) == n
        assert path.states is path.states
        assert path.states == tuple(TEN_STATES[i] for i in path.state_indices.tolist())
        assert path.copy_numbers.dtype == np.int64
        assert path.copy_numbers.tolist() == [s.copy_number for s in path.states]
        assert not path.copy_numbers.flags.writeable
        assert not path.state_indices.flags.writeable

    def test_dp_impute(self):
        spec = simulate.SimSpec(n=600, cnv_length=40, cnv_type=simulate.CnvType("dup"), seed=53)
        track = simulate.generate(spec).track
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8)
        path = dp_impute(track, model)
        self.assert_reads_as_states(path, track.n)
        want = reference_dp_impute(track, model)
        assert path.states == want.states
        assert np.array_equal(path.copy_numbers, want.copy_numbers)
        assert reestimate_mu(track, path, model) == reestimate_mu(track, path_of(path.states), model)

    def test_dpi_fit(self):
        spec = simulate.SimSpec(n=800, cnv_length=40, cnv_type=simulate.CnvType("del1"), seed=55)
        track = simulate.generate(spec).track
        fit = dpi_fit(track, DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8))
        assert fit.rounds >= 1
        self.assert_reads_as_states(fit.path, track.n)
        assert np.any(fit.path.copy_numbers == 1)
        direct = dp_impute(track, fit.model)
        assert fit.path.objective == direct.objective
        assert fit.path.states == direct.states
        assert reestimate_mu(track, fit.path, fit.model) == reestimate_mu(
            track, path_of(fit.path.states), fit.model
        )

    def test_keeps_its_own_copy(self):
        indices = np.array([0, 4, 9, 2])
        path = StatePath(indices, 1.5)
        indices[:] = 3
        assert [s.genotype for s in path.states] == ["phi", "AB", "BBB", "B"]
        assert path.copy_numbers.tolist() == [0, 2, 3, 1]

    def test_paths_compare_by_states_and_objective(self):
        path = StatePath(np.array([4, 4, 1]), 2.5)
        same = StatePath([4, 4, 1], 2.5)
        assert path == same and not path != same
        with pytest.raises(TypeError, match="unhashable"):
            hash(path)
        for other in (
            StatePath(np.array([4, 4, 2]), 2.5),  # another genotype, same copy numbers
            StatePath(np.array([4, 4, 1]), 2.75),
            StatePath(np.array([4, 4]), 2.5),
            StatePath(np.array([4, 4, 1, 1]), 2.5),
        ):
            assert path != other and not path == other
        assert path != (path.state_indices, path.objective)

    def test_fits_compare_by_path_model_and_rounds(self):
        spec = simulate.SimSpec(n=800, cnv_length=40, cnv_type=simulate.CnvType("del1"), seed=55)
        track = simulate.generate(spec).track
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8)
        fit = dpi_fit(track, model)
        again = dpi_fit(track, model)
        assert fit == again and not fit != again
        assert fit.rounds >= 1 and fit.model != model
        for other in (
            replace(fit, rounds=fit.rounds + 1),
            replace(fit, model=model),
            replace(fit, path=dp_impute(track, model)),
        ):
            assert fit != other


if given is None:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_matches_reference_on_random_tracks():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_traceback_matches_the_chain_walk():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_kernel_matches_the_python_recursion():
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

    @st.composite
    def packed_backpointers(draw):
        # runs of the pinned bytes 0/85/170/255 and of any byte
        byte = st.one_of(st.sampled_from([0, 85, 170, 255]), st.integers(0, 255))
        runs = draw(st.lists(st.tuples(byte, st.integers(1, 30)), max_size=40))
        return bytearray(b for b, k in runs for _ in range(k)), draw(st.integers(0, 3))

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(packed_backpointers())
    def test_traceback_matches_the_chain_walk(case):
        back, last = case
        path = trace_back(back, last)
        assert path.dtype == np.int64
        assert path.tolist() == chain_walk(back, last)


    @st.composite
    def stage_cost_tables(draw):
        # a few repeated costs tie classes and steps; an inf cost makes the
        # kernel's delta inf, so that no leader test passes
        n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)))
        cost = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]), st.floats(0.0, 50.0))
        rows = draw(st.lists(st.lists(cost, min_size=4, max_size=4), min_size=n, max_size=n))
        mu = sorted(draw(st.lists(st.floats(-7.0, 1.0), min_size=4, max_size=4, unique=True)))
        lambda2 = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 5.0)))
        return rows, penalties(DpiModel(tuple(mu), 0.0, lambda2))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(stage_cost_tables())
    def test_kernel_matches_the_python_recursion(case):
        assert_same_min_plus(*case)


class TestReestimateMu:
    def test_all_copy_two_updates_only_mu2(self):
        rng = np.random.default_rng(27)
        logr = rng.normal(0.01, 0.001, 50)
        track = make_track(logr, np.full(50, 0.5))
        model = DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.1, 0.1)
        path = path_of([STATE_BY_NAME["AB"]] * 50)
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
        updated = reestimate_mu(track, path_of(states), model)
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
        updated = reestimate_mu(track, path_of(states), model)
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
            updated = reestimate_mu(track, path_of(states), model)
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

    def test_builds_the_genotype_table_once(self, monkeypatch):
        # LogR above the default copy-2 mean: the means move for rounds
        rng = np.random.default_rng(0)
        track = make_track(rng.normal(0.1, 0.1, 300), np.clip(rng.normal(0.5, 0.1, 300), 0, 1))
        built = []
        build = SnpTrack.genotype_fit.func
        monkeypatch.setattr(SnpTrack.genotype_fit, "func", lambda t: built.append(t) or build(t))
        fit = dpi_fit(track, DpiModel(DEFAULT_COPY_LOGR_MEANS, 0.2, 0.8))
        assert fit.rounds >= 2
        assert len(built) == 1 and built[0] is track

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
