"""Tests for the smoothed fused-lasso MM solver.

Independent oracles: dense per-term Hessian assembly for the surrogate,
numpy.linalg.solve for the tridiagonal solve, and plain gradient descent
on the smooth criterion for the full solver.
"""

from dataclasses import replace

import tracemalloc

import numpy as np
import numpy.linalg as la
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test is skipped without hypothesis
    given = None

from cnvfuse import _kernels
from cnvfuse.errors import NonFiniteInput, ZeroPivot
from cnvfuse.fused_lasso import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    TridiagonalSystem,
    build_surrogate,
    objective,
    smooth_abs,
    solve_mm_block,
    solve_mm_tdm,
    thomas_solve,
)
from cnvfuse.signal_model import TuningConstants
from cnvfuse.simulate import CnvType, SimSpec, generate

from oracles import block_sweep, exact_fused_lasso, exact_objective, gradient, reference_mm, soft_threshold_check


def dense_matrix(system):
    return (
        np.diag(system.diag)
        + np.diag(system.off, 1)
        + np.diag(system.off, -1)
    )


def dense_surrogate_oracle(beta_m, tc):
    """Assemble the surrogate Hessian by summing per-term majorizer
    Hessians: identity from the quadratic loss, a diagonal rank-1 piece
    per sparsity term, and (e_i - e_{i-1}) outer products per fusion
    term."""
    n = len(beta_m)
    A = np.eye(n)
    for i in range(n):
        A[i, i] += tc.lambda1 / smooth_abs(beta_m[i], tc.epsilon)
    for i in range(1, n):
        w = tc.lambda2 / smooth_abs(beta_m[i] - beta_m[i - 1], tc.epsilon)
        e = np.zeros(n)
        e[i] = 1.0
        e[i - 1] = -1.0
        A += w * np.outer(e, e)
    return A


def random_spd_tridiagonal(rng, n):
    off = rng.uniform(-2.0, 2.0, size=n - 1)
    diag = np.abs(off * rng.uniform(0.5, 2.0, size=n - 1)).copy()
    d = rng.uniform(0.1, 1.0, size=n)
    d[:-1] += np.abs(off)
    d[1:] += np.abs(off)
    rhs = rng.normal(size=n)
    return TridiagonalSystem(diag=d, off=off, rhs=rhs)


class TestSmoothAbs:
    def test_at_zero(self):
        assert smooth_abs(0.0, 1e-10) == pytest.approx(1e-5, rel=1e-12)

    def test_three_four_five(self):
        assert smooth_abs(4.0, 9.0) == 5.0

    def test_negligible_epsilon(self):
        assert abs(smooth_abs(3.0, 1e-10) - 3.0) < 2e-11

    def test_dominates_abs(self):
        xs = np.linspace(-5, 5, 101)
        assert np.all(smooth_abs(xs, 1e-8) >= np.abs(xs))


class TestObjective:
    def test_all_terms_at_sqrt_eps(self):
        tc = TuningConstants(1.0, 1.0, epsilon=1e-10)
        val = objective([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], tc)
        assert val == pytest.approx(5e-5, rel=1e-9)

    def test_pure_quadratic(self):
        tc = TuningConstants(0.0, 0.0)
        assert objective([0.0, 0.0], [1.0, -1.0], tc) == pytest.approx(1.0)

    def test_near_exact_absolute_values(self):
        tc = TuningConstants(1.0, 1.0, epsilon=1e-18)
        assert objective([1.0, 2.0], [1.0, 2.0], tc) == pytest.approx(4.0, abs=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            objective([1.0], [1.0, 2.0], TuningConstants(1.0, 1.0))


class TestBuildSurrogate:
    def test_unit_weights_at_zero(self):
        tc = TuningConstants(1.0, 1.0, epsilon=1.0)
        system = build_surrogate([0.0, 0.0], [1.0, 2.0], tc)
        assert system.diag.tolist() == [3.0, 3.0]
        assert system.off.tolist() == [-1.0]
        assert system.rhs.tolist() == [1.0, 2.0]

    def test_zero_lambdas_identity(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=8)
        system = build_surrogate(rng.normal(size=8), y, TuningConstants(0.0, 0.0))
        assert np.all(system.diag == 1.0)
        assert np.all(system.off == 0.0)
        assert np.array_equal(system.rhs, y)

    def test_matches_dense_assembly_oracle(self):
        rng = np.random.default_rng(1)
        beta_m = rng.normal(size=6)
        tc = TuningConstants(0.7, 1.3, epsilon=1e-6)
        system = build_surrogate(beta_m, rng.normal(size=6), tc)
        np.testing.assert_allclose(
            dense_matrix(system), dense_surrogate_oracle(beta_m, tc), rtol=1e-14
        )

    def test_diagonal_dominance(self):
        rng = np.random.default_rng(2)
        beta_m = rng.normal(size=50)
        tc = TuningConstants(0.5, 2.0)
        s = build_surrogate(beta_m, rng.normal(size=50), tc)
        offsum = np.zeros(50)
        offsum[:-1] += np.abs(s.off)
        offsum[1:] += np.abs(s.off)
        assert np.all(s.diag - offsum >= 1.0)  # identity plus lambda1 slack

    def test_systems_compare_arrays_by_value(self):
        rng = np.random.default_rng(3)
        beta_m, y = rng.normal(size=6), rng.normal(size=6)
        tc = TuningConstants(0.5, 2.0)
        system = build_surrogate(beta_m, y, tc)
        same = build_surrogate(beta_m.copy(), y.copy(), tc)
        assert system.diag is not same.diag and system.rhs is not same.rhs
        assert system == same and not system != same
        with pytest.raises(TypeError, match="unhashable"):
            hash(system)
        for other in (
            replace(system, diag=system.diag + 1.0),
            replace(system, off=-system.off),
            replace(system, rhs=system.rhs[::-1]),
            build_surrogate(beta_m[:5], y[:5], tc),
        ):
            assert system != other and not system == other
        assert system != (system.diag, system.off, system.rhs)


class TestThomasSolve:
    def test_identity(self):
        system = TridiagonalSystem(
            diag=np.ones(3), off=np.zeros(2), rhs=np.array([5.0, -3.0, 2.0]),
        )
        assert thomas_solve(system).tolist() == [5.0, -3.0, 2.0]

    def test_small_exact(self):
        system = TridiagonalSystem(
            diag=np.array([2.0, 2.0]), off=np.array([-1.0]), rhs=np.array([1.0, 1.0]),
        )
        np.testing.assert_allclose(thomas_solve(system), [1.0, 1.0], rtol=1e-15)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 101))
            system = random_spd_tridiagonal(rng, n)
            x = thomas_solve(system)
            ref = la.solve(dense_matrix(system), system.rhs)
            assert la.norm(x - ref) <= 1e-10 * max(1.0, la.norm(ref))

    def test_zero_pivot(self):
        system = TridiagonalSystem(
            diag=np.array([0.0, 1.0]), off=np.array([1.0]), rhs=np.array([1.0, 1.0]),
        )
        with pytest.raises(ZeroPivot):
            thomas_solve(system)


def reference_thomas_solve(system):
    """Indexed Thomas sweep: the arithmetic, in its order, that
    ``thomas_solve`` must reproduce bit for bit."""
    n = system.diag.size
    b = system.diag.tolist()
    d = system.rhs.tolist()
    if n == 1:
        if abs(b[0]) < 1e-300:
            raise ZeroPivot("zero pivot at row 0")
        return np.array([d[0] / b[0]])
    a = c = system.off.tolist()
    cp = [0.0] * (n - 1)
    dp = [0.0] * n
    piv = b[0]
    if abs(piv) < 1e-300:
        raise ZeroPivot("zero pivot at row 0")
    cp[0] = c[0] / piv
    dp[0] = d[0] / piv
    for i in range(1, n):
        piv = b[i] - a[i - 1] * cp[i - 1]
        if abs(piv) < 1e-300:
            raise ZeroPivot(f"zero pivot at row {i}")
        if i < n - 1:
            cp[i] = c[i] / piv
        dp[i] = (d[i] - a[i - 1] * dp[i - 1]) / piv
    x = dp
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return np.asarray(x)


def random_dominant_tridiagonal(rng, n):
    """Strictly diagonally dominant symmetric system with diagonal entries
    of either sign."""
    off = rng.uniform(-2.0, 2.0, size=n - 1)
    diag = rng.uniform(0.1, 1.0, size=n)
    diag[1:] += np.abs(off)
    diag[:-1] += np.abs(off)
    diag *= rng.choice([-1.0, 1.0], size=n)
    return TridiagonalSystem(diag=diag, off=off, rhs=rng.normal(size=n) * 10.0)


def simulated_logr(n, seed, cnv_type=CnvType.DELETION1):
    spec = SimSpec(n=n, cnv_length=min(50, n // 4), cnv_type=cnv_type, seed=seed)
    return generate(spec).track.logr


def assert_same_bits(x, ref):
    assert x.dtype == ref.dtype and x.shape == ref.shape
    assert x.tobytes() == ref.tobytes()


class TestThomasEquivalence:
    """The compiled sweep against the indexed reference loop above."""

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 20000])
    def test_random_general_systems(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20 if n < 20000 else 3):
            system = random_dominant_tridiagonal(rng, n)
            x = thomas_solve(system)
            ref = reference_thomas_solve(system)
            assert np.array_equal(x, ref)
            assert_same_bits(x, ref)

    def test_strided_and_integer_arrays(self):
        rng = np.random.default_rng(11)
        wide = random_dominant_tridiagonal(rng, 400)
        strided = TridiagonalSystem(
            diag=wide.diag[::2], off=wide.off[1::2], rhs=wide.rhs[::2],
        )
        integer = TridiagonalSystem(
            diag=np.array([4, -5, 6]), off=np.array([-1, 3]), rhs=np.array([7, 0, -2]),
        )
        for system in (strided, integer):
            assert_same_bits(thomas_solve(system), reference_thomas_solve(system))

    @pytest.mark.parametrize("n,seed", [(500, 1), (4000, 2), (13000, 3)])
    def test_surrogates_of_simulated_tracks(self, n, seed):
        y = simulated_logr(n, seed)
        tc = TuningConstants(0.2, 0.2 * 2 * np.sqrt(np.log(n)))
        beta = y.copy()
        for _ in range(4):
            system = build_surrogate(beta, y, tc)
            beta = thomas_solve(system)
            assert_same_bits(beta, reference_thomas_solve(system))

    def test_solve_mm_tdm_unchanged(self):
        # the fit's loop runs in C; the reference loops in Python over the
        # indexed sweep, so no C sits in it
        y = simulated_logr(13000, 7, CnvType.DUPLICATION)
        tc = TuningConstants(0.2, 0.2 * 2 * np.sqrt(np.log(y.size)))
        ref = reference_mm(y, tc, DEFAULT_TOL, DEFAULT_MAX_ITER, lambda system, beta: reference_thomas_solve(system))
        assert ref.iterations > 10
        assert_same_fit(solve_mm_tdm(y, tc), ref)

    @pytest.mark.parametrize(
        "diag,off,row",
        [
            ([0.0], [], 0),
            ([0.0, 1.0, 1.0], [1.0, 1.0], 0),
            ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1),
            ([2.0, 1.5, 1.0], [1.0, 1.0], 2),
        ],
    )
    def test_zero_pivot_names_the_same_row(self, diag, off, row):
        system = TridiagonalSystem(
            diag=np.array(diag), off=np.array(off), rhs=np.ones(len(diag)),
        )
        with pytest.raises(ZeroPivot) as ref:
            reference_thomas_solve(system)
        with pytest.raises(ZeroPivot) as new:
            thomas_solve(system)
        assert str(new.value) == str(ref.value) == f"zero pivot at row {row}"

    @pytest.mark.parametrize("diag", [[1e-300], [-1e-300], [1.0, 1e-300, 2.0]])
    def test_pivot_at_the_floor_is_accepted(self, diag):
        off = [0.0] * (len(diag) - 1)
        system = TridiagonalSystem(
            diag=np.array(diag), off=np.array(off), rhs=np.ones(len(diag)),
        )
        assert_same_bits(thomas_solve(system), reference_thomas_solve(system))


if given is None:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_kernel_matches_the_indexed_loop():
        pass

else:

    @st.composite
    def tridiagonal_systems(draw):
        # repeated small entries make zero pivots, at row 0 and further in
        n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)))
        layout = draw(st.sampled_from(["float64", "strided", "float32", "int"]))
        if layout == "int":
            value = st.integers(-5, 5)
        else:
            value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5]), st.floats(-100.0, 100.0))
        dtype = {"int": np.int64, "float32": np.float32}.get(layout, np.float64)
        diag, off, rhs = (np.array(draw(st.lists(value, min_size=m, max_size=m)), dtype=dtype) for m in (n, n - 1, n))
        if layout == "strided":
            diag, off, rhs = (np.repeat(a, 2)[::2] for a in (diag, off, rhs))
        return TridiagonalSystem(diag=diag, off=off, rhs=rhs)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(tridiagonal_systems())
    def test_kernel_matches_the_indexed_loop(system):
        try:
            want = reference_thomas_solve(system)
        except ZeroPivot as exc:
            with pytest.raises(ZeroPivot) as got:
                thomas_solve(system)
            assert str(got.value) == str(exc)
        else:
            assert_same_bits(thomas_solve(system), want)


def assert_same_fit(fit, ref):
    assert_same_bits(fit.beta, ref.beta)
    assert fit.objective == ref.objective
    assert_same_bits(fit.objective_trace, ref.objective_trace)
    assert fit.iterations == ref.iterations
    assert fit.converged == ref.converged


#: each solver with the step the reference loop takes in its place
SOLVERS = (
    (solve_mm_tdm, lambda system, beta: thomas_solve(system)),
    (solve_mm_block, block_sweep),
)


def stepped_logr(rng, n):
    """LogR of a track with a few CNV-sized level changes plus noise."""
    levels = rng.choice([-0.63, 0.0, 0.0, 0.33], size=max(1, n // 40))
    return np.repeat(levels, -(-n // levels.size))[:n] + rng.normal(0, 0.25, n)


class TestMmLoopAgainstReference:
    """Both solvers against ``oracles.reference_mm``, which loops in Python
    over the library's single-call forms, computing every norm from scratch
    at every iterate: the solvers run the whole loop in C, reusing the
    objective's norms for the next surrogate, and must give the same fit
    bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shortest_tracks(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            y = rng.normal(0.0, 2.0, n)
            tc = TuningConstants(*rng.uniform(0.0, 2.0, 2))
            for solve, step in SOLVERS:
                assert_same_fit(solve(y, tc), reference_mm(y, tc, DEFAULT_TOL, DEFAULT_MAX_ITER, step))

    @pytest.mark.parametrize("n,seed", [(50, 1), (137, 2), (800, 3), (2400, 4), (5000, 5)])
    def test_random_tracks(self, n, seed):
        rng = np.random.default_rng(seed)
        y = stepped_logr(rng, n)
        sigma = rng.uniform(0.1, 0.4)
        lam2 = 2 * sigma * np.sqrt(np.log(n))
        for tc in (TuningConstants(sigma, lam2), TuningConstants(0.0, lam2)):
            fit = solve_mm_tdm(y, tc)
            assert fit.converged
            assert_same_fit(fit, reference_mm(y, tc, DEFAULT_TOL, DEFAULT_MAX_ITER, SOLVERS[0][1]))
            # the block sweep would need thousands of iterations: capped
            fit = solve_mm_block(y, tc, max_iter=60)
            assert_same_fit(fit, reference_mm(y, tc, DEFAULT_TOL, 60, SOLVERS[1][1]))

    def test_fit_capped_by_max_iter(self):
        rng = np.random.default_rng(6)
        y = stepped_logr(rng, 3000)
        tc = TuningConstants(0.2, 0.2 * 2 * np.sqrt(np.log(y.size)))
        for solve, step in SOLVERS:
            fit = solve(y, tc, tol=1e-9, max_iter=4)
            assert fit.iterations == 4 and not fit.converged
            assert_same_fit(fit, reference_mm(y, tc, 1e-9, 4, step))

    def test_simulated_track(self):
        y = simulated_logr(13000, 8, CnvType.DELETION0)
        tc = TuningConstants(0.2, 0.2 * 2 * np.sqrt(np.log(y.size)))
        fit = solve_mm_tdm(y, tc)
        assert fit.converged and fit.iterations > 10
        assert_same_fit(fit, reference_mm(y, tc, DEFAULT_TOL, DEFAULT_MAX_ITER, SOLVERS[0][1]))
        fit = solve_mm_block(y, tc, max_iter=30)
        assert_same_fit(fit, reference_mm(y, tc, DEFAULT_TOL, 30, SOLVERS[1][1]))

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_fit_across_kernel_calls(self, monkeypatch, chunk):
        # the kernel runs MM_CHUNK iterations per call; with small chunks a
        # fit carries its iterate, norms and trace across many calls, and
        # converges or runs out of iterations at a boundary or between two
        monkeypatch.setattr(_kernels, "MM_CHUNK", chunk)
        rng = np.random.default_rng(18)
        y = stepped_logr(rng, 300)
        tc = TuningConstants(0.1, 1.0)
        for (solve, step), last in zip(SOLVERS, (DEFAULT_MAX_ITER, 40)):
            for max_iter in (1, 14, 15, last):
                assert_same_fit(solve(y, tc, max_iter=max_iter), reference_mm(y, tc, DEFAULT_TOL, max_iter, step))

    def test_block_fit_past_two_kernel_calls(self):
        rng = np.random.default_rng(19)
        y = stepped_logr(rng, 60)
        tc = TuningConstants(0.1, 1.0)
        max_iter = 2 * _kernels.MM_CHUNK + 5
        fit = solve_mm_block(y, tc, tol=1e-300, max_iter=max_iter)
        assert fit.iterations == max_iter
        assert_same_fit(fit, reference_mm(y, tc, 1e-300, max_iter, block_sweep))

    def test_zero_pivot_in_the_loop(self):
        # out of reach of a valid TuningConstants (every pivot is >= 1);
        # a negative lambda1 makes the first surrogate's diagonal 0 at y = 0
        with pytest.raises(ZeroPivot, match="^zero pivot at row 0$"):
            _kernels.mm(np.zeros(3), -1.0, 0.0, 1.0, DEFAULT_TOL, 10, False)


def kernel_objective(beta, y, tc):
    """``cnv_objective``, the objective the MM kernel evaluates at each
    iterate, and the smoothed norms it leaves for the next surrogate."""
    beta, y = (np.ascontiguousarray(a, dtype=np.float64) for a in (beta, y))
    norms = np.full(2 * y.size - 1, np.nan)
    value = _kernels.library().cnv_objective(
        y.size, y.ctypes.data, beta.ctypes.data, tc.lambda1, tc.lambda2, tc.epsilon, norms.ctypes.data
    )
    return value, norms[: y.size], norms[y.size :]


def assert_same_objective(beta, y, tc):
    value, norm1, norm2 = kernel_objective(beta, y, tc)
    want = objective(beta, y, tc)
    assert np.float64(value).tobytes() == np.float64(want).tobytes(), (value, want)
    assert_same_bits(norm1, smooth_abs(beta, tc.epsilon))
    assert_same_bits(norm2, smooth_abs(np.diff(beta), tc.epsilon))


class TestKernelObjective:
    """The kernel's objective against ``fused_lasso.objective`` bit for
    bit: its squared residual in ``np.einsum``'s order (blocks of 8, a
    tail, buffers of 8 192) and its norm sums in ``np.sum``'s pairwise
    order (blocks of 128, halves above)."""

    LENGTHS = [*range(1, 10), 15, 16, 17, 127, 128, 129, 255, 256, 257, 8191, 8192, 8193, 16383, 16384, 16385]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_random_iterates(self, n):
        rng = np.random.default_rng(n)
        y = stepped_logr(rng, n)
        for beta in (y + rng.normal(0.0, 0.3, n), np.zeros(n)):
            for tc in (TuningConstants(0.3, 0.7), TuningConstants(0.0, 2.5, epsilon=1e-3)):
                assert_same_objective(beta, y, tc)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_signed_zeros_and_wide_magnitudes(self, n):
        rng = np.random.default_rng(1000 + n)
        values = np.array([0.0, -0.0, 1e-300, -1e-160, 5e-324, 1e-8, -3.0, 1e100, -1e150])
        beta, y = rng.choice(values, n), rng.choice(values, n)
        # magnitudes spread over 30 orders, so every addition rounds
        y[: n // 2] = rng.normal(size=n // 2) * 10.0 ** rng.integers(-15, 15, n // 2)
        for tc in (TuningConstants(0.3, 0.7), TuningConstants(0.0, 0.0, epsilon=1e-300), TuningConstants(1e-200, 1e200)):
            assert_same_objective(beta, y, tc)


class TestSolveMmTdm:
    @pytest.mark.parametrize("max_iter", [1, 30, 10**12])
    def test_iterations_allocate_no_track_sized_array(self, max_iter):
        # the iterations run in C, in the kernel's buffers: the iterate and
        # a work array of five more, the two norms, the surrogate's diagonal
        # and off-diagonal and the solve's ratios. The trace grows by chunks
        # of MM_CHUNK iterations, so max_iter=10**12 (a fit run to its
        # tolerance) allocates only the iterations run
        tol = DEFAULT_TOL if max_iter == 10**12 else 1e-300
        n = 50000
        y = simulated_logr(n, 9)
        tc = TuningConstants(0.2, 0.2 * 2 * np.sqrt(np.log(n)))
        solve_mm_tdm(y[:100], tc)  # the kernels are loaded before tracing
        tracemalloc.start()
        try:
            fit = solve_mm_tdm(y, tc, tol=tol, max_iter=max_iter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.iterations == max_iter if max_iter < 10**12 else fit.converged
        assert peak < 6 * 8 * n + 16 * (_kernels.MM_CHUNK + fit.iterations) + 4096

    def test_fits_compare_arrays_by_value(self):
        y = simulated_logr(300, 7)
        tc = TuningConstants(0.1, 0.5)
        fit = solve_mm_tdm(y, tc)
        same = solve_mm_tdm(y.copy(), tc)
        assert fit.beta is not same.beta and fit.objective_trace is not same.objective_trace
        assert fit == same and not fit != same
        with pytest.raises(TypeError, match="unhashable"):
            hash(fit)
        for other in (
            replace(fit, beta=np.nextafter(fit.beta, np.inf)),
            replace(fit, objective=2.0 * fit.objective),
            replace(fit, iterations=fit.iterations + 1),
            replace(fit, converged=not fit.converged),
            replace(fit, objective_trace=fit.objective_trace[:-1]),
            solve_mm_tdm(y, tc, max_iter=3),
        ):
            assert fit != other and not fit == other

    def test_zero_data(self):
        fit = solve_mm_tdm(np.zeros(100), TuningConstants(0.8, 0.5))
        assert fit.converged
        assert np.all(np.abs(fit.beta) <= 1e-5)

    def test_zero_lambdas_one_iteration(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=40)
        fit = solve_mm_tdm(y, TuningConstants(0.0, 0.0))
        assert fit.iterations == 1
        np.testing.assert_array_equal(fit.beta, y)

    def test_against_gradient_descent_oracle(self):
        # Plain gradient descent on the smooth criterion with the
        # conservative step 1/(1 + (2*lambda1 + 4*lambda2)/sqrt(eps)).
        # At eps = 1e-6 strong convexity makes 1e6 steps fully converge.
        rng = np.random.default_rng(5)
        y = rng.normal(size=30)
        tc = TuningConstants(0.1, 1.0, epsilon=1e-6)
        step = 1.0 / (1.0 + (2 * tc.lambda1 + 4 * tc.lambda2) / np.sqrt(tc.epsilon))
        b = y.copy()
        for _ in range(1_000_000):
            b -= step * gradient(b, y, tc)
        f_ref = objective(b, y, tc)
        fit = solve_mm_tdm(y, tc, tol=1e-13, max_iter=100000)
        assert fit.objective == pytest.approx(f_ref, abs=1e-6)

    def test_scalar_case_matches_grid_oracle(self):
        tc = TuningConstants(0.6, 0.0, epsilon=1e-10)
        for y0 in (-2.3, -0.5, 0.3, 1.9):
            fit = solve_mm_tdm([y0], tc)
            grid = np.linspace(-3, 3, 2_000_001)
            f_grid = 0.5 * (y0 - grid) ** 2 + tc.lambda1 * smooth_abs(grid, tc.epsilon)
            assert fit.objective <= f_grid.min() + 1e-9
            assert fit.converged and fit.iterations == 1

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            solve_mm_tdm([1.0, np.nan], TuningConstants(1.0, 1.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_tol_outside_positive_finite(self, tol):
        # tol=inf stopped after one iteration and reported convergence
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            solve_mm_tdm(np.zeros(10), TuningConstants(1.0, 1.0), tol=tol)

    def test_descent_property(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            y = rng.normal(size=80)
            lam1, lam2 = rng.uniform(0.01, 3.0, size=2)
            fit = solve_mm_tdm(y, TuningConstants(lam1, lam2))
            assert np.all(np.diff(fit.objective_trace) <= 1e-12)

    def test_majorization_touches_objective(self):
        # quadratic form + explicit constant equals the criterion at the
        # expansion point: c_m collects (z^2 + 2*eps) / (2*||z||) terms
        rng = np.random.default_rng(7)
        y = rng.normal(size=25)
        z = rng.normal(size=25)
        tc = TuningConstants(0.4, 1.1, epsilon=1e-8)
        system = build_surrogate(z, y, tc)
        A = dense_matrix(system)
        nz = smooth_abs(z, tc.epsilon)
        dz = np.diff(z)
        ndz = smooth_abs(dz, tc.epsilon)
        c_m = tc.lambda1 * np.sum((z**2 + 2 * tc.epsilon) / (2 * nz))
        c_m += tc.lambda2 * np.sum((dz**2 + 2 * tc.epsilon) / (2 * ndz))
        g_at_z = 0.5 * z @ A @ z - y @ z + 0.5 * y @ y + c_m
        assert g_at_z == pytest.approx(objective(z, y, tc), rel=1e-12)

    def test_gradient_stationarity_documented_bound(self):
        rng = np.random.default_rng(8)
        tol = 1e-6
        for _ in range(5):
            y = rng.normal(size=100)
            lam1, lam2 = rng.uniform(0.05, 2.0, size=2)
            tc = TuningConstants(lam1, lam2)
            fit = solve_mm_tdm(y, tc, tol=tol, max_iter=50000)
            bound = (
                (np.sqrt(lam1) + 2 * np.sqrt(lam2))
                * np.sqrt(2 * tol)
                / tc.epsilon**0.25
            )
            assert np.max(np.abs(gradient(fit.beta, y, tc))) <= bound

    def test_solution_bounded_by_data_hull(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            y = rng.normal(0, 2, size=60)
            fit = solve_mm_tdm(y, TuningConstants(0.3, 1.5))
            assert np.all(fit.beta >= y.min() - 1.0)
            assert np.all(fit.beta <= y.max() + 1.0)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=70)
        tc = TuningConstants(0.2, 0.9)
        fwd = solve_mm_tdm(y, tc, tol=1e-10)
        rev = solve_mm_tdm(y[::-1], tc, tol=1e-10)
        np.testing.assert_allclose(rev.beta[::-1], fwd.beta, atol=1e-8)

    def test_pipeline_against_dense_solve(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 17, 100):
            beta_m = rng.normal(size=n)
            y = rng.normal(size=n)
            tc = TuningConstants(0.6, 1.2)
            system = build_surrogate(beta_m, y, tc)
            x = thomas_solve(system)
            ref = la.solve(dense_matrix(system), y)
            assert la.norm(x - ref) <= 1e-9 * max(1.0, la.norm(ref))


class TestSolveMmBlock:
    def test_zero_lambdas_one_sweep(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=21)
        fit = solve_mm_block(y, TuningConstants(0.0, 0.0))
        assert fit.iterations == 1
        np.testing.assert_allclose(fit.beta, y, rtol=1e-15)

    def test_much_slower_than_tdm(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=30) + np.repeat([0.0, -1.5, 0.0], 10)
        tc = TuningConstants(0.1, 1.0)
        fit_t = solve_mm_tdm(y, tc, tol=1e-6)
        fit_b = solve_mm_block(y, tc, tol=1e-6, max_iter=100000)
        assert np.all(np.diff(fit_b.objective_trace) <= 1e-12)
        assert fit_b.iterations >= 10 * fit_t.iterations

    def test_objective_dominates_tdm_at_equal_iterations(self):
        # Not a theorem: an exact surrogate minimizer can land slightly
        # higher in f than one relaxation sweep does on the very first
        # iterations of adversarial noise-only data. It holds throughout
        # on CNV-shaped signals, which is what matters here.
        rng = np.random.default_rng(14)
        for _ in range(5):
            y = np.repeat([0.0, -0.63, 0.0, 0.33, 0.0], 30)
            y = y + rng.normal(0, 0.2, y.size)
            tc = TuningConstants(0.2, 0.9)
            fit_t = solve_mm_tdm(y, tc, tol=1e-10, max_iter=200)
            fit_b = solve_mm_block(y, tc, tol=1e-10, max_iter=200)
            m = min(fit_t.objective_trace.size, fit_b.objective_trace.size)
            assert np.all(
                fit_b.objective_trace[:m] >= fit_t.objective_trace[:m] - 1e-12
            )


class TestSoftThresholdCheck:
    def test_step_signal_identity(self):
        rng = np.random.default_rng(15)
        y = np.repeat([0.0, 2.0, 0.0, -2.5, 0.0], 40) + rng.normal(0, 0.1, 200)
        disc = soft_threshold_check(y, lambda1=0.3, lambda2=1.0, tol=1e-10)
        assert disc <= 1e-3

    def test_full_thresholding_zeroes_everything(self):
        rng = np.random.default_rng(16)
        y = rng.normal(0, 0.2, size=120)
        fit0 = solve_mm_tdm(y, TuningConstants(0.0, 1.0), tol=1e-10)
        lam1 = float(np.max(np.abs(fit0.beta))) + 0.1
        fit1 = solve_mm_tdm(y, TuningConstants(lam1, 1.0), tol=1e-10)
        assert np.all(np.abs(fit1.beta) <= 1e-3)

    def test_small_lambda1_continuity(self):
        rng = np.random.default_rng(17)
        y = np.repeat([0.0, 1.5, 0.0], 30) + rng.normal(0, 0.1, 90)
        disc = soft_threshold_check(y, lambda1=1e-6, lambda2=0.8, tol=1e-11)
        assert disc <= 1e-4


def random_fused_lasso_instance(rng):
    """(y, lambda1, lambda2): 20-120 values on four random levels plus
    N(0, 1) noise, lambda1 in [0.05, 1] and lambda2 in [0.2, 3]."""
    n = int(rng.integers(20, 121))
    y = np.repeat(rng.normal(0, 2, 4), -(-n // 4))[:n] + rng.normal(0, 1, n)
    return y, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.2, 3.0))


class TestExactOracle:
    """``solve_mm_tdm`` against the exact solution of the non-smoothed
    criterion, on 100 random instances, solved deeply (tol=1e-13) and at
    the default settings.

    Over 1000 instances (seeds 0-9, 100 each, seed 0 being the one used
    here) the deep solve came within 4.4e-4 of the oracle in max-norm and
    the default solve within 6.6e-2, and MM's objective stayed at least
    2.5e-6 above the oracle's; the bounds below are about twice those
    distances."""

    DEEP_BOUND = 9e-4
    DEFAULT_BOUND = 0.13

    @pytest.fixture(scope="class")
    def solutions(self):
        rng = np.random.default_rng(0)
        out = []
        for _ in range(100):
            y, lam1, lam2 = random_fused_lasso_instance(rng)
            tc = TuningConstants(lam1, lam2)
            deep = solve_mm_tdm(y, tc, tol=1e-13, max_iter=10**6)
            assert deep.converged
            out.append((y, lam1, lam2, exact_fused_lasso(y, lam1, lam2), deep.beta, solve_mm_tdm(y, tc).beta))
        return out

    def test_oracle_objective_is_never_above_mm(self, solutions):
        for y, lam1, lam2, exact, deep, default in solutions:
            best = exact_objective(exact, y, lam1, lam2)
            for beta in (deep, default):
                assert best <= exact_objective(beta, y, lam1, lam2)

    def test_deep_solve_is_near_the_oracle(self, solutions):
        distance = max(float(np.max(np.abs(deep - exact))) for *_, exact, deep, _ in solutions)
        print(f"\nmax-norm distance of the tol=1e-13 solve from the exact solution: {distance:.3g}")
        assert distance <= self.DEEP_BOUND

    def test_default_solve_distance(self, solutions):
        distance = [float(np.max(np.abs(default - exact))) for *_, exact, _, default in solutions]
        print(
            "\nmax-norm distance of the default solve from the exact solution: "
            f"median {np.median(distance):.3g}, max {max(distance):.3g}"
        )
        assert max(distance) <= self.DEFAULT_BOUND
