"""Tests for the route functions of cnvfuse.pipeline, and a guard that the
benchmark's tracer (perfbench/tracing.py) still sees every traced layer."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cnvfuse
from cnvfuse import cli
from cnvfuse import dpi as dpi_mod
from cnvfuse import segment_caller as sc
from cnvfuse.errors import DegenerateSignal, TooFewSnps
from cnvfuse.fused_lasso import DEFAULT_MAX_ITER, DEFAULT_TOL, BetaFit, solve_mm_block
from cnvfuse.pipeline import called_copies, fit_dpi, fit_fused_lasso
from cnvfuse.signal_model import DEFAULT_EPSILON, SnpTrack, default_lambdas, estimate_sigma
from cnvfuse.simulate import CnvType, SimSpec, dataset2_specs, generate

FL_PARAMS = dict(
    epsilon=DEFAULT_EPSILON,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
    fdr_level=sc.DEFAULT_FDR_LEVEL,
    min_snps=sc.DEFAULT_MIN_SNPS,
)
DPI_PARAMS = dict(
    alpha=dpi_mod.DEFAULT_ALPHA,
    mu_init=dpi_mod.DEFAULT_COPY_LOGR_MEANS,
    max_rounds=dpi_mod.DEFAULT_MAX_ROUNDS,
)


def test_merged_and_unmerged_calls_give_the_same_copies():
    specs = dataset2_specs(count=24, lengths=(600, 1200, 2000), cnv_sizes=(10, 30, 60), seed=8)
    merges = called = 0
    for spec in specs:
        track = generate(spec).track
        sigma, fit, merged = fit_fused_lasso(track, **FL_PARAMS)
        unmerged = sc.call_cnvs(fit.beta, sigma)
        copies = called_copies(merged, track.n)
        assert np.array_equal(copies, called_copies(unmerged, track.n))
        merges += len(unmerged) - len(merged)
        called += np.count_nonzero(copies != 2)
    assert merges > 0 and called > 0


def test_called_copies_by_call():
    seg = lambda a, b, call: sc.SegmentCall(a, b, b - a + 1, 0.0, 0.0, 1.0, call)
    segments = [
        seg(0, 2, sc.Call.NEUTRAL),
        seg(3, 4, sc.Call.DELETION),
        seg(5, 5, sc.Call.DUPLICATION),
        seg(6, 7, sc.Call.NEUTRAL),
    ]
    assert called_copies(segments, 8).tolist() == [2, 2, 2, 1, 1, 3, 2, 2]


def test_block_solver_reaches_called_copies():
    truth = generate(SimSpec(n=400, cnv_length=60, cnv_type=CnvType.DELETION1, seed=4))
    params = dict(FL_PARAMS, max_iter=40)
    sigma, fit, segments = fit_fused_lasso(truth.track, solver=solve_mm_block, **params)
    assert isinstance(fit, BetaFit) and fit.iterations == 40 and not fit.converged
    assert sigma == estimate_sigma(truth.track)
    called = called_copies(segments, truth.track.n)
    assert called.shape == (400,)
    assert np.any(called[truth.true_copy == 1] == 1)


def test_unset_lambdas_default_from_sigma_and_n():
    track = generate(SimSpec(n=900, cnv_length=40, seed=12)).track
    d1, d2 = default_lambdas(estimate_sigma(track), track.n)
    for lam1, lam2, want in [(None, None, (d1, d2)), (0.3, None, (0.3, d2)), (None, 2.5, (d1, 2.5))]:
        model = fit_dpi(track, lam1, lam2, **DPI_PARAMS).model
        assert (model.lambda1, model.lambda2) == want
        _, fit, _ = fit_fused_lasso(track, lam1, lam2, **FL_PARAMS)
        _, ref, _ = fit_fused_lasso(track, *want, **FL_PARAMS)
        assert fit.beta.tobytes() == ref.beta.tobytes()


@pytest.mark.parametrize(
    "logr, baf, unfit",
    [
        ([0.0] * 100, [0.5] * 100, DegenerateSignal),
        ([-0.6], [0.02], TooFewSnps),
        ([0.01, -0.7], [0.5, 0.98], TooFewSnps),
    ],
)
def test_fit_dpi_with_both_lambdas_needs_no_sigma(logr, baf, unfit):
    track = SnpTrack.from_values(logr=logr, baf=baf)
    with pytest.raises(unfit):
        estimate_sigma(track)
    fit = fit_dpi(track, 0.2, 0.8, **DPI_PARAMS)
    model = dpi_mod.DpiModel(DPI_PARAMS["mu_init"], 0.2, 0.8, alpha=DPI_PARAMS["alpha"])
    ref = dpi_mod.dpi_fit(track, model, max_rounds=DPI_PARAMS["max_rounds"])
    assert fit.path.states == ref.path.states
    assert fit.path.objective == ref.path.objective
    # an unset lambda still needs sigma
    with pytest.raises(unfit):
        fit_dpi(track, 0.2, None, **DPI_PARAMS)


def _track_file(tmp_path, chroms=("1", "2")):
    """A track file with one simulated 500-SNP sequence per chromosome,
    each holding a CNV."""
    lines = ["\t".join(cli.TRACK_COLUMNS)]
    for k, chrom in enumerate(chroms):
        cnv_type = (CnvType.DELETION1, CnvType.DUPLICATION)[k % 2]
        track = generate(SimSpec(n=500, cnv_length=40, cnv_type=cnv_type, seed=31 + k)).track
        rows = zip(track.positions.tolist(), track.logr.tolist(), track.baf.tolist())
        lines += [f"{chrom}_{i}\t{chrom}\t{p}\t{y!r}\t{x!r}" for i, (p, y, x) in enumerate(rows)]
    path = tmp_path / f"track_{len(chroms)}.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("route", ["segment-fl", "segment-dpi"])
def test_cli_unset_lambda2_is_the_default(tmp_path, route):
    path = _track_file(tmp_path, chroms=("1",))
    _, track = cli.read_track_file(path)[0]
    lam2 = default_lambdas(estimate_sigma(track), track.n)[1]
    implicit, explicit = tmp_path / "implicit.tsv", tmp_path / "explicit.tsv"
    assert cli.main([route, str(path), "--lambda1", "0.1", "--output", str(implicit)]) == 0
    assert cli.main(
        [route, str(path), "--lambda1", "0.1", "--lambda2", repr(lam2), "--output", str(explicit)]
    ) == 0
    assert implicit.read_bytes() == explicit.read_bytes()


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_routes(tmp_path, path, tag):
    """Outputs of segment-fl and of segment-dpi with --segments-out."""
    fl, dpi, seg = (tmp_path / f"{tag}_{name}.tsv" for name in ("fl", "dpi", "seg"))
    assert cli.main(["segment-fl", str(path), "--output", str(fl)]) == 0
    assert cli.main(["segment-dpi", str(path), "--output", str(dpi), "--segments-out", str(seg)]) == 0
    return [out.read_bytes() for out in (fl, dpi, seg)]


def test_tracer_sees_every_layer(tmp_path):
    tracing = _load_tracing()
    path = _track_file(tmp_path)
    plain = _run_routes(tmp_path, path, "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run_routes(tmp_path, path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["signal_model.sequences"] == 4  # two chromosomes, two routes
    for name in ("fused_lasso.mm_iterations", "segment_caller.segments", "dpi.dp_impute_calls"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("preset, want", [(None, "1"), ("4", "4")])
def test_import_limits_openblas_threads_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(cnvfuse.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import os, cnvfuse; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == want


def test_pool_modules_are_imported_only_for_a_pool(tmp_path):
    # importing multiprocessing and concurrent.futures costs ~20 ms
    code = (
        "import sys\n"
        "from cnvfuse import cli\n"
        "pool = ('multiprocessing', 'concurrent.futures')\n"
        "print([m for m in pool if m in sys.modules])\n"
        "assert cli.main(['segment-dpi', sys.argv[1], '--output', sys.argv[2]]) == 0\n"
        "assert cli.main(['segment-fl', sys.argv[1], '--output', sys.argv[2]]) == 0\n"
        "print([m for m in pool if m in sys.modules])\n"
    )
    argv = [sys.executable, "-c", code, str(_track_file(tmp_path)), str(tmp_path / "out.tsv")]
    env = dict(os.environ, PYTHONPATH=str(Path(cnvfuse.__file__).resolve().parents[1]))
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_import_builds_and_loads_no_kernels(tmp_path):
    # the kernels are compiled and loaded on their first call only. numpy
    # imports ctypes itself, so the guard is the loader's cache and the
    # modules only a build imports; a fresh copy of the package has no
    # library that would hide a build
    package = Path(cnvfuse.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "cnvfuse", ignore=shutil.ignore_patterns("__pycache__"))
    code = (
        "import sys\n"
        "import cnvfuse.cli\n"
        "from cnvfuse import _kernels\n"
        "print(_kernels.library.cache_info().currsize, [m for m in ('subprocess', 'sysconfig') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
    assert not list((tmp_path / "cnvfuse").glob("__pycache__/_kernels-*"))


def test_cli_runs_do_not_import_numpy_ma(tmp_path):
    # np.percentile and np.median import numpy.ma (10-20 ms) on first use
    code = (
        "import sys\n"
        "from cnvfuse import cli\n"
        "for route in ('segment-fl', 'segment-dpi'):\n"
        "    assert cli.main([route, sys.argv[1], '--output', sys.argv[2]]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    argv = [sys.executable, "-c", code, str(_track_file(tmp_path)), str(tmp_path / "out.tsv")]
    env = dict(os.environ, PYTHONPATH=str(Path(cnvfuse.__file__).resolve().parents[1]))
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
