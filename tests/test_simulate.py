"""Tests for the synthetic track generator, scorer, and benchmark harness."""

import hashlib
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cnvfuse.simulate import (
    BenchRow,
    CnvType,
    SimSpec,
    TruthTrack,
    dataset1_specs,
    dataset2_specs,
    format_report,
    generate,
    run_benchmark,
    score,
)
from cnvfuse.signal_model import STATES_BY_COPY


class TestGenerate:
    @pytest.mark.parametrize(
        "spec,digest",
        [
            (
                SimSpec(n=2000, cnv_length=60, cnv_type=CnvType.DELETION0, sigma_baf=0.4, seed=5),
                "d330399841a62000e1c21d03ffa886a9e18f7b81ffa00bceca858fb745fe06e1",
            ),
            (
                SimSpec(n=2000, cnv_length=60, cnv_type=CnvType.DUPLICATION, seed=6),
                "9221aa9fe96313f1b12f66373cf3f2f79cd5712cfc57d5ad2d93fb9663ea9f1b",
            ),
        ],
    )
    def test_clipped_baf_is_not_clamped_again(self, caplog, spec, digest):
        # generate clips BAF itself, so the track's ingest clamp finds
        # nothing to clamp or log; the digests pin the BAF bytes
        with caplog.at_level(logging.WARNING, logger="cnvfuse"):
            baf = generate(spec).track.baf
        assert caplog.records == []
        assert np.count_nonzero(baf == 0.0) and np.count_nonzero(baf == 1.0)
        assert hashlib.sha256(baf.tobytes()).hexdigest() == digest

    def test_noiseless_duplication_hits_table_values(self):
        spec = SimSpec(
            n=200, cnv_length=10, cnv_type=CnvType.DUPLICATION,
            sigma_logr=0.0, sigma_baf=0.0, seed=5,
        )
        truth = generate(spec)
        mu = np.asarray(spec.mu_truth)
        start = spec.start_index
        window = slice(start, start + 10)
        assert np.all(truth.true_copy[window] == 3)
        np.testing.assert_array_equal(truth.track.logr[window], mu[3])
        outside = np.ones(200, bool)
        outside[window] = False
        np.testing.assert_array_equal(truth.track.logr[outside], mu[2])
        allowed = {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}
        assert set(np.round(truth.track.baf[window], 12)) <= set(np.round(sorted(allowed), 12))
        # baf center equals the genotype's center exactly
        for i in range(start, start + 10):
            assert truth.track.baf[i] == pytest.approx(
                truth.true_genotype[i].baf_center, abs=0
            )

    def test_noiseless_homozygous_deletion_is_uniform(self):
        spec = SimSpec(
            n=120, cnv_length=40, cnv_type=CnvType.DELETION0,
            sigma_logr=0.0, sigma_baf=0.0, seed=6,
        )
        truth = generate(spec)
        start = spec.start_index
        window = slice(start, start + 40)
        assert np.all(truth.true_copy[window] == 0)
        assert all(s.genotype == "phi" for s in truth.true_genotype[window])
        baf = truth.track.baf[window]
        assert np.all((baf >= 0) & (baf <= 1))
        assert baf.std() > 0.1  # uniform draws, not a point mass

    def test_deterministic_given_seed(self):
        spec = SimSpec(n=500, cnv_length=25, seed=77)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.track.logr, b.track.logr)
        np.testing.assert_array_equal(a.track.baf, b.track.baf)
        np.testing.assert_array_equal(a.true_copy, b.true_copy)
        c = generate(SimSpec(n=500, cnv_length=25, seed=78))
        assert not np.array_equal(a.track.logr, c.track.logr)

    def test_truth_tracks_compare_by_value(self):
        spec = SimSpec(n=500, cnv_length=25, seed=77)
        a, b = generate(spec), generate(spec)
        assert a.true_copy is not b.true_copy and a.track.logr is not b.track.logr
        assert a == b and not a != b
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        for other in (
            generate(replace(spec, seed=78)),  # the same truth, another track
            replace(a, true_copy=np.where(a.true_copy == 1, 2, a.true_copy)),
            replace(a, true_genotype=a.true_genotype[::-1]),
        ):
            assert a != other and not a == other

    def test_callers_truth_stays_writeable(self):
        truth = generate(SimSpec(n=50, cnv_length=5, seed=2))
        copies = truth.true_copy.copy()
        got = TruthTrack(truth.track, copies, truth.true_genotype)
        assert copies.flags.writeable and not got.true_copy.flags.writeable
        copies[0] = 3
        assert got.true_copy[0] == 2 and got == truth

    def test_genotypes_follow_copy_number(self):
        spec = SimSpec(n=1000, cnv_length=100, cnv_type=CnvType.DUPLICATION, seed=8)
        truth = generate(spec)
        for c, s in zip(truth.true_copy, truth.true_genotype):
            assert s.copy_number == c

    @pytest.mark.parametrize(
        "spec",
        [
            SimSpec(n=3000, cnv_length=400, cnv_type=CnvType.DELETION0, seed=11),
            SimSpec(n=3000, cnv_length=400, cnv_type=CnvType.DELETION1, maf=0.5, seed=12),
            SimSpec(n=3000, cnv_length=900, cnv_type=CnvType.DUPLICATION, cnv_start=5, seed=13),
            SimSpec(n=800, cnv_length=0, sigma_baf=0.0, seed=14),
        ],
    )
    def test_genotypes_and_baf_match_reference_draws(self, spec):
        # generate's draws replayed, with each genotype picked from
        # STATES_BY_COPY and each BAF center computed as n_b / copy
        rng = np.random.default_rng(spec.seed)
        copy = np.full(spec.n, 2, dtype=np.int64)
        copy[spec.start_index : spec.start_index + spec.cnv_length] = spec.cnv_type.copy_number
        n_b = rng.binomial(copy, spec.maf)
        rng.normal(np.asarray(spec.mu_truth)[copy], spec.sigma_logr)
        baf = rng.normal(np.where(copy > 0, n_b / np.maximum(copy, 1), 0.0), spec.sigma_baf)
        baf = np.clip(np.where(copy == 0, rng.uniform(0.0, 1.0, size=spec.n), baf), 0.0, 1.0)
        truth = generate(spec)
        assert truth.track.baf.tobytes() == baf.tobytes()
        assert truth.true_genotype == tuple(
            STATES_BY_COPY[c][k] for c, k in zip(copy.tolist(), n_b.tolist())
        )

    def test_copy0_baf_is_uniform_ks(self):
        spec = SimSpec(
            n=20000, cnv_length=15000, cnv_type=CnvType.DELETION0, seed=9
        )
        truth = generate(spec)
        baf = truth.track.baf[truth.true_copy == 0]
        assert baf.size >= 10000
        stat = stats.kstest(baf, "uniform")
        assert stat.pvalue > 0.01

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            SimSpec(n=100, cnv_length=101)
        with pytest.raises(ValueError):
            SimSpec(n=100, cnv_length=10, cnv_start=95)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sigma_logr", math.nan, "sigma_logr must be finite"),
            ("sigma_logr", -math.inf, "sigma_logr must be finite"),
            ("sigma_baf", math.inf, "sigma_baf must be finite"),
            ("maf", math.nan, r"maf must lie in \(0, 0\.5\]"),
            ("maf", math.inf, r"maf must lie in \(0, 0\.5\]"),
            ("mu_truth", (-math.inf, -0.6313, -0.0045, 0.3252), "mu_truth must be finite"),
            ("mu_truth", (-5.5923, -0.6313, math.nan, 0.3252), "mu_truth must be finite"),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimSpec(n=100, **{field: value})

    def test_dataset_shapes(self):
        specs = dataset1_specs(count=36, seed=3)
        assert len(specs) == 36
        assert {s.n for s in specs} == {13000}
        sizes = [s.cnv_length for s in specs]
        assert sorted(set(sizes)) == [5, 10, 20, 30, 40, 50]
        types = [s.cnv_type for s in specs]
        assert types.count(CnvType.DELETION1) == types.count(CnvType.DUPLICATION) == 18
        assert len({s.seed for s in specs}) == 36
        specs2 = dataset2_specs(count=30, seed=4)
        assert sorted({s.n for s in specs2}) == [4000, 8000, 12000, 16000, 20000]


class TestScore:
    def test_perfect_reconstruction(self):
        true = np.array([2, 2, 1, 1, 3, 2])
        assert score(true, true) == (1.0, 0.0, 0.0)

    def test_all_neutral_called(self):
        true = np.array([2, 2, 1, 1])
        called = np.full(4, 2)
        tpr, fpr, fdr = score(true, called)
        assert tpr == 0.0 and fpr == 0.0
        assert math.isnan(fdr)

    def test_counting_example(self):
        tpr, fpr, fdr = score([2, 2, 1, 1], [2, 1, 1, 2])
        assert (tpr, fpr, fdr) == (0.5, 0.5, 0.5)

    def test_class_agnostic_positive(self):
        # deletion called as duplication still counts as detected
        tpr, _, _ = score([1, 1], [3, 3])
        assert tpr == 1.0

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(10)
        true = rng.integers(0, 4, 200)
        called = rng.integers(0, 4, 200)
        perm = rng.permutation(200)
        assert score(true, called) == score(true[perm], called[perm])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score([2, 2], [2])


class TestRunBenchmark:
    def test_empty_methods_empty_report(self):
        specs = dataset1_specs(count=2, n=300, seed=11)
        rows = run_benchmark(specs, methods=[])
        assert rows == []
        assert format_report(rows).count("\n") == 1  # header only

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([], methods=["hmm"])

    def test_report_shape_and_cells(self):
        specs = dataset1_specs(count=4, n=600, cnv_sizes=(10, 20), seed=12)
        rows = run_benchmark(specs, methods=["dpi"])
        keys = {(r.method, r.n, r.cnv_size, r.cnv_type) for r in rows}
        assert all(r.method == "dpi" for r in rows)
        assert all(r.n == 600 for r in rows)
        assert len(keys) == len(rows)  # one row per cell
        report = format_report(rows)
        header = report.splitlines()[0].split("\t")
        assert header == [
            "method", "n", "cnv_size", "cnv_type",
            "tpr", "fpr", "fdr", "iters_mean", "time_ms_mean",
        ]
        assert report.count("\n") == len(rows) + 1

    def test_report_renders_rows_exactly(self):
        rows = [
            BenchRow("dpi", 600, 10, "del1", 1.0, 0.0, math.nan, 1.0, 12.3456789),
            BenchRow("fused_lasso", 1234567, 5, "dup", 0.123456789, 1e-7, 0.25, 31.5, 1234567.0),
            BenchRow("mmb", 40, 50, "del1", 0.5, np.float64(2 / 3), np.float64("nan"), 9999999.0, 0.0),
        ]
        assert format_report(rows) == (
            "method\tn\tcnv_size\tcnv_type\ttpr\tfpr\tfdr\titers_mean\ttime_ms_mean\n"
            "dpi\t600\t10\tdel1\t1\t0\tnan\t1\t12.3457\n"
            "fused_lasso\t1234567\t5\tdup\t0.123457\t1e-07\t0.25\t31.5\t1.23457e+06\n"
            "mmb\t40\t50\tdel1\t0.5\t0.666667\tnan\t1e+07\t0\n"
        )

    def test_dpi_detects_planted_cnvs_in_mini_corpus(self):
        specs = dataset1_specs(count=6, n=2000, cnv_sizes=(30, 50), seed=13)
        rows = run_benchmark(specs, methods=["dpi"])
        pooled_tpr = np.mean([r.tpr for r in rows])
        assert pooled_tpr > 0.8
