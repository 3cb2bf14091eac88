"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from cnvfuse.cli import main, read_track_file
from cnvfuse.errors import TrackFormatError


def run_cli(args):
    return main([str(a) for a in args])


def simulate_track(tmp_path, name="trk.tsv", **flags):
    path = tmp_path / name
    argv = ["simulate", "--output", path]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert run_cli(argv) == 0
    return path


class TestTrackParsing:
    def test_round_trip_simulated_output(self, tmp_path):
        path = simulate_track(tmp_path, n=300, cnv_length=20, seed=3)
        tracks = read_track_file(path)
        assert len(tracks) == 1
        chrom, track = tracks[0]
        assert chrom == "1"
        assert track.n == 300
        # values survive the 6-significant-digit round trip
        assert np.all(np.abs(track.logr) < 10)
        assert np.all((track.baf >= 0) & (track.baf <= 1))

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("snp_id\tchrom\tpos\tlogr\nr1\t1\t100\t0.5\n")
        with pytest.raises(TrackFormatError, match="baf"):
            read_track_file(path)
        assert run_cli(["segment-fl", path]) == 1

    def test_unsorted_positions_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "snp_id\tchrom\tpos\tlogr\tbaf\n"
            "r1\t1\t200\t0.0\t0.5\n"
            "r2\t1\t100\t0.0\t0.5\n"
        )
        with pytest.raises(TrackFormatError, match="increasing"):
            read_track_file(path)

    def test_duplicate_position_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "snp_id\tchrom\tpos\tlogr\tbaf\n"
            "r1\t1\t100\t0.0\t0.5\n"
            "r2\t1\t100\t0.0\t0.5\n"
        )
        with pytest.raises(TrackFormatError):
            read_track_file(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "snp_id\tchrom\tpos\tlogr\tbaf\nr1\t1\t100\tnan\t0.5\n"
        )
        with pytest.raises(TrackFormatError, match="non-finite"):
            read_track_file(path)

    def test_interleaved_chroms_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "snp_id\tchrom\tpos\tlogr\tbaf\n"
            "r1\t1\t100\t0.0\t0.5\n"
            "r2\t2\t100\t0.0\t0.5\n"
            "r3\t1\t200\t0.0\t0.5\n"
        )
        with pytest.raises(TrackFormatError, match="contiguous"):
            read_track_file(path)

    def test_baf_clamped_on_ingest(self, tmp_path):
        path = tmp_path / "clamp.tsv"
        path.write_text(
            "snp_id\tchrom\tpos\tlogr\tbaf\n"
            "r1\t1\t100\t0.0\t1.02\n"
            "r2\t1\t200\t0.0\t-0.02\n"
        )
        (_, track), = read_track_file(path)
        assert track.baf.tolist() == [1.0, 0.0]


class TestSimulateCommand:
    def test_deterministic_replay(self, tmp_path):
        p1 = simulate_track(tmp_path, "a.tsv", n=400, cnv_length=30, seed=9)
        p2 = simulate_track(tmp_path, "b.tsv", n=400, cnv_length=30, seed=9)
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_cnv_length_fails(self, tmp_path, capsys):
        assert run_cli(["simulate", "--n", "50", "--cnv-length", "60"]) == 1
        assert "error" in capsys.readouterr().err

    def test_truth_output_alignment(self, tmp_path):
        track_path = tmp_path / "t.tsv"
        truth_path = tmp_path / "truth.tsv"
        assert run_cli([
            "simulate", "--n", "200", "--cnv-length", "20", "--cnv-type", "dup",
            "--seed", "4", "--output", track_path, "--truth-output", truth_path,
        ]) == 0
        lines = truth_path.read_text().splitlines()
        assert lines[0] == "snp_id\tchrom\tpos\ttrue_copy\ttrue_genotype"
        copies = [int(row.split("\t")[3]) for row in lines[1:]]
        assert copies.count(3) == 20
        genos = {row.split("\t")[4] for row in lines[1:] if int(row.split("\t")[3]) == 3}
        assert genos <= {"AAA", "AAB", "ABB", "BBB"}


class TestSegmentFl:
    def test_flat_track_no_calls(self, tmp_path, capsys):
        path = simulate_track(tmp_path, n=500, cnv_length=0, seed=10)
        assert run_cli(["segment-fl", path]) == 0
        out = capsys.readouterr().out
        assert "deletion" not in out and "duplication" not in out

    def test_single_deletion_round_trip(self, tmp_path, capsys):
        path = simulate_track(tmp_path, n=2000, cnv_length=50, cnv_type="del1", seed=11)
        assert run_cli(["segment-fl", path]) == 0
        rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()[1:]]
        dels = [r for r in rows if r[7] == "deletion"]
        assert len(dels) == 1
        # truth window: SNPs 975..1024 at 5kb spacing, 1-based positions
        start, end = int(dels[0][1]), int(dels[0][2])
        assert start >= 4_850_000 and end <= 5_150_000
        assert end - start >= 40 * 5000

    def test_deterministic_output(self, tmp_path):
        track = simulate_track(tmp_path, n=800, cnv_length=30, seed=12)
        out1, out2 = tmp_path / "o1.tsv", tmp_path / "o2.tsv"
        assert run_cli(["segment-fl", track, "--output", out1]) == 0
        assert run_cli(["segment-fl", track, "--output", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_per_chrom_independence(self, tmp_path):
        a = simulate_track(tmp_path, "a.tsv", n=600, cnv_length=40, seed=13)
        b = simulate_track(tmp_path, "b.tsv", n=600, cnv_length=0, seed=14, chrom=2)
        merged = tmp_path / "merged.tsv"
        a_lines = a.read_text().splitlines()
        b_lines = b.read_text().splitlines()
        merged.write_text("\n".join(a_lines + b_lines[1:]) + "\n")
        outs = {}
        for name, path in (("a", a), ("b", b), ("m", merged)):
            out = tmp_path / f"seg_{name}.tsv"
            assert run_cli(["segment-fl", path, "--output", out]) == 0
            outs[name] = out.read_text().splitlines()
        assert outs["m"][1:] == outs["a"][1:] + outs["b"][1:]

    def test_split_at_isolates_arms(self, tmp_path):
        track = simulate_track(tmp_path, n=1000, cnv_length=40, seed=15)
        out = tmp_path / "seg.tsv"
        # split in the middle of the track (positions are 5000*(i+1))
        assert run_cli([
            "segment-fl", track, "--split-at", "1:2500000", "--output", out,
        ]) == 0
        rows = [r.split("\t") for r in out.read_text().splitlines()[1:]]
        # no row crosses the split point
        for r in rows:
            assert not (int(r[1]) < 2_500_000 <= int(r[2]))


@pytest.mark.parametrize("route", ["segment-fl", "segment-dpi"])
def test_split_at_unknown_chromosomes_warned(tmp_path, caplog, route):
    track = simulate_track(tmp_path, n=600, cnv_length=30, seed=16)
    plain, split = tmp_path / "plain.tsv", tmp_path / "split.tsv"
    assert run_cli([route, track, "--output", plain]) == 0
    caplog.clear()
    with caplog.at_level("WARNING", logger="cnvfuse.cli"):
        code = run_cli([route, track, "--split-at", "X:5000,1:9000000,7:1,X:9", "--output", split])
    assert code == 0
    assert split.read_bytes() == plain.read_bytes()
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert warnings[0].endswith("absent from the input: X, 7")


class TestSegmentDpi:
    def test_noiseless_duplication_states(self, tmp_path, capsys):
        path = simulate_track(
            tmp_path, n=300, cnv_length=20, cnv_type="dup",
            sigma_logr=0.0, sigma_baf=0.0, seed=16,
        )
        assert run_cli(["segment-dpi", path]) == 0
        rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()[1:]]
        dup = [r for r in rows if r[4] == "3"]
        assert len(dup) == 20
        assert {r[3] for r in dup} <= {"AAA", "AAB", "ABB", "BBB"}

    def test_state_space_4_same_copy_numbers(self, tmp_path):
        path = simulate_track(tmp_path, n=400, cnv_length=30, cnv_type="dup", seed=17)
        o10, o4 = tmp_path / "s10.tsv", tmp_path / "s4.tsv"
        assert run_cli(["segment-dpi", path, "--state-space", "10", "--output", o10]) == 0
        assert run_cli(["segment-dpi", path, "--state-space", "4", "--output", o4]) == 0
        copies10 = [r.split("\t")[4] for r in o10.read_text().splitlines()[1:]]
        copies4 = [r.split("\t")[4] for r in o4.read_text().splitlines()[1:]]
        assert copies10 == copies4

    def test_segments_output(self, tmp_path):
        path = simulate_track(tmp_path, n=500, cnv_length=40, cnv_type="del1", seed=18)
        snp_out, seg_out = tmp_path / "snp.tsv", tmp_path / "seg.tsv"
        assert run_cli([
            "segment-dpi", path, "--output", snp_out, "--segments-out", seg_out,
        ]) == 0
        seg_rows = [r.split("\t") for r in seg_out.read_text().splitlines()[1:]]
        assert sum(int(r[3]) for r in seg_rows) == 500
        assert any(r[4] == "1" for r in seg_rows)

    def test_alpha_helps_duplications(self, tmp_path):
        # alpha=12 detects at least as many true CNV SNPs as alpha=0
        hits = {}
        for alpha in ("0", "12"):
            detected = 0
            for seed in (19, 20, 21):
                path = simulate_track(
                    tmp_path, f"t{alpha}_{seed}.tsv", n=900, cnv_length=10,
                    cnv_type="dup", seed=seed,
                )
                out = tmp_path / f"o{alpha}_{seed}.tsv"
                assert run_cli(["segment-dpi", path, "--alpha", alpha, "--output", out]) == 0
                rows = [r.split("\t") for r in out.read_text().splitlines()[1:]]
                detected += sum(r[4] != "2" for r in rows[445:455])
            hits[alpha] = detected
        assert hits["12"] >= hits["0"]


class TestBench:
    def test_bench_report(self, tmp_path):
        out = tmp_path / "report.tsv"
        assert run_cli([
            "bench", "--lengths", "500", "--cnv-sizes", "20,40", "--per-cell", "4",
            "--methods", "dpi", "--seed", "2", "--output", out,
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method\tn\tcnv_size")
        assert len(lines) == 1 + 4  # 2 sizes x 2 types
        assert all(line.split("\t")[0] == "dpi" for line in lines[1:])

    def test_bench_empty(self, tmp_path):
        out = tmp_path / "report.tsv"
        assert run_cli([
            "bench", "--lengths", "500", "--per-cell", "0", "--output", out,
        ]) == 0
        assert out.read_text().splitlines() == [
            "method\tn\tcnv_size\tcnv_type\ttpr\tfpr\tfdr\titers_mean\ttime_ms_mean"
        ]

    def test_bench_include_mmb(self, tmp_path):
        out = tmp_path / "report.tsv"
        assert run_cli([
            "bench", "--lengths", "400", "--cnv-sizes", "30", "--per-cell", "2",
            "--methods", "dpi", "--include-mmb", "--max-iter", "50",
            "--seed", "6", "--output", out,
        ]) == 0
        methods = {line.split("\t")[0] for line in out.read_text().splitlines()[1:]}
        assert methods == {"dpi", "mmb"}
