"""End-to-end tests for the command-line interface."""

import argparse
import logging
import math
import multiprocessing
import time

import numpy as np
import pytest

from cnvfuse import cli
from cnvfuse import simulate as sim
from cnvfuse.cli import TRACK_COLUMNS, main, read_track_file
from cnvfuse.errors import TrackFormatError
from cnvfuse.signal_model import SnpTrack


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


def reference_read_track_file(path):
    """Line-by-line parser: the tracks, warnings and error messages that
    ``read_track_file`` must reproduce exactly."""
    groups = {}
    order = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise TrackFormatError(f"{path}: empty file")
        names = header.rstrip("\n").split("\t")
        col = {}
        for want in TRACK_COLUMNS:
            if want not in names:
                raise TrackFormatError(f"{path}: missing column '{want}'")
            col[want] = names.index(want)
        n_cols = len(names)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != n_cols:
                raise TrackFormatError(f"{path}:{lineno}: expected {n_cols} fields")
            chrom = parts[col["chrom"]]
            try:
                pos = int(parts[col["pos"]])
                logr = float(parts[col["logr"]])
                baf = float(parts[col["baf"]])
            except ValueError as exc:
                raise TrackFormatError(f"{path}:{lineno}: {exc}") from exc
            if pos < 0:
                raise TrackFormatError(f"{path}:{lineno}: negative position")
            if pos > 2**63 - 1:
                raise TrackFormatError(f"{path}:{lineno}: position above 2**63 - 1")
            if not (math.isfinite(logr) and math.isfinite(baf)):
                raise TrackFormatError(f"{path}:{lineno}: non-finite logr/baf")
            if chrom not in groups:
                groups[chrom] = []
                order.append(chrom)
            elif order[-1] != chrom:
                raise TrackFormatError(
                    f"{path}:{lineno}: chrom '{chrom}' rows are not contiguous"
                )
            rows = groups[chrom]
            if rows and pos <= rows[-1][1]:
                raise TrackFormatError(
                    f"{path}:{lineno}: positions not strictly increasing in chrom '{chrom}'"
                )
            rows.append((parts[col["snp_id"]], pos, logr, baf))
    tracks = []
    for chrom in order:
        rows = groups[chrom]
        track = SnpTrack.from_values(
            snp_ids=tuple(r[0] for r in rows),
            positions=np.array([r[1] for r in rows], dtype=np.int64),
            logr=np.array([r[2] for r in rows]),
            baf=np.array([r[3] for r in rows]),
        )
        tracks.append((chrom, track))
    return tracks


HEADER = "snp_id\tchrom\tpos\tlogr\tbaf\n"


def rows(chrom, start, count, step=100):
    """``count`` well-formed lines of one chromosome."""
    return "".join(
        f"{chrom}_{i}\t{chrom}\t{start + i * step}\t{(i % 7 - 3) * 0.0137:.6g}\t{(i % 5) * 0.2:.6g}\n"
        for i in range(count)
    )


# Each body follows HEADER and a prefix of good chromosome-0 lines (see
# parse_both), so a case can sit in the first block, span a block
# boundary or sit in a later block.
ACCEPTED = {
    "plain": rows("1", 100, 6),
    "crlf": rows("1", 100, 4).replace("\n", "\r\n"),
    "lone_cr": rows("1", 100, 4).replace("\n", "\r"),
    "blank_lines": "\n\n" + rows("1", 100, 3) + "\n\n" + rows("1", 900, 3) + "\n\n\n",
    "no_final_newline": rows("1", 100, 4).rstrip("\n"),
    "several_chroms": rows("1", 100, 4) + rows("2", 50, 5) + rows("X", 7, 1) + rows("10", 1, 3),
    "whitespace_and_underscores": "a\t1\t 1_000 \t 0.5\t+1e-1\nb\t1\t2_000\t-0\t.5\n",
    "clamped_baf": "a\t1\t5\t0.0\t1.02\nb\t1\t6\t0.0\t-0.02\nc\t2\t1\t0\t1.5\n",
    "empty_fields_in_ids": "\t1\t5\t0.0\t0.5\n\t1\t6\t0.0\t0.5\n",
    "largest_pos": rows("1", 100, 3) + f"r\t1\t{2**63 - 1}\t0.1\t0.5\n",
    # int() and float() take these; the C reader must leave them to the
    # line-by-line reader or read them the same way
    "nonascii_digits": "a\t1\t\u0661\u0662\t0.1\t0.5\nb\t1\t13\t0.2\t0.5\n",
    "vt_ff_spaces": "a\t1\t\x0b5\x0c\t0.1\t0.5\nb\t1\t6\t\x0b0.2\x0c\t\x0c0.5\n",
    "nbsp": "a\t1\t\xa05\t0.1\t0.5\nb\t1\t6\t0.2\xa0\t0.5\n",
    "nul_hash_quote_ids": 'a\x00#"\t1\t5\t0.1\t0.5\n#b\t1\t6\t0.1\t0.5\n"q"\t"2#\t7\t0.1\t0.5\n',
}

MALFORMED = {
    "too_few_fields": rows("1", 100, 3) + "r\t1\t900\t0.1\n" + rows("1", 1000, 2),
    "too_many_fields": rows("1", 100, 3) + "r\t1\t900\t0.1\t0.5\t7\n",
    "whitespace_only_line": rows("1", 100, 3) + "   \n" + rows("1", 1000, 2),
    "tab_only_line": rows("1", 100, 2) + "\t\n",
    "empty_fields": rows("1", 100, 2) + "\t\t\t\t\n",
    "bad_pos": rows("1", 100, 3) + "r\t1\t9x\t0.1\t0.5\n",
    "float_pos": rows("1", 100, 3) + "r\t1\t900.0\t0.1\t0.5\n",
    "bad_logr": rows("1", 100, 3) + "r\t1\t900\tabc\t0.5\n",
    "bad_baf": rows("1", 100, 3) + "r\t1\t900\t0.1\t\n",
    "negative_pos": rows("1", 100, 3) + "r\t1\t-5\t0.1\t0.5\n",
    "negative_first_pos_of_chrom": rows("1", 100, 3) + "r\t2\t-5\t0.1\t0.5\n" + rows("2", 100, 2),
    "huge_pos": rows("1", 100, 3) + f"r\t1\t{2**63}\t0.1\t0.5\n" + rows("1", 1000, 2),
    "huge_pos_new_chrom": rows("1", 100, 3) + "r\t2\t99999999999999999999999\t0.1\t0.5\n",
    "huge_pos_last_line_no_newline": rows("1", 100, 3) + f"r\t1\t{2**64}\t0.1\t0.5",
    "nan_logr": rows("1", 100, 3) + "r\t1\t900\tnan\t0.5\n",
    "inf_baf": rows("1", 100, 3) + "r\t1\t900\t0.1\t-inf\n",
    "interleaved": rows("1", 100, 3) + rows("2", 100, 2) + rows("1", 900, 2),
    "interleaved_late": rows("1", 100, 2) + rows("2", 100, 6) + rows("3", 100, 6) + rows("2", 9000, 1),
    "duplicate_pos": rows("1", 100, 3) + rows("1", 300, 2),
    "decreasing_pos": rows("1", 100, 3) + rows("1", 50, 2),
    "decreasing_after_blank": rows("1", 100, 3) + "\n\n" + rows("1", 50, 2),
    "two_errors_count_first": rows("1", 100, 2) + "r\t1\n" + "s\t1\t-1\t0\t0\n",
    "two_errors_order_first": rows("1", 100, 2) + rows("1", 100, 1) + "s\t1\tx\t0\t0\n",
    "two_errors_same_line": rows("1", 100, 2) + "r\t1\t-1\tnan\t0\n",
    "bad_last_line_no_newline": rows("1", 100, 3) + "r\t1\t900\t0.1\tz",
    "crlf_error": (rows("1", 100, 3) + "r\t1\t5\t0\t0\n").replace("\n", "\r\n"),
    # numpy's readers take these (\x1c-\x1f as spaces, "5\u2213" as 8725);
    # int() and float() reject them
    "file_separator_in_pos": rows("1", 100, 3) + "r\t1\t\x1c900\t0.1\t0.5\n",
    "unit_separator_in_logr": rows("1", 100, 3) + "r\t1\t900\t0.1\x1f\t0.5\n",
    "symbol_after_pos": rows("1", 100, 3) + "r\t1\t5\u2213\t0.1\t0.5\n",
    # a non-ASCII id sends the block to the line-by-line reader, whose
    # fields go through the same rule check as the C reader's
    "nonascii_then_decreasing": rows("1", 100, 3) + "\u00e9\t1\t900\t0.1\t0.5\n" + "s\t1\t800\t0.1\t0.5\n",
    "nonascii_rule_before_parse_error": rows("1", 100, 3) + "r\t1\t900\tnan\t0.5\n" + "\u00e9\t1\t1000\tx\t0.5\n",
    "nonascii_interleaved": rows("1", 100, 3) + "\u00e9\t2\t100\t0.1\t0.5\n" + rows("1", 900, 2),
    "nonascii_nonfinite_before_count": rows("1", 100, 3) + "\u00e9\t1\t900\tinf\t0.5\n" + "s\t1\n",
    # below -2**63: a negative position, not an int64 overflow
    "huge_negative_pos": rows("1", 100, 3) + "r\t1\t-99999999999999999999999\t0.1\t0.5\n",
    "huge_negative_pos_nonascii": rows("1", 100, 3) + "\u00e9\t1\t-99999999999999999999999\t0.1\t0.5\n",
}

BLOCK_SIZES = (1, 70, 1 << 20)
PREFIXES = (0, 1, 4)


def outcome(parse, path, caplog):
    """Tracks as plain values plus the warnings logged, or the error."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        try:
            tracks = parse(path)
        except Exception as exc:  # compared between the parsers
            return ("error", type(exc).__name__, str(exc))
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    values = [
        (
            chrom,
            t.snp_ids,
            t.positions.dtype.str,
            t.positions.tobytes(),
            t.logr.tobytes(),
            t.baf.tobytes(),
        )
        for chrom, t in tracks
    ]
    return ("ok", values, warnings)


def parse_both(tmp_path, monkeypatch, caplog, text):
    """Outcomes of the reference and of read_track_file on ``text`` under
    every block size; asserts that they agree and returns the reference's."""
    path = tmp_path / "track.tsv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    expected = outcome(reference_read_track_file, path, caplog)
    for size in BLOCK_SIZES:
        monkeypatch.setattr(cli, "_BLOCK_SIZE", size)
        assert outcome(read_track_file, path, caplog) == expected, size
    return expected


class TestParserEquivalence:
    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    def test_accepted(self, tmp_path, monkeypatch, caplog, case, prefix):
        text = HEADER + rows("0", 10, prefix) + ACCEPTED[case]
        result = parse_both(tmp_path, monkeypatch, caplog, text)
        assert result[0] == "ok"
        if case == "clamped_baf":
            assert result[2] == ["clamped 2 BAF values outside [0, 1]", "clamped 1 BAF values outside [0, 1]"]

    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed(self, tmp_path, monkeypatch, caplog, case, prefix):
        text = HEADER + rows("0", 10, prefix) + MALFORMED[case]
        result = parse_both(tmp_path, monkeypatch, caplog, text)
        assert result[:2] == ("error", "TrackFormatError")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "snp_id\tchrom\tpos\tlogr\n" + "a\t1\t1\t0\n",
            HEADER,
            HEADER.rstrip("\n"),
            HEADER.replace("\n", "\r\n") + "\r\n",
            "extra\tbaf\tpos\tchrom\tlogr\tsnp_id\n" + "x\t0.5\t10\t3\t0.25\tr1\n\n" + "y\t0.1\t20\t3\t-0.5\tr2\n",
        ],
        ids=["empty", "blank_header", "missing_column", "header_only",
             "header_without_newline", "crlf_header_only", "extra_reordered_columns"],
    )
    def test_headers(self, tmp_path, monkeypatch, caplog, text):
        parse_both(tmp_path, monkeypatch, caplog, text)

    def test_field_counts_that_cancel_out(self, tmp_path, monkeypatch, caplog):
        # a short line then a long one: every value still parses if the
        # fields were cut into rows by count alone
        text = "chrom\tpos\tlogr\tbaf\tsnp_id\n" + "1\t900\t0.1\t0.5\n" + "X\t1\t1000\t0.1\t0.5\tid\n"
        result = parse_both(tmp_path, monkeypatch, caplog, text)
        assert result[2].endswith("track.tsv:2: expected 5 fields")

    def test_two_errors_name_the_earlier_line(self, tmp_path, monkeypatch, caplog):
        text = HEADER + rows("1", 100, 5) + "r\t1\t9\tnan\t0\n" + rows("1", 10, 3) + "s\t1\n"
        result = parse_both(tmp_path, monkeypatch, caplog, text)
        assert result[2].endswith("track.tsv:7: non-finite logr/baf")

    def test_random_edits(self, tmp_path, monkeypatch, caplog):
        """Good files with random single-character edits and moved lines."""
        rng = np.random.default_rng(5)
        base = rows("1", 100, 8) + rows("2", 100, 8)
        alphabet = ["\t", "\n", "\r", " ", "-", "_", ".", "0", "9", "e", "n", "1", "2"]
        kinds = {"ok": 0, "error": 0}
        for _ in range(150):
            body = list(base)
            for _ in range(int(rng.integers(0, 3))):
                at = int(rng.integers(0, len(body)))
                edit = rng.integers(0, 3)
                if edit == 0:
                    body[at] = alphabet[int(rng.integers(len(alphabet)))]
                elif edit == 1:
                    body.insert(at, alphabet[int(rng.integers(len(alphabet)))])
                else:
                    del body[at]
            lines = "".join(body).split("\n")
            if rng.random() < 0.3:
                i, j = rng.integers(0, len(lines), size=2)
                lines[i], lines[j] = lines[j], lines[i]
            result = parse_both(tmp_path, monkeypatch, caplog, HEADER + "\n".join(lines))
            kinds[result[0]] += 1
        assert kinds["ok"] > 10 and kinds["error"] > 10

    def test_random_edits_wide_alphabet(self, tmp_path, monkeypatch, caplog):
        """Good files with 1-3 random edits drawn from characters that
        numpy's reader and int()/float() may read differently."""
        rng = np.random.default_rng(7)
        base = rows("1", 100, 8) + rows("2", 100, 8)
        alphabet = ["\t", "\n", "\r", " ", "-", "_", ".", "0", "9", "e", "n", "1", "2",
                    "\x0b", "\x0c", "\x1c", "\x1f", "\x00", "\xa0", "\u0661", "\u2213", "+", "#", '"']
        kinds = {"ok": 0, "error": 0}
        for _ in range(400):
            body = list(base)
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(0, len(body)))
                edit = rng.integers(0, 3)
                if edit == 0:
                    body[at] = alphabet[int(rng.integers(len(alphabet)))]
                elif edit == 1:
                    body.insert(at, alphabet[int(rng.integers(len(alphabet)))])
                else:
                    del body[at]
            result = parse_both(tmp_path, monkeypatch, caplog, HEADER + "".join(body))
            kinds[result[0]] += 1
        assert kinds["ok"] > 40 and kinds["error"] > 40


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("at", [0, 25, 50])
def test_huge_position_is_a_format_error(tmp_path, monkeypatch, capsys, at, size):
    # at 50 the bad line is the last one, with no newline after it
    lines = rows("1", 100, 50).splitlines(True)
    lines[at:at + 1] = ["r\t1\t99999999999999999999999\t0.1\t0.5" + ("\n" if at < 50 else "")]
    path = tmp_path / "track.tsv"
    path.write_text(HEADER + "".join(lines))
    monkeypatch.setattr(cli, "_BLOCK_SIZE", size)
    assert run_cli(["segment-fl", path, "--output", tmp_path / "out.tsv"]) == 1
    err = capsys.readouterr().err
    assert err == f"cnvfuse: error: {path}:{at + 2}: position above 2**63 - 1\n"
    assert not (tmp_path / "out.tsv").exists()


def reference_simulate_lines(spec):
    """The track and truth lines of ``simulate`` for ``spec``, built index
    by index."""
    truth = sim.generate(spec)
    track = truth.track

    def fmt(x):
        return "nan" if math.isnan(x) else format(x, ".6g")

    lines = ["snp_id\tchrom\tpos\tlogr\tbaf"]
    tlines = ["snp_id\tchrom\tpos\ttrue_copy\ttrue_genotype"]
    for i in range(track.n):
        head = [track.snp_ids[i], spec.chrom, str(int(track.positions[i]))]
        lines.append("\t".join(head + [fmt(float(track.logr[i])), fmt(float(track.baf[i]))]))
        tlines.append("\t".join(head + [str(int(truth.true_copy[i])), truth.true_genotype[i].genotype]))
    return lines, tlines


class TestSimulateCommand:
    @pytest.mark.parametrize(
        "cnv_type, chrom, seed", [("del0", "1", 1), ("del1", "chr7", 2), ("dup", "X", 3)]
    )
    def test_output_matches_reference_writer(self, tmp_path, cnv_type, chrom, seed):
        track_path, truth_path = tmp_path / "t.tsv", tmp_path / "truth.tsv"
        assert run_cli([
            "simulate", "--n", "300", "--cnv-length", "40", "--cnv-type", cnv_type,
            "--seed", seed, "--chrom", chrom, "--output", track_path, "--truth-output", truth_path,
        ]) == 0
        spec = sim.SimSpec(n=300, cnv_length=40, cnv_type=sim.CnvType(cnv_type), seed=seed, chrom=chrom)
        lines, tlines = reference_simulate_lines(spec)
        assert track_path.read_text() == "\n".join(lines) + "\n"
        assert truth_path.read_text() == "\n".join(tlines) + "\n"

    def test_deterministic_replay(self, tmp_path):
        p1 = simulate_track(tmp_path, "a.tsv", n=400, cnv_length=30, seed=9)
        p2 = simulate_track(tmp_path, "b.tsv", n=400, cnv_length=30, seed=9)
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_cnv_length_fails(self, tmp_path, capsys):
        assert run_cli(["simulate", "--n", "50", "--cnv-length", "60"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--sigma-logr", "nan"], "sigma_logr must be finite"),
            (["--sigma-baf", "inf"], "sigma_baf must be finite"),
            (["--maf", "nan"], "maf must lie in (0, 0.5]"),
            (["--mu-truth=-inf,-0.6313,-0.0045,0.3252"], "mu_truth must be finite"),
        ],
    )
    def test_non_finite_parameters_fail(self, tmp_path, capsys, flag, message):
        out = tmp_path / "trk.tsv"
        assert run_cli(["simulate", "--n", "300", *flag, "--output", out]) == 1
        assert capsys.readouterr().err == f"cnvfuse: error: {message}\n"
        assert not out.exists()

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

    def test_unconverged_mm_is_warned(self, tmp_path, caplog, capsys):
        track = simulate_track(tmp_path, n=600, cnv_length=30, seed=17)
        out = tmp_path / "seg.tsv"
        for flags, want in (
            ([], []),
            (
                ["--max-iter", "1"],
                ["chromosome 1 (positions 5000-3000000): MM stopped at max_iter=1 without converging"],
            ),
        ):
            caplog.clear()
            with caplog.at_level("WARNING", logger="cnvfuse.cli"):
                assert run_cli(["segment-fl", track, "--output", out, *flags]) == 0
            assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == want
            assert out.read_text().startswith("chrom\tstart_pos")
            assert capsys.readouterr().out == ""


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


def reference_pieces(positions, cuts):
    """Positions of the pieces a chromosome is cut into: a piece starts at
    each SNP with some cut in (previous position, its position]."""
    pieces = [[positions[0]]]
    for prev, p in zip(positions, positions[1:]):
        if any(prev < c <= p for c in cuts):
            pieces.append([])
        pieces[-1].append(p)
    return pieces


@pytest.mark.parametrize(
    "split_at",
    [
        "1:700,1:300",  # unsorted
        "1:300,2:250,1:300,1:300",  # duplicates
        "1:100,1:50,1:0",  # at and before the first position
        "1:1201,1:99999,1:1200",  # past the last position, and at it
        "1:301,1:350,1:399,1:400",  # several cuts between one pair of SNPs
        "2:9999,1:1200,1:50,1:650,1:601,2:51, ,1:1",
    ],
)
def test_split_at_pieces(tmp_path, split_at):
    path = tmp_path / "trk.tsv"
    path.write_text(HEADER + rows("1", 100, 12) + rows("2", 50, 8))
    cuts = {}
    for item in filter(None, (i.strip() for i in split_at.split(","))):
        chrom, pos = item.split(":")
        cuts.setdefault(chrom, []).append(int(pos))
    want = [
        (chrom, piece)
        for chrom, track in read_track_file(path)
        for piece in reference_pieces(track.positions.tolist(), cuts.get(chrom, []))
    ]
    pieces = cli._sequences(argparse.Namespace(input=path, split_at=split_at))
    assert [(chrom, track.positions.tolist()) for chrom, track in pieces] == want
    ids = [sid for _, track in pieces for sid in track.snp_ids]
    assert ids == [sid for _, track in read_track_file(path) for sid in track.snp_ids]


@pytest.mark.parametrize("route", ["segment-fl", "segment-dpi"])
@pytest.mark.parametrize("entry", ["1:abc", "1:", "1:5.0", ":5", "abc"])
def test_bad_split_at_entry_is_named(tmp_path, capsys, route, entry):
    # the input is malformed too: the flag is checked before the file is read
    path = tmp_path / "trk.tsv"
    path.write_text(HEADER + rows("1", 100, 3) + "r\t1\t9x\t0.1\t0.5\n")
    out = tmp_path / "out.tsv"
    assert run_cli([route, path, "--split-at", f"1:500,{entry}", "--output", out]) == 1
    assert capsys.readouterr().err == (
        f"cnvfuse: error: --split-at entries must look like chrom:pos, got {entry!r}\n"
    )
    assert not out.exists()


def test_segment_dpi_with_both_lambdas_fits_short_chromosomes(tmp_path, capsys):
    long = simulate_track(tmp_path, "long.tsv", n=300, cnv_length=30, seed=25)
    short = simulate_track(tmp_path, "short.tsv", n=30, cnv_length=0, seed=26, chrom=2)
    merged = tmp_path / "merged.tsv"
    merged.write_text(
        long.read_text() + "".join(short.read_text().splitlines(True)[1:])
        + "a\t3\t5\t0.01\t0.5\nb\t4\t5\t-0.7\t0.02\nc\t4\t9\t-0.6\t0.97\n"
    )
    out = tmp_path / "out.tsv"
    assert run_cli(["segment-dpi", merged, "--lambda1", "0.2", "--lambda2", "0.8", "--output", out]) == 0
    assert capsys.readouterr().err == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 300 + 30 + 3
    assert [line.split("\t")[1:] for line in lines[-3:]] == [
        ["3", "5", "AB", "2"], ["4", "5", "A", "1"], ["4", "9", "B", "1"],
    ]


@pytest.mark.parametrize("route", ["segment-fl", "segment-dpi"])
def test_failing_sequence_is_named(tmp_path, capsys, route):
    long = simulate_track(tmp_path, "long.tsv", n=2000, cnv_length=30, seed=22)
    short = simulate_track(tmp_path, "short.tsv", n=30, cnv_length=0, seed=23, chrom=2)
    merged = tmp_path / "merged.tsv"
    merged.write_text(long.read_text() + "".join(short.read_text().splitlines(True)[1:]))
    out = tmp_path / "out.tsv"
    assert run_cli([route, merged, "--output", out]) == 1
    assert capsys.readouterr().err == (
        "cnvfuse: error: chromosome 2 (positions 5000-150000): "
        "need at least 40 values to estimate sigma, got 30\n"
    )
    assert not out.exists()


_FL_NOT_FINITE = "lambda1, lambda2 and epsilon must be finite"
_DPI_NOT_FINITE = "mu, lambda1, lambda2 and alpha must be finite"


@pytest.mark.parametrize(
    "route, flag, message",
    [
        *(
            (route, [name, value], message)
            for route, message in (("segment-fl", _FL_NOT_FINITE), ("segment-dpi", _DPI_NOT_FINITE))
            for name in ("--lambda1", "--lambda2")
            for value in ("nan", "inf")
        ),
        ("segment-fl", ["--epsilon", "nan"], _FL_NOT_FINITE),
        ("segment-fl", ["--epsilon", "inf"], _FL_NOT_FINITE),
        ("segment-dpi", ["--alpha", "nan"], _DPI_NOT_FINITE),
        ("segment-dpi", ["--alpha", "inf"], _DPI_NOT_FINITE),
        ("segment-dpi", ["--mu-init=-inf,-0.6313,-0.0045,0.3252"], _DPI_NOT_FINITE),
        ("segment-dpi", ["--mu-init=-5.5923,-0.6313,-0.0045,nan"], _DPI_NOT_FINITE),
        ("segment-fl", ["--tol", "inf"], "tol must be positive and finite"),
        ("segment-fl", ["--tol", "nan"], "tol must be positive and finite"),
    ],
)
def test_non_finite_parameters_rejected(tmp_path, capsys, route, flag, message):
    track = simulate_track(tmp_path, n=300, cnv_length=20, seed=24)
    out = tmp_path / "out.tsv"
    assert run_cli([route, track, *flag, "--output", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"cnvfuse: error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def _sequences_file(tmp_path, lengths):
    """A track file with one simulated sequence of each length, on
    chromosomes 1, 2, ... in that order."""
    lines = ["\t".join(TRACK_COLUMNS)]
    for k, n in enumerate(lengths):
        cnv = min(30, n // 4)
        track = simulate_track(tmp_path, f"seq{k}.tsv", n=n, cnv_length=cnv, seed=40 + k, chrom=k + 1)
        lines += track.read_text().splitlines()[1:]
    path = tmp_path / "sequences.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _run_with_workers(monkeypatch, caplog, capsys, workers, argv):
    """Run the CLI with the pool's worker count set to ``workers``; return
    the exit code, stdout, stderr and the warnings logged, and check that
    the pool ran exactly when ``workers`` > 1 and left no process behind."""
    pools = []
    fit_in_pool = cli._fit_in_pool
    monkeypatch.setattr(cli, "_worker_count", lambda n_sequences: workers)
    monkeypatch.setattr(cli, "_fit_in_pool", lambda *a: pools.append(a[-1]) or fit_in_pool(*a))
    caplog.clear()
    with caplog.at_level("WARNING", logger="cnvfuse.cli"):
        code = run_cli(argv)
    assert pools == ([workers] if workers > 1 else [])
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    return code, captured.out, captured.err, warnings


def _finish_last(monkeypatch, chrom):
    """Start the fit of chromosome ``chrom`` half a second late, so that
    it finishes after the fits of the other short sequences."""
    fl_rows = cli._fl_rows

    def late(args, c, track):
        if c == chrom:
            time.sleep(0.5)
        return fl_rows(args, c, track)

    monkeypatch.setattr(cli, "_fl_rows", late)


class TestWorkerPool:
    LENGTHS = (300, 900, 500, 700)

    @pytest.mark.parametrize("flags", [[], ["--max-iter", "1"], ["--split-at", "2:2500000"]])
    def test_output_does_not_depend_on_workers(self, tmp_path, monkeypatch, caplog, capsys, flags):
        track = _sequences_file(tmp_path, self.LENGTHS)
        runs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"seg{workers}.tsv"
            argv = ["segment-fl", track, "--output", out, *flags]
            code, stdout, stderr, warnings = _run_with_workers(monkeypatch, caplog, capsys, workers, argv)
            assert code == 0 and stdout == stderr == ""
            runs.append((out.read_bytes(), warnings))
            code, stdout, _, _ = _run_with_workers(monkeypatch, caplog, capsys, workers, argv[:2] + flags)
            assert code == 0 and stdout.encode() == runs[-1][0]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert len(runs[0][0].splitlines()) > len(self.LENGTHS)

    def test_unconverged_sequences_are_warned_in_input_order(
        self, tmp_path, monkeypatch, caplog, capsys
    ):
        # sent out as 2, 1, 3 and finished as 2, 3, 1
        track = _sequences_file(tmp_path, (400, 1200, 300))
        _finish_last(monkeypatch, "1")
        argv = ["segment-fl", track, "--output", tmp_path / "seg.tsv", "--max-iter", "1"]
        _, _, _, warnings = _run_with_workers(monkeypatch, caplog, capsys, 2, argv)
        assert warnings == [
            f"chromosome {chrom} (positions 5000-{last}): MM stopped at max_iter=1 without converging"
            for chrom, last in ((1, 2_000_000), (2, 6_000_000), (3, 1_500_000))
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "lengths, named",
        [
            ((30, 900, 500, 700), "1 (positions 5000-150000): need at least 40 values to estimate sigma, got 30"),
            ((300, 900, 500, 30), "4 (positions 5000-150000): need at least 40 values to estimate sigma, got 30"),
            # the later short sequence fails first
            ((300, 20, 500, 30), "2 (positions 5000-100000): need at least 40 values to estimate sigma, got 20"),
        ],
    )
    def test_failing_sequence_is_named(
        self, tmp_path, monkeypatch, caplog, capsys, workers, lengths, named
    ):
        track = _sequences_file(tmp_path, lengths)
        _finish_last(monkeypatch, named.split()[0])
        out = tmp_path / "seg.tsv"
        code, stdout, stderr, _ = _run_with_workers(
            monkeypatch, caplog, capsys, workers, ["segment-fl", track, "--output", out]
        )
        assert code == 1 and stdout == ""
        assert stderr == f"cnvfuse: error: chromosome {named}\n"
        assert not out.exists()


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


def test_subcommand_flags():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    segment = {"--lambda1", "--lambda2", "--split-at", "--output"}
    fl_flags = {"--fdr", "--min-snps", "--tol", "--max-iter"}
    dpi_flags = {"--alpha", "--mu-init"}
    assert flags == {
        "segment-fl": segment | fl_flags | {"--epsilon"},
        "segment-dpi": segment | dpi_flags | {"--max-rounds", "--segments-out"},
        "simulate": {
            "--n", "--cnv-length", "--cnv-type", "--cnv-start", "--sigma-logr", "--sigma-baf",
            "--maf", "--mu-truth", "--seed", "--chrom", "--output", "--truth-output",
        },
        "bench": fl_flags | dpi_flags
        | {"--methods", "--lengths", "--cnv-sizes", "--per-cell", "--seed", "--output"},
    }


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
            "--methods", "dpi,mmb", "--max-iter", "50",
            "--seed", "6", "--output", out,
        ]) == 0
        methods = {line.split("\t")[0] for line in out.read_text().splitlines()[1:]}
        assert methods == {"dpi", "mmb"}
