"""Command-line front end.

Subcommands: ``segment-fl`` (fused-lasso estimate + FDR-controlled
segment calls), ``segment-dpi`` (dynamic-programming genotype imputation),
``simulate`` (synthetic track generation), and ``bench`` (accuracy/speed
benchmark over a simulated corpus). Input and output are plain TSV;
numbers are written with 6 significant digits so identical inputs and
flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import inspect
import io
import logging
import operator
import sys
from itertools import compress

import numpy as np

from . import _kernels
from . import dpi as dpi_mod
from . import fused_lasso as fl
from . import pipeline
from . import segment_caller as sc
from . import simulate as sim
from .errors import CnvFuseError, TrackFormatError
# estimate_sigma and default_lambdas stay names here: perfbench/tracing.py wraps them in this module
from .signal_model import DEFAULT_EPSILON, TEN_STATES, SnpTrack, default_lambdas, estimate_sigma  # noqa: F401

logger = logging.getLogger(__name__)

TRACK_COLUMNS = ("snp_id", "chrom", "pos", "logr", "baf")

# Size hint, in characters, of the blocks of whole lines that
# read_track_file parses at a time. On a 2-vCPU VM, segment-dpi on a
# 112 k-row file took a median of 228-287 ms in fresh processes with blocks
# of 256 Ki characters, 237-290 ms with 64 Ki, 241-296 ms with 1 Mi and
# 253-306 ms with 16 Ki (five sets of 12-30 alternating runs); in-process,
# the file parsed in a best of 22-27 ms with 256 Ki and 26-30 ms with 64 Ki.
_BLOCK_SIZE = 1 << 18

# positions are stored as int64
_MAX_POSITION = (1 << 63) - 1


def read_track_file(path) -> list[tuple[str, SnpTrack]]:
    """Parse a TSV track file into one SnpTrack per chromosome.

    Requires the header columns snp_id, chrom, pos, logr, baf (extras are
    ignored); rejects unsorted or duplicate positions within a chromosome,
    interleaved chromosome groups, positions outside [0, 2**63 - 1] and
    non-finite numerics. BAF values outside [0, 1] are clamped with a
    logged warning. Blank lines are skipped; errors name ``path:line``.
    """
    # chrom -> (snp_ids, position blocks, logr blocks, baf blocks), in file order
    groups: dict[str, tuple[list, list, list, list]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise TrackFormatError(f"{path}: empty file")
        names = header.rstrip("\n").split("\t")
        for want in TRACK_COLUMNS:
            if want not in names:
                raise TrackFormatError(f"{path}: missing column '{want}'")
        col = [names.index(want) for want in TRACK_COLUMNS]
        n_cols = len(names)
        lineno = 2
        for block in _line_blocks(fh):
            parsed = _kernels.parse_block(block.encode(), n_cols, col)
            if parsed is None:
                lines = io.StringIO(block).readlines()
                fields, stop = _read_lines([line for line in lines if line != "\n"], col, n_cols)
                n_lines = len(lines)
            else:
                *fields, n_lines = parsed
                stop = None
            error = _add_block(*fields, groups) or stop
            if error:
                row, reason = error
                line = lineno + [i for i, text in enumerate(io.StringIO(block)) if text != "\n"][row]
                raise TrackFormatError(f"{path}:{line}: {reason}")
            lineno += n_lines

    return [
        (
            chrom,
            SnpTrack.from_values(
                snp_ids=tuple(ids),
                positions=np.concatenate(pos),
                logr=np.concatenate(logr),
                baf=np.concatenate(baf),
            ),
        )
        for chrom, (ids, pos, logr, baf) in groups.items()
    ]


def _line_blocks(fh):
    """The rest of ``fh`` in blocks of whole lines, each of about
    ``_BLOCK_SIZE`` characters or one line; only the last block may end
    without a newline."""
    pending = []
    while chunk := fh.read(_BLOCK_SIZE):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join([*pending, chunk[:cut]])
            pending = []
        if cut < len(chunk):
            pending.append(chunk[cut:])
    if pending:
        yield "".join(pending)


def _read_lines(rows, col, n_cols):
    """Read the fields of a block of non-blank lines with Python's ``int``
    and ``float``, up to the first line they cannot read: the reader of a
    block the kernel refuses. Returns the fields read (the ids, the first
    row and the chrom of each run of rows with one chrom, the positions,
    LogR and BAF) and the (row, reason) of that line, or None when every
    line was read. Any negative position is stored as -1, so that one
    below -2**63 fits the int64 array too."""
    i_id, i_chrom, i_pos, i_logr, i_baf = col
    ids, chroms, pos, logr, baf = [], [], [], [], []
    stop = None
    for row, line in enumerate(rows):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != n_cols:
            stop = (row, f"expected {n_cols} fields")
            break
        try:
            p = int(parts[i_pos])
            lr = float(parts[i_logr])
            b = float(parts[i_baf])
        except ValueError as exc:
            stop = (row, str(exc))
            break
        if p > _MAX_POSITION:
            stop = (row, "position above 2**63 - 1")
            break
        ids.append(parts[i_id])
        chroms.append(parts[i_chrom])
        pos.append(max(p, -1))
        logr.append(lr)
        baf.append(b)
    # runs of rows with one chrom start at these rows
    starts = [0, *compress(range(1, len(chroms)), map(operator.ne, chroms, chroms[1:]))] if chroms else []
    fields = (ids, starts, [chroms[a] for a in starts], np.array(pos, dtype=np.int64), np.array(logr), np.array(baf))
    return fields, stop


def _add_block(ids, starts, run_chroms, pos, logr, baf, groups):
    """Check a block's fields against the rules of ``read_track_file`` that
    remain once its fields are read, and append the block to ``groups``,
    which holds the earlier blocks. The block's rows with one chrom come
    in runs: run k starts at row ``starts[k]`` and has chrom
    ``run_chroms[k]``.

    Returns None, or the (row, reason) of the first row that breaks a rule,
    leaving ``groups`` as it was. Within that row the first rule broken in
    the order negative position, non-finite logr/baf, contiguous chromosome
    rows, strictly increasing positions gives the reason. The block's
    readers check the field count, the parsing of the numbers and the
    position's upper bound, which come first in that order. The
    random-edit tests in tests/test_cli.py compare the whole reader against
    a line-by-line reference parser."""
    n = pos.size
    if not n:
        return None
    ends = [*starts[1:], n]
    current = next(reversed(groups), None)
    continues = run_chroms[0] == current

    broken = []  # (row, the rule's place in the order above, reason)
    if pos.min() < 0:
        broken.append((int(np.argmax(pos < 0)), 0, "negative position"))
    finite = np.isfinite(logr) & np.isfinite(baf)
    if not finite.all():
        broken.append((int(np.argmin(finite)), 1, "non-finite logr/baf"))
    seen = set(groups)
    for k, chrom in enumerate(run_chroms):
        if chrom in seen and not (k == 0 and continues):
            broken.append((starts[k], 2, f"chrom '{chrom}' rows are not contiguous"))
            break
        seen.add(chrom)
    rises = np.diff(pos) > 0
    rises[[a - 1 for a in starts[1:]]] = True  # a new chrom may start lower
    if continues and pos[0] <= groups[current][1][-1][-1]:
        broken.append((0, 3, f"positions not strictly increasing in chrom '{current}'"))
    elif not rises.all():
        row = int(np.argmin(rises)) + 1
        chrom = run_chroms[bisect.bisect_right(starts, row) - 1]
        broken.append((row, 3, f"positions not strictly increasing in chrom '{chrom}'"))
    if broken:
        row, _, reason = min(broken)
        return row, reason

    for chrom, a, b in zip(run_chroms, starts, ends):
        g_ids, g_pos, g_logr, g_baf = groups.setdefault(chrom, ([], [], [], []))
        g_ids.extend(ids[a:b])
        g_pos.append(pos[a:b])
        g_logr.append(logr[a:b])
        g_baf.append(baf[a:b])
    return None


def _parse_split_at(value: str) -> dict[str, list[int]]:
    """``--split-at``'s cut positions by chromosome, in the order given."""
    splits: dict[str, list[int]] = {}
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        chrom, _, pos = item.rpartition(":")
        try:
            if not chrom:
                raise ValueError
            splits.setdefault(chrom, []).append(int(pos))
        except ValueError:
            raise ValueError(f"--split-at entries must look like chrom:pos, got {item!r}") from None
    return splits


def _split_track(track: SnpTrack, cuts) -> list[SnpTrack]:
    """Cut one chromosome into independent sequences (e.g. chromosome
    arms): a piece starts at each SNP with a cut in (previous position,
    its position]. Cuts at or before the first position or past the last
    cut nothing."""
    inner = sorted({i for i in np.searchsorted(track.positions, cuts).tolist() if 0 < i < track.n})
    if not inner:
        return [track]
    bounds = [0, *inner, track.n]
    return [
        SnpTrack(track.snp_ids[a:b], track.positions[a:b], track.logr[a:b], track.baf[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


def _sequences(args) -> list[tuple[str, SnpTrack]]:
    """Every sequence of the input file as (chrom, track), in file order,
    with chromosomes cut at the ``--split-at`` positions. The flag is
    checked before the file is read."""
    splits = _parse_split_at(args.split_at or "")
    tracks = read_track_file(args.input)
    present = {chrom for chrom, _ in tracks}
    missing = [chrom for chrom in splits if chrom not in present]
    if missing:
        logger.warning(
            "--split-at names chromosomes absent from the input: %s", ", ".join(missing)
        )
    return [
        (chrom, track) for chrom, whole in tracks for track in _split_track(whole, splits.get(chrom, []))
    ]


def _where(chrom: str, track: SnpTrack) -> str:
    """Name a sequence in messages: its chromosome, first and last positions."""
    return f"chromosome {chrom} (positions {int(track.positions[0])}-{int(track.positions[-1])})"


def _fl_rows(args, chrom, track) -> list[str]:
    """Fit one sequence by fused lasso and return its output rows; log a
    warning if MM did not converge."""
    _, fit, segments = pipeline.fit_fused_lasso(
        track,
        args.lambda1,
        args.lambda2,
        epsilon=args.epsilon,
        tol=args.tol,
        max_iter=args.max_iter,
        fdr_level=args.fdr,
        min_snps=args.min_snps,
    )
    rows = [
        "\t".join(
            [
                chrom,
                str(int(track.positions[seg.start_index])),
                str(int(track.positions[seg.end_index])),
                str(seg.n_snps),
                format(seg.mean_beta, ".6g"),
                format(seg.z, ".6g"),
                format(seg.p_value, ".6g"),
                seg.call.value,
            ]
        )
        for seg in segments
    ]
    if not fit.converged:
        logger.warning("%s: MM stopped at max_iter=%s without converging", _where(chrom, track), args.max_iter)
    return rows


#: the end of a segment-dpi row, "\t{genotype}\t{copy number}", of each state
#: in TEN_STATES, for lookups by ``StatePath.state_indices``
_STATE_SUFFIXES = np.array([f"\t{s.genotype}\t{s.copy_number}" for s in TEN_STATES], dtype=object)


def _dpi_rows(args, chrom, track) -> tuple[str, list[str]]:
    """Impute one sequence's copy numbers by DP; return its per-SNP rows,
    joined by newlines, and its constant-copy segment rows."""
    path = pipeline.fit_dpi(
        track,
        args.lambda1,
        args.lambda2,
        alpha=args.alpha,
        mu_init=args.mu_init,
        max_rounds=args.max_rounds,
    ).path
    snp_rows = _kernels.dpi_rows(track.snp_ids, chrom, track.positions, path.state_indices, _STATE_SUFFIXES)
    copies = path.copy_numbers
    starts = np.flatnonzero(np.diff(copies, prepend=-1))
    ends = np.append(starts[1:], track.n)
    seg_rows = [
        f"{chrom}\t{first}\t{last}\t{n}\t{c}"
        for first, last, n, c in zip(
            track.positions[starts].tolist(),
            track.positions[ends - 1].tolist(),
            (ends - starts).tolist(),
            copies[starts].tolist(),
        )
    ]
    return snp_rows, seg_rows


def _fit_all(args, rows_of):
    """Yield ``rows_of(args, chrom, track)`` for every sequence, fitted
    in-process one after the other in input order; a CnvFuseError raised
    for a sequence names it and stops the run. Each sequence leaves the
    list as it is taken, so a track is let go when the next one is."""
    sequences = _sequences(args)[::-1]
    while sequences:
        chrom, track = sequences.pop()
        try:
            yield rows_of(args, chrom, track)
        except CnvFuseError as exc:
            raise type(exc)(f"{_where(chrom, track)}: {exc}") from exc


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)


def cmd_segment_fl(args) -> int:
    lines = ["\t".join(["chrom", "start_pos", "end_pos", "n_snps", "mean_beta", "z", "p", "call"])]
    for rows in _fit_all(args, _fl_rows):
        lines.extend(rows)
    _write_lines(args.output, lines)
    return 0


def cmd_segment_dpi(args) -> int:
    snp_lines = ["\t".join(["snp_id", "chrom", "pos", "genotype_state", "copy_number"])]
    seg_lines = ["\t".join(["chrom", "start_pos", "end_pos", "n_snps", "copy_number"])]
    for snp_rows, seg_rows in _fit_all(args, _dpi_rows):
        snp_lines.append(snp_rows)
        seg_lines.extend(seg_rows)
    _write_lines(args.output, snp_lines)
    if args.segments_out:
        _write_lines(args.segments_out, seg_lines)
    return 0


def cmd_simulate(args) -> int:
    spec = sim.SimSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(sim.SimSpec) if f.name in args})
    truth = sim.generate(spec)
    track = truth.track
    # the snp_id, chrom and pos columns, which both files start with
    heads = [f"snp{i:07d}\t{spec.chrom}\t{p}" for i, p in enumerate(track.positions.tolist(), 1)]
    _write_lines(
        args.output,
        ["\t".join(TRACK_COLUMNS)]
        + [f"{h}\t{y:.6g}\t{x:.6g}" for h, y, x in zip(heads, track.logr.tolist(), track.baf.tolist())],
    )
    if args.truth_output:
        _write_lines(
            args.truth_output,
            ["\t".join([*TRACK_COLUMNS[:3], "true_copy", "true_genotype"])]
            + [
                f"{h}\t{c}\t{g.genotype}"
                for h, c, g in zip(heads, truth.true_copy.tolist(), truth.true_genotype)
            ],
        )
    return 0


def cmd_bench(args) -> int:
    specs = [
        spec
        for n in args.lengths
        for spec in sim.dataset1_specs(count=args.per_cell, n=n, cnv_sizes=args.cnv_sizes, seed=args.seed)
    ]
    rows = sim.run_benchmark(
        specs,
        methods=args.methods,
        fdr_level=args.fdr,
        min_snps=args.min_snps,
        alpha=args.alpha,
        mu_init=args.mu_init,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    _write_lines(args.output, sim.format_report(rows).splitlines())
    return 0


def _comma_list(convert, count=None):
    """An argparse ``type`` that reads a comma-separated list into a tuple
    of ``convert``ed entries, skipping empty ones; with ``count``, exactly
    that many entries."""

    def parse(text: str) -> tuple:
        entries = [entry.strip() for entry in text.split(",") if entry.strip()]
        if count is not None and len(entries) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated values, got {text!r}")
        return tuple(map(_entry(convert, f"{convert.__name__} entries"), entries))

    return parse


def _entry(convert, expected: str):
    """An argparse ``type`` that reads one value with ``convert``."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None

    return parse


def _fdr_level(text: str) -> float:
    level = float(text)
    if not 0.0 < level < 1.0:
        raise ValueError
    return level


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnvfuse",
        description="Copy-number reconstruction from SNP-array LogR/BAF tracks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_segment_flags(p):
        p.add_argument("input", help="track TSV (snp_id, chrom, pos, logr, baf)")
        p.add_argument("--lambda1", type=float, default=None, help="sparsity penalty (default: sigma_hat)")
        p.add_argument("--lambda2", type=float, default=None, help="fusion penalty (default: 2*sigma_hat*sqrt(ln n))")
        p.add_argument("--split-at", default=None, metavar="CHROM:POS[,...]", help="split chromosomes at these positions (e.g. centromeres)")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    def add_fl_flags(p):
        p.add_argument("--fdr", type=_entry(_fdr_level, "a level in (0, 1)"), default=sc.DEFAULT_FDR_LEVEL)
        p.add_argument("--min-snps", type=int, default=sc.DEFAULT_MIN_SNPS)
        p.add_argument("--tol", type=float, default=fl.DEFAULT_TOL)
        p.add_argument("--max-iter", type=int, default=fl.DEFAULT_MAX_ITER)

    def add_dpi_flags(p):
        p.add_argument("--alpha", type=float, default=dpi_mod.DEFAULT_ALPHA)
        p.add_argument("--mu-init", type=_comma_list(float, 4), default=dpi_mod.DEFAULT_COPY_LOGR_MEANS, metavar="M0,M1,M2,M3", help="write --mu-init=M0,M1,M2,M3 when M0 is negative")

    p_fl = sub.add_parser("segment-fl", help="fused-lasso segmentation and FDR-controlled calling")
    add_segment_flags(p_fl)
    add_fl_flags(p_fl)
    p_fl.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_fl.set_defaults(func=cmd_segment_fl)

    p_dpi = sub.add_parser("segment-dpi", help="dynamic-programming genotype imputation")
    add_segment_flags(p_dpi)
    add_dpi_flags(p_dpi)
    p_dpi.add_argument("--max-rounds", type=int, default=dpi_mod.DEFAULT_MAX_ROUNDS)
    p_dpi.add_argument("--segments-out", default=None, help="also write constant-copy segments here")
    p_dpi.set_defaults(func=cmd_segment_dpi)

    # the flags left out take SimSpec's defaults (see cmd_simulate)
    p_sim = sub.add_parser("simulate", help="generate a synthetic LogR/BAF track", argument_default=argparse.SUPPRESS)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--cnv-length", type=int)
    p_sim.add_argument("--cnv-type", choices=[t.value for t in sim.CnvType])
    p_sim.add_argument("--cnv-start", type=_entry(lambda t: None if t == "center" else int(t), "an int or 'center'"), help="0-based start index or 'center'")
    p_sim.add_argument("--sigma-logr", type=float)
    p_sim.add_argument("--sigma-baf", type=float)
    p_sim.add_argument("--maf", type=float)
    p_sim.add_argument("--mu-truth", type=_comma_list(float, 4), metavar="M0,M1,M2,M3", help="write --mu-truth=M0,M1,M2,M3 when M0 is negative")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--chrom")
    p_sim.add_argument("--output", default=None)
    p_sim.add_argument("--truth-output", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="simulate a corpus and benchmark the methods")
    corpus = inspect.signature(sim.dataset1_specs).parameters
    p_bench.add_argument("--methods", type=_comma_list(str), default=("fused_lasso", "dpi"), help="comma-separated: fused_lasso, dpi, mmb (block-relaxation baseline)")
    p_bench.add_argument("--lengths", type=_comma_list(int), default=(corpus["n"].default,), help="comma-separated sequence lengths")
    p_bench.add_argument("--cnv-sizes", type=_comma_list(int), default=corpus["cnv_sizes"].default)
    p_bench.add_argument("--per-cell", type=int, default=12, help="tracks per sequence length")
    p_bench.add_argument("--seed", type=int, default=corpus["seed"].default)
    add_fl_flags(p_bench)
    add_dpi_flags(p_bench)
    p_bench.add_argument("--output", default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CnvFuseError, ValueError, OSError) as exc:
        print(f"cnvfuse: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
