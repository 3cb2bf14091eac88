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
import dataclasses
import inspect
import logging
import operator
import sys
from itertools import compress

import numpy as np

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
# read_track_file parses at a time. In fresh processes on a 2-vCPU VM,
# a 112 k-row file parsed in a median of 115-124 ms with blocks of 64-128 Ki
# characters, 132-141 ms with 16 Ki and 131-141 ms with 1 Mi.
_BLOCK_SIZE = 1 << 16

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
        numeric = dict(zip(col[2:], (np.int64, np.float64, np.float64)))
        row_dtype = np.dtype([(f"f{i}", numeric.get(i, object)) for i in range(n_cols)])
        lineno = 2
        while lines := fh.readlines(_BLOCK_SIZE):
            rows = [line for line in lines if line != "\n"] if "\n" in lines else lines
            if rows:
                fields = _read_ascii(rows, row_dtype, col)
                stop = None
                if fields is None:
                    fields, stop = _read_lines(rows, col, n_cols)
                error = _add_block(*fields, groups) or stop
                if error:
                    row, reason = error
                    line = lineno + [i for i, text in enumerate(lines) if text != "\n"][row]
                    raise TrackFormatError(f"{path}:{line}: {reason}")
            lineno += len(lines)

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


def _read_ascii(rows, row_dtype, col):
    """Read the fields (ids, chroms, pos, logr, baf) of a block of non-blank
    lines with numpy's C reader, or return None when the reader must not
    take the block or cannot read one of its lines."""
    # numpy's integer reader accepts digits next to non-ASCII characters
    # (it reads "5\u2213" as 8725), and both of its readers take
    # \x1c-\x1f for spaces, all of which int() and float() reject
    text = "".join(rows)
    if not text.isascii() or "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text:
        return None
    try:
        table = np.loadtxt(
            rows, delimiter="\t", comments=None, quotechar=None, dtype=row_dtype, ndmin=1
        )
    except ValueError:
        return None
    i_id, i_chrom, i_pos, i_logr, i_baf = (f"f{i}" for i in col)
    # copies, so the blocks kept do not hold the table's strings
    return (
        table[i_id].tolist(),
        table[i_chrom].tolist(),
        table[i_pos].copy(),
        table[i_logr].copy(),
        table[i_baf].copy(),
    )


def _read_lines(rows, col, n_cols):
    """Read the fields of a block of non-blank lines with Python's ``int``
    and ``float``, up to the first line they cannot read. Returns the
    fields read, as ``_read_ascii`` does, and the (row, reason) of that
    line, or None when every line was read. Any negative position is
    stored as -1, so that one below -2**63 fits the int64 array too."""
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
    return (ids, chroms, np.array(pos, dtype=np.int64), np.array(logr), np.array(baf)), stop


def _add_block(ids, chroms, pos, logr, baf, groups):
    """Check a block's fields against the rules of ``read_track_file`` that
    remain once its fields are read, and append the block to ``groups``,
    which holds the earlier blocks.

    Returns None, or the (row, reason) of the first row that breaks a rule,
    leaving ``groups`` as it was. Within that row the first rule broken in
    the order negative position, non-finite logr/baf, contiguous chromosome
    rows, strictly increasing positions gives the reason. ``_read_ascii``
    and ``_read_lines`` check the field count, the parsing of the numbers
    and the position's upper bound, which come first in that order. The
    random-edit tests in tests/test_cli.py compare the whole reader against
    a line-by-line reference parser."""
    n = len(chroms)
    if not n:
        return None
    # runs of rows with one chrom: [starts[k], ends[k])
    starts = [0]
    if chroms.count(chroms[0]) != n:
        starts += compress(range(1, n), map(operator.ne, chroms, chroms[1:]))
    ends = [*starts[1:], n]
    run_chroms = [chroms[a] for a in starts]
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
        broken.append((row, 3, f"positions not strictly increasing in chrom '{chroms[row]}'"))
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


def _fl_rows(args, chrom, track) -> tuple[list[str], str | None]:
    """Fit one sequence by fused lasso; return its output rows and a
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
    warning = f"{_where(chrom, track)}: MM stopped at max_iter={args.max_iter} without converging"
    return rows, None if fit.converged else warning


#: the end of a segment-dpi row, "\t{genotype}\t{copy number}", of each state
#: in TEN_STATES, for lookups by ``StatePath.state_indices``
_STATE_SUFFIXES = np.array([f"\t{s.genotype}\t{s.copy_number}" for s in TEN_STATES], dtype=object)


def _dpi_rows(args, chrom, track) -> tuple[tuple[list[str], list[str]], None]:
    """Impute one sequence's copy numbers by DP; return its per-SNP rows
    and its constant-copy segment rows, and no warning."""
    path = pipeline.fit_dpi(
        track,
        args.lambda1,
        args.lambda2,
        alpha=args.alpha,
        mu_init=args.mu_init,
        max_rounds=args.max_rounds,
    ).path
    positions = track.positions.tolist()
    mid = f"\t{chrom}\t"
    snp_rows = [
        f"{sid}{mid}{p}{suffix}"
        for sid, p, suffix in zip(track.snp_ids, positions, _STATE_SUFFIXES[path.state_indices].tolist())
    ]
    starts = [0, *(np.flatnonzero(np.diff(path.copy_numbers)) + 1).tolist()]
    ends = [*starts[1:], track.n]
    seg_rows = [
        f"{chrom}\t{positions[a]}\t{positions[b - 1]}\t{b - a}\t{c}"
        for a, b, c in zip(starts, ends, path.copy_numbers[starts].tolist())
    ]
    return (snp_rows, seg_rows), None


def _fit(rows_of, args, sequences, k):
    """``rows_of(args, chrom, track)`` for sequence k of ``sequences``; a
    CnvFuseError raised for the sequence names it. The sequence leaves
    the list as it is taken, so its track is freed with its rows."""
    chrom, track = sequences[k]
    sequences[k] = None
    try:
        return rows_of(args, chrom, track)
    except CnvFuseError as exc:
        raise type(exc)(f"{_where(chrom, track)}: {exc}") from exc


def _fit_all(args, rows_of) -> list:
    """The rows of every sequence, fitted in-process one after the other
    in input order. ``rows_of(args, chrom, track)`` returns (rows, warning
    or None); a warning is logged once its sequence is fitted, and the
    first error stops the run."""
    sequences = _sequences(args)
    fits = []
    for k in range(len(sequences)):
        rows, warning = _fit(rows_of, args, sequences, k)
        if warning is not None:
            logger.warning("%s", warning)
        fits.append(rows)
    return fits


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
        snp_lines.extend(snp_rows)
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
