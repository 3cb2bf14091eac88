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
import logging
import math
import operator
import sys
from itertools import compress, islice

import numpy as np

from . import dpi as dpi_mod
from . import fused_lasso as fl
from . import pipeline
from . import segment_caller as sc
from . import simulate as sim
from .errors import CnvFuseError, TrackFormatError
# estimate_sigma and default_lambdas stay names here: perfbench/tracing.py wraps them in this module
from .signal_model import DEFAULT_EPSILON, SnpTrack, default_lambdas, estimate_sigma  # noqa: F401

logger = logging.getLogger(__name__)

TRACK_COLUMNS = ("snp_id", "chrom", "pos", "logr", "baf")

# Size hint, in characters, of the blocks of whole lines that
# read_track_file parses at a time. In a fresh process on a 2-vCPU VM,
# blocks of 32-128 Ki characters parsed a 112 k-row file about 15% faster
# than blocks of 1 Mi, which hold ~8 MB of field strings at once.
_BLOCK_SIZE = 1 << 16

# positions are stored as int64
_MAX_POSITION = (1 << 63) - 1


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(x, ".6g")


def read_track_file(path) -> list[tuple[str, SnpTrack]]:
    """Parse a TSV track file into one SnpTrack per chromosome.

    Requires the header columns snp_id, chrom, pos, logr, baf (extras are
    ignored); rejects unsorted or duplicate positions within a chromosome,
    interleaved chromosome groups, positions outside [0, 2**63 - 1] and
    non-finite numerics. BAF values outside [0, 1] are clamped with a
    logged warning. Blank lines are skipped; errors name ``path:line``.
    """
    # chrom -> (snp_ids, positions, logr blocks, baf blocks), in file order
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
        while lines := fh.readlines(_BLOCK_SIZE):
            rows = [line for line in lines if line != "\n"] if "\n" in lines else lines
            if rows and not _add_block(rows, col, n_cols, groups):
                _raise_first_error(path, lines, lineno, col, n_cols, groups)
            lineno += len(lines)

    return [
        (
            chrom,
            SnpTrack.from_values(
                snp_ids=tuple(ids),
                positions=np.array(pos, dtype=np.int64),
                logr=np.concatenate(logr),
                baf=np.concatenate(baf),
                clamp_baf=True,
            ),
        )
        for chrom, (ids, pos, logr, baf) in groups.items()
    ]


def _add_block(rows, col, n_cols, groups) -> bool:
    """Check a block of non-blank lines a column at a time and append it to
    ``groups``. Returns False, leaving ``groups`` as it was, when any line
    breaks a rule of ``read_track_file``.

    Every rule here is also checked line by line in ``_raise_first_error``,
    which names the bad line; a new rule must go into both. The random-edit
    tests in tests/test_cli.py compare the two against a line-by-line
    reference parser."""
    text = "".join(rows)
    if not text.endswith("\n"):
        text += "\n"
    # each line end becomes a lone "\n" field, so the lines all have
    # n_cols fields exactly when those fields sit at a stride of n_cols + 1
    fields = text.replace("\n", "\t\n\t").split("\t")
    n, stride = len(rows), n_cols + 1
    if len(fields) != n * stride + 1 or fields[n_cols::stride].count("\n") != n:
        return False
    fields.pop()
    i_id, i_chrom, i_pos, i_logr, i_baf = col
    try:
        pos = list(map(int, fields[i_pos::stride]))
        logr = np.array(list(map(float, fields[i_logr::stride])))
        baf = np.array(list(map(float, fields[i_baf::stride])))
    except ValueError:
        return False
    if not (np.isfinite(logr).all() and np.isfinite(baf).all()):
        return False

    # runs of rows with one chrom: [starts[k], ends[k])
    chroms = fields[i_chrom::stride]
    starts = [0]
    if chroms.count(chroms[0]) != n:
        starts += compress(range(1, n), map(operator.ne, chroms, chroms[1:]))
    ends = [*starts[1:], n]
    run_chroms = [chroms[a] for a in starts]
    current = next(reversed(groups), None)
    continues = run_chroms[0] == current
    new = run_chroms[1:] if continues else run_chroms
    if len(set(new)) < len(new) or any(chrom in groups for chrom in new):
        return False
    if continues and pos[0] <= groups[current][1][-1]:
        return False
    for a, b in zip(starts, ends):
        if not all(map(operator.lt, islice(pos, a, b), islice(pos, a + 1, b))):
            return False
    # positions rise within each run, so each run starts at its least
    # and ends at its greatest
    if min(pos[a] for a in starts) < 0 or max(pos[b - 1] for b in ends) > _MAX_POSITION:
        return False

    ids = fields[i_id::stride]
    for chrom, a, b in zip(run_chroms, starts, ends):
        if chrom not in groups:
            groups[chrom] = ([], [], [], [])
        g_ids, g_pos, g_logr, g_baf = groups[chrom]
        g_ids.extend(ids[a:b])
        g_pos.extend(pos[a:b])
        g_logr.append(logr[a:b])
        g_baf.append(baf[a:b])
    return True


def _raise_first_error(path, lines, lineno, col, n_cols, groups):
    """Raise the TrackFormatError of the first bad line of a block that
    ``_add_block`` rejected. ``lines`` is the block as read, blank lines
    included, from line ``lineno``; ``groups`` holds the earlier blocks."""
    _, i_chrom, i_pos, i_logr, i_baf = col
    seen = set(groups)
    current = next(reversed(groups), None)
    last = groups[current][1][-1] if groups else None
    for lineno, line in enumerate(lines, start=lineno):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != n_cols:
            raise TrackFormatError(f"{path}:{lineno}: expected {n_cols} fields")
        chrom = parts[i_chrom]
        try:
            pos = int(parts[i_pos])
            logr = float(parts[i_logr])
            baf = float(parts[i_baf])
        except ValueError as exc:
            raise TrackFormatError(f"{path}:{lineno}: {exc}") from exc
        if pos < 0:
            raise TrackFormatError(f"{path}:{lineno}: negative position")
        if pos > _MAX_POSITION:
            raise TrackFormatError(f"{path}:{lineno}: position above 2**63 - 1")
        if not (math.isfinite(logr) and math.isfinite(baf)):
            raise TrackFormatError(f"{path}:{lineno}: non-finite logr/baf")
        if chrom != current:
            if chrom in seen:
                raise TrackFormatError(
                    f"{path}:{lineno}: chrom '{chrom}' rows are not contiguous"
                )
            seen.add(chrom)
            current, last = chrom, None
        if last is not None and pos <= last:
            raise TrackFormatError(
                f"{path}:{lineno}: positions not strictly increasing in chrom '{chrom}'"
            )
        last = pos
    raise AssertionError(f"{path}:{lineno}: block rejected but no line is bad")


def _parse_split_at(value: str) -> dict[str, list[int]]:
    splits: dict[str, list[int]] = {}
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        chrom, _, pos = item.rpartition(":")
        if not chrom:
            raise ValueError(f"--split-at entries must look like chrom:pos, got {item!r}")
        splits.setdefault(chrom, []).append(int(pos))
    for chrom in splits:
        splits[chrom].sort()
    return splits


def _split_track(chrom: str, track: SnpTrack, splits) -> list[SnpTrack]:
    """Cut one chromosome at the given positions (each piece is processed
    as an independent sequence, e.g. chromosome arms)."""
    cuts = splits.get(chrom, []) if splits else []
    if not cuts:
        return [track]
    bounds = [0]
    for cut in cuts:
        idx = int(np.searchsorted(track.positions, cut))
        if bounds[-1] < idx < track.n:
            bounds.append(idx)
    bounds.append(track.n)
    pieces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        pieces.append(
            SnpTrack(
                snp_ids=track.snp_ids[a:b],
                positions=track.positions[a:b],
                logr=track.logr[a:b],
                baf=track.baf[a:b],
            )
        )
    return pieces


def _sequences(args):
    """Yield (chrom, track) for every sequence of the input file, cutting
    chromosomes at the ``--split-at`` positions."""
    tracks = read_track_file(args.input)
    splits = _parse_split_at(args.split_at) if args.split_at else {}
    present = {chrom for chrom, _ in tracks}
    missing = [chrom for chrom in splits if chrom not in present]
    if missing:
        logger.warning(
            "--split-at names chromosomes absent from the input: %s", ", ".join(missing)
        )
    for chrom, whole in tracks:
        for track in _split_track(chrom, whole, splits):
            yield chrom, track


def _where(chrom: str, track: SnpTrack) -> str:
    """Name a sequence in messages: its chromosome, first and last positions."""
    return f"chromosome {chrom} (positions {int(track.positions[0])}-{int(track.positions[-1])})"


def _fits(args, route, **params):
    """Yield (chrom, track, route(track, --lambda1, --lambda2, **params))
    for every sequence. A CnvFuseError raised for one sequence names it."""
    for chrom, track in _sequences(args):
        try:
            result = route(track, args.lambda1, args.lambda2, **params)
        except CnvFuseError as exc:
            raise type(exc)(f"{_where(chrom, track)}: {exc}") from exc
        yield chrom, track, result


def _open_output(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _write_lines(path, lines):
    out, close = _open_output(path)
    try:
        out.write("\n".join(lines) + "\n")
    finally:
        if close:
            out.close()


def _mu_init(text: str) -> tuple[float, float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("--mu-init needs four comma-separated values m0,m1,m2,m3")
    return tuple(parts)


def cmd_segment_fl(args) -> int:
    fits = _fits(
        args,
        pipeline.fit_fused_lasso,
        epsilon=args.epsilon,
        tol=args.tol,
        max_iter=args.max_iter,
        fdr_level=args.fdr,
        min_snps=args.min_snps,
    )
    lines = ["\t".join(["chrom", "start_pos", "end_pos", "n_snps", "mean_beta", "z", "p", "call"])]
    for chrom, track, (_, fit, segments) in fits:
        if not fit.converged:
            logger.warning(
                "%s: MM stopped at max_iter=%d without converging", _where(chrom, track), args.max_iter
            )
        for seg in segments:
            lines.append(
                "\t".join(
                    [
                        chrom,
                        str(int(track.positions[seg.start_index])),
                        str(int(track.positions[seg.end_index])),
                        str(seg.n_snps),
                        _fmt(seg.mean_beta),
                        _fmt(seg.z),
                        _fmt(seg.p_value),
                        seg.call.value,
                    ]
                )
            )
    _write_lines(args.output, lines)
    return 0


def cmd_segment_dpi(args) -> int:
    fits = _fits(
        args, pipeline.fit_dpi, alpha=args.alpha, mu_init=args.mu_init, max_rounds=args.max_rounds
    )
    snp_lines = ["\t".join(["snp_id", "chrom", "pos", "genotype_state", "copy_number"])]
    seg_lines = ["\t".join(["chrom", "start_pos", "end_pos", "n_snps", "copy_number"])]
    for chrom, track, fit in fits:
        path = fit.path
        positions = track.positions.tolist()
        copies = path.copy_numbers.tolist()
        snp_lines.extend(
            f"{sid}\t{chrom}\t{p}\t{st.genotype}\t{c}"
            for sid, p, st, c in zip(track.snp_ids, positions, path.states, copies)
        )
        starts = [0, *(np.flatnonzero(np.diff(path.copy_numbers)) + 1).tolist()]
        ends = [*starts[1:], len(copies)]
        seg_lines.extend(
            f"{chrom}\t{positions[a]}\t{positions[b - 1]}\t{b - a}\t{copies[a]}"
            for a, b in zip(starts, ends)
        )
    _write_lines(args.output, snp_lines)
    if args.segments_out:
        _write_lines(args.segments_out, seg_lines)
    return 0


def cmd_simulate(args) -> int:
    spec = sim.SimSpec(
        n=args.n,
        cnv_length=args.cnv_length,
        cnv_type=sim.CnvType(args.cnv_type),
        cnv_start=None if args.cnv_start == "center" else int(args.cnv_start),
        sigma_logr=args.sigma_logr,
        sigma_baf=args.sigma_baf,
        maf=args.maf,
        mu_truth=args.mu_truth,
        seed=args.seed,
        chrom=args.chrom,
    )
    truth = sim.generate(spec)
    track = truth.track
    lines = ["\t".join(TRACK_COLUMNS)]
    for i in range(track.n):
        lines.append(
            "\t".join(
                [
                    track.snp_ids[i],
                    spec.chrom,
                    str(int(track.positions[i])),
                    _fmt(float(track.logr[i])),
                    _fmt(float(track.baf[i])),
                ]
            )
        )
    _write_lines(args.output, lines)
    if args.truth_output:
        tlines = ["\t".join(["snp_id", "chrom", "pos", "true_copy", "true_genotype"])]
        for i in range(track.n):
            tlines.append(
                "\t".join(
                    [
                        track.snp_ids[i],
                        spec.chrom,
                        str(int(track.positions[i])),
                        str(int(truth.true_copy[i])),
                        truth.true_genotype[i].genotype,
                    ]
                )
            )
        _write_lines(args.truth_output, tlines)
    return 0


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.include_mmb and "mmb" not in methods:
        methods.append("mmb")
    lengths = [int(v) for v in args.lengths.split(",") if v.strip()]
    sizes = [int(v) for v in args.cnv_sizes.split(",") if v.strip()]
    specs = []
    for n in lengths:
        specs.extend(
            sim.dataset1_specs(count=args.per_cell, n=n, cnv_sizes=sizes, seed=args.seed)
        )
    rows = sim.run_benchmark(
        specs,
        methods=methods,
        fdr_level=args.fdr,
        min_snps=args.min_snps,
        alpha=args.alpha,
        mu_init=args.mu_init,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    report = sim.format_report(rows)
    out, close = _open_output(args.output)
    try:
        out.write(report)
    finally:
        if close:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnvfuse",
        description="Copy-number reconstruction from SNP-array LogR/BAF tracks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_solver_flags(p):
        p.add_argument("--lambda1", type=float, default=None, help="sparsity penalty (default: sigma_hat)")
        p.add_argument("--lambda2", type=float, default=None, help="fusion penalty (default: 2*sigma_hat*sqrt(ln n))")
        p.add_argument("--split-at", default=None, metavar="CHROM:POS[,...]", help="split chromosomes at these positions (e.g. centromeres)")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p_fl = sub.add_parser("segment-fl", help="fused-lasso segmentation and FDR-controlled calling")
    p_fl.add_argument("input", help="track TSV (snp_id, chrom, pos, logr, baf)")
    add_common_solver_flags(p_fl)
    p_fl.add_argument("--fdr", type=float, default=sc.DEFAULT_FDR_LEVEL)
    p_fl.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_fl.add_argument("--tol", type=float, default=fl.DEFAULT_TOL)
    p_fl.add_argument("--max-iter", type=int, default=fl.DEFAULT_MAX_ITER)
    p_fl.add_argument("--min-snps", type=int, default=sc.DEFAULT_MIN_SNPS)
    p_fl.set_defaults(func=cmd_segment_fl)

    p_dpi = sub.add_parser("segment-dpi", help="dynamic-programming genotype imputation")
    p_dpi.add_argument("input", help="track TSV (snp_id, chrom, pos, logr, baf)")
    add_common_solver_flags(p_dpi)
    p_dpi.add_argument("--alpha", type=float, default=dpi_mod.DEFAULT_ALPHA)
    p_dpi.add_argument("--mu-init", type=_mu_init, default=dpi_mod.DEFAULT_COPY_LOGR_MEANS, metavar="M0,M1,M2,M3")
    p_dpi.add_argument("--state-space", choices=("10", "4"), default="10", help="accepted for compatibility; both values give the same result")
    p_dpi.add_argument("--max-rounds", type=int, default=dpi_mod.DEFAULT_MAX_ROUNDS)
    p_dpi.add_argument("--segments-out", default=None, help="also write constant-copy segments here")
    p_dpi.set_defaults(func=cmd_segment_dpi)

    p_sim = sub.add_parser("simulate", help="generate a synthetic LogR/BAF track")
    p_sim.add_argument("--n", type=int, default=13000)
    p_sim.add_argument("--cnv-length", type=int, default=50)
    p_sim.add_argument("--cnv-type", choices=[t.value for t in sim.CnvType], default="del1")
    p_sim.add_argument("--cnv-start", default="center", help="0-based start index or 'center'")
    p_sim.add_argument("--sigma-logr", type=float, default=0.2)
    p_sim.add_argument("--sigma-baf", type=float, default=0.03)
    p_sim.add_argument("--maf", type=float, default=0.3)
    p_sim.add_argument("--mu-truth", type=_mu_init, default=dpi_mod.DEFAULT_COPY_LOGR_MEANS, metavar="M0,M1,M2,M3")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--chrom", default="1")
    p_sim.add_argument("--output", default=None)
    p_sim.add_argument("--truth-output", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="simulate a corpus and benchmark the methods")
    p_bench.add_argument("--methods", default="fused_lasso,dpi")
    p_bench.add_argument("--include-mmb", action="store_true", help="add the block-relaxation baseline")
    p_bench.add_argument("--lengths", default="13000", help="comma-separated sequence lengths")
    p_bench.add_argument("--cnv-sizes", default="5,10,20,30,40,50")
    p_bench.add_argument("--per-cell", type=int, default=12, help="tracks per sequence length")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--fdr", type=float, default=sc.DEFAULT_FDR_LEVEL)
    p_bench.add_argument("--min-snps", type=int, default=sc.DEFAULT_MIN_SNPS)
    p_bench.add_argument("--alpha", type=float, default=dpi_mod.DEFAULT_ALPHA)
    p_bench.add_argument("--mu-init", type=_mu_init, default=dpi_mod.DEFAULT_COPY_LOGR_MEANS, metavar="M0,M1,M2,M3")
    p_bench.add_argument("--tol", type=float, default=fl.DEFAULT_TOL)
    p_bench.add_argument("--max-iter", type=int, default=fl.DEFAULT_MAX_ITER)
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
