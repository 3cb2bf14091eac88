"""Check that two source trees of cnvfuse give the same CLI outputs.

Usage, from the repository root::

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``cnvfuse`` package (a
checkout's ``src/``). The script writes perfbench's genome inputs for
seeds 1-3 into a temporary directory with ``perfbench/gen.py``, a copy
of each genome with a 2-SNP chromosome appended, which no route can fit,
a copy of the seed-1 genome with ``·`` appended to every ``snp_id``,
which the reader's kernel refuses (it reads ASCII only), so every block
goes to the line-by-line reader, and a copy of the seed-1 genome whose
numbers are written in the forms the kernel reads by other paths (see
``number_forms``).
It runs the same commands with ``PYTHONPATH=OLD_SRC`` and
``PYTHONPATH=NEW_SRC``:

* ``segment-fl`` with its ``split_at.txt``, on the genome, on the genome
  with ``--max-iter 5`` (a warning per sequence), on the genome with
  ``--max-iter 1000000000`` (a bound no fit reaches, which the fit must
  not allocate a trace for), on the genome with the 2-SNP chromosome
  (an error) and on that file with ``--max-iter 5`` (warnings, then the
  error, and no output);
* ``segment-dpi`` with its ``split_at.txt`` and ``--segments-out``, on the
  genome and on the genome with the 2-SNP chromosome, and on the seed-1
  genome with ``--lambda2 1e308``, where the penalties to and from copy
  number 0 overflow to inf, so the DP kernel's leader-test allowance is
  inf and every step takes the full comparison;
* ``segment-fl`` and ``segment-dpi`` (with ``--segments-out``), each with
  its ``split_at.txt``, on the seed-1 genome with non-ASCII SNP ids: the
  line-by-line reader and the labels' way to the output, end to end, and
  on the seed-1 genome with its numbers in other forms;
* ``simulate --truth-output`` on seeds 1-3 for each CNV type with a
  non-default ``--chrom``, with no other flag, and with every flag set;
* ``bench`` over the three methods, of whose report only the first 8
  columns are compared (the 9th is a wall time);
* ``--help`` of the program and of every subcommand.

For each command it compares the exit status, stdout, stderr and every
file written; a file that neither side writes counts as the same, one
that only one side writes as a difference.

The CLI starts the way the ``cnvfuse`` console script and perfbench start
it, ``python -c "... from cnvfuse.cli import main ..."``. At exit that
wrapper writes the process's peak resident set (``VmHWM`` from
``/proc/self/status``, in kB) to a file outside the compared set. Each
``segment-fl`` and ``segment-dpi`` line prints both trees' figures, which
are reported, not compared.

One more case calls the library instead of the CLI. A subprocess per
source tree fits every arm of perfbench's arm corpus for seed 1 (the
``corpus.npz`` that ``gen.py`` wrote) through both routes with
``fit_arm`` from ``perfbench/corpus.py``, the function perfbench's
``arm-corpus`` workload fits each arm with (``SnpTrack.from_values``,
``estimate_sigma``, ``default_lambdas``, ``solve_mm_tdm``, ``call_cnvs``,
``merge_adjacent_calls``, then ``dpi_fit`` with the default means). It
prints one SHA-256 digest of every output: the fused-lasso estimate's
bytes, its objective, objective trace, iteration count and convergence
flag, sigma, the lambdas and the called segments, and the DPI path's
state indices and objective, the re-estimated model and the round count,
or the exception a route raised. One more track goes through ``fit_arm``
after the corpus: its BAF values sit on every genotype centre and on
every midpoint between two centres of one copy class, where the class's
genotypes tie, so a change to the rule that picks among tied genotypes
changes the digest. The two digests, exit statuses and stderr must
match.

The script prints one line per case and exits 1 on any difference.
Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
# appended to each genome as genome_2snp.tsv: too short for a sigma estimate
SHORT_CHROM = "x1\t7\t1000\t0.1\t0.5\nx2\t7\t2000\t-0.2\t0.3\n"
# appended to every snp_id of the seed-1 genome as genome_nonascii.tsv
NON_ASCII = "\u00b7"
# the row of the genome with numbers in other forms whose LogR follows a
# space: its block goes to the line-by-line reader
SPACED_ROW = 50_000
# BAF centres of the genotypes of copy number 1, 2 and 3
CLASS_CENTRES = ((0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
# the centres and the midpoints between neighbouring centres of one class
TIE_BAF = sorted({x for cs in CLASS_CENTRES for x in (*cs, *((a + b) / 2.0 for a, b in zip(cs, cs[1:])))})
# the CLI as the console script starts it; at exit it writes its VmHWM (kB)
# to the file named by its first argument, which is taken off the argv
LAUNCH = """\
import sys
from cnvfuse.cli import main
hwm = sys.argv.pop(1)
try:
    sys.exit(main())
finally:
    try:
        with open("/proc/self/status", encoding="ascii") as status, open(hwm, "w", encoding="ascii") as out:
            out.write("".join(line.split()[1] for line in status if line.startswith("VmHWM:")))
    except OSError:
        pass
"""


def cases(inputs: dict[int, str]):
    """(name, argv, files the command writes, relative to its directory)."""
    for seed, d in inputs.items():
        track, short = os.path.join(d, "genome.tsv"), os.path.join(d, "genome_2snp.tsv")
        with open(os.path.join(d, "split_at.txt"), encoding="utf-8") as fh:
            split = ["--split-at", fh.read().strip()]
        fl_inputs = [
            ("", track, []),
            (", --max-iter 5", track, ["--max-iter", "5"]),
            (", --max-iter 1000000000", track, ["--max-iter", "1000000000"]),
            (" + 2-SNP chromosome", short, []),
            (" + 2-SNP chromosome, --max-iter 5", short, ["--max-iter", "5"]),
        ]
        dpi_inputs = [("", track, []), (" + 2-SNP chromosome", short, [])]
        if seed == 1:
            variants = ((", non-ASCII SNP ids", "genome_nonascii.tsv"), (", numbers in other forms", "genome_forms.tsv"))
            for label, name in variants:
                fl_inputs.append((label, os.path.join(d, name), []))
                dpi_inputs.append((label, os.path.join(d, name), []))
            dpi_inputs.append((", --lambda2 1e308", track, ["--lambda2", "1e308"]))
        for label, path, flags in fl_inputs:
            fl = ["segment-fl", path, *split, "--output", "fl.tsv", *flags]
            yield f"segment-fl genome {seed}{label}", fl, ["fl.tsv"]
        for label, path, flags in dpi_inputs:
            dpi = ["segment-dpi", path, *split, "--output", "dpi.tsv", "--segments-out", "seg.tsv", *flags]
            yield f"segment-dpi genome {seed}{label}", dpi, ["dpi.tsv", "seg.tsv"]
    sim = ["simulate", "--output", "trk.tsv", "--truth-output", "truth.tsv"]
    for seed in SEEDS:
        for cnv_type in ("del0", "del1", "dup"):
            flags = ["--seed", str(seed), "--cnv-type", cnv_type, "--chrom", "7"]
            yield f"simulate {' '.join(flags)}", sim + flags, ["trk.tsv", "truth.tsv"]
    yield "simulate, defaults", sim, ["trk.tsv", "truth.tsv"]
    every = [
        "--n", "2500", "--cnv-length", "70", "--cnv-type", "dup", "--cnv-start", "300",
        "--sigma-logr", "0.25", "--sigma-baf", "0.05", "--maf", "0.4",
        "--mu-truth=-5,-0.7,0.01,0.4", "--seed", "4", "--chrom", "X",
    ]
    yield "simulate, every flag", sim + every, ["trk.tsv", "truth.tsv"]
    bench = [
        "bench", "--methods", "fused_lasso,dpi,mmb", "--lengths", "1000,2000",
        "--cnv-sizes", "10,40", "--per-cell", "4", "--seed", "5", "--output", "bench.tsv",
    ]
    yield "bench, columns 1-8", bench, ["bench.tsv"]
    for sub in ([], ["segment-fl"], ["segment-dpi"], ["simulate"], ["bench"]):
        yield f"{' '.join(['cnvfuse', *sub])} --help", [*sub, "--help"], []


def number_forms(body: list[str]) -> str:
    """The genome's rows (``body``, each ending in a newline) with their
    numbers in the forms that the reader's kernel reads by its other paths:
    each LogR one step up in its last bit and written with ``repr`` (16-17
    digits) and each BAF with 17 significant digits in exponent notation,
    both for strtod; every position with a ``+`` or two leading zeros, for
    the integer reader; and a space before the LogR of row SPACED_ROW,
    which sends that row's block to the line-by-line reader."""
    rows = []
    for i, line in enumerate(body):
        snp_id, chrom, pos, logr, baf = line.rstrip("\n").split("\t")
        logr = repr(math.nextafter(float(logr), math.inf))
        rows.append(
            f"{snp_id}\t{chrom}\t{'+' if i % 2 else '00'}{pos}\t{' ' if i == SPACED_ROW else ''}{logr}"
            f"\t{float(baf):.16e}\n"
        )
    return "".join(rows)


def run(src: str, workdir: str, argv: list[str], files: list[str]) -> tuple[dict, str]:
    """Run one command in an empty ``workdir``; return what it produced
    and the CLI's VmHWM in kB ("?" where it could not be read)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    hwm = os.path.join(workdir, ".vmhwm")  # no case compares it
    cmd = [sys.executable, "-c", LAUNCH, hwm, *argv]
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True)
    out = {"exit status": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for name in files:
        path = os.path.join(workdir, name)
        data = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        if data is not None and name == "bench.tsv":
            data = b"\n".join(b"\t".join(line.split(b"\t")[:8]) for line in data.splitlines())
        out[name] = data
    kb = "?"
    if os.path.exists(hwm):
        with open(hwm, encoding="ascii") as fh:
            kb = fh.read() or "?"
    return out, kb


def library_digest(corpus_path: str) -> str:
    """Fit each arm of a perfbench corpus file through both routes with
    perfbench's ``fit_arm`` and the ``cnvfuse`` on the import path; return
    the digest of every output."""
    import hashlib

    import numpy as np
    from corpus import Package, fit_arm

    with np.load(corpus_path) as z:
        offsets, logr, baf = z["offsets"].tolist(), z["logr"], z["baf"]
    arms = [(logr[a:b], baf[a:b]) for a, b in zip(offsets, offsets[1:])]
    # the tie track: LogR near copy 2, 1 (well below its default mean), 2,
    # 3 and 2 in turn, BAF cycling through TIE_BAF; its DPI path holds
    # tied genotypes of copy 1, 2 and 3
    ties = np.random.default_rng(17).normal(np.repeat([0.0, -1.8, 0.0, 0.33, 0.0], 90), 0.1)
    arms.append((ties, np.resize(TIE_BAF, ties.size)))
    pkg = Package("cnvfuse")
    h = hashlib.sha256()
    for arm_logr, arm_baf in arms:
        fl, dp = fit_arm(pkg, arm_logr, arm_baf)
        if isinstance(fl, Exception):  # dp is the same exception
            h.update(repr(fl).encode())
            continue
        sigma, lam1, lam2, fit, segments = fl
        h.update(repr((sigma, lam1, lam2, segments, fit.objective, fit.iterations, fit.converged)).encode())
        h.update(fit.beta.tobytes())
        h.update(fit.objective_trace.tobytes())
        if isinstance(dp, Exception):
            h.update(repr(dp).encode())
        else:
            h.update(repr((dp.path.objective, dp.model, dp.rounds)).encode())
            h.update(dp.path.state_indices.tobytes())
    return f"{h.hexdigest()}  {len(offsets) - 1} arms + tie track"


def run_library(src: str, corpus_path: str) -> dict:
    """``library_digest`` in a fresh interpreter that imports ``src``."""
    code = "import sys, compare_outputs; print(compare_outputs.library_digest(sys.argv[1]))"
    path = [os.path.abspath(src), os.path.join(REPO, "tools"), os.path.join(REPO, "perfbench")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code, corpus_path], env=env, capture_output=True)
    return {"exit status": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def report(name: str, old: dict, new: dict, note: str = "") -> bool:
    """Print one line for a case, ending in ``note``; return whether its
    outputs differ."""
    diffs = [what for what in old if old[what] != new[what]]
    print(f"{'DIFFER' if diffs else 'same  '}  {name}" + (f": {', '.join(diffs)}" if diffs else "") + note)
    return bool(diffs)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/compare_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = args
    for src in (old_src, new_src):
        if not os.path.isdir(os.path.join(src, "cnvfuse")):
            print(f"{src}: no cnvfuse package here", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        inputs = {}
        for seed in SEEDS:
            inputs[seed] = os.path.join(tmp, f"inputs-{seed}")
            subprocess.run(
                [sys.executable, os.path.join(REPO, "perfbench", "gen.py"), "--seed", str(seed), "--out", inputs[seed]],
                check=True,
                stdout=subprocess.DEVNULL,
            )
            with open(os.path.join(inputs[seed], "genome.tsv"), encoding="utf-8") as fh:
                genome = fh.read()
            with open(os.path.join(inputs[seed], "genome_2snp.tsv"), "w", encoding="utf-8") as fh:
                fh.write(genome + SHORT_CHROM)
            if seed == 1:
                header, *body = genome.splitlines(True)
                with open(os.path.join(inputs[seed], "genome_nonascii.tsv"), "w", encoding="utf-8") as fh:
                    fh.write(header + "".join(line.replace("\t", NON_ASCII + "\t", 1) for line in body))
                with open(os.path.join(inputs[seed], "genome_forms.tsv"), "w", encoding="utf-8") as fh:
                    fh.write(header + number_forms(body))
        for name, cmd, files in cases(inputs):
            old, old_kb = run(old_src, os.path.join(tmp, "old"), cmd, files)
            new, new_kb = run(new_src, os.path.join(tmp, "new"), cmd, files)
            note = f"  (VmHWM {old_kb} -> {new_kb} kB)" if name.startswith("segment-") else ""
            differ += report(name, old, new, note)
        corpus = os.path.join(inputs[1], "corpus.npz")
        old, new = (run_library(src, corpus) for src in (old_src, new_src))
        differ += report("library: both routes on the arm corpus of seed 1 and the tie track", old, new)
    print(f"{differ} case(s) differ" if differ else "all outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
