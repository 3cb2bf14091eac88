"""cnvfuse benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload genome-dpi --seed 1 --seconds 36 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (see README.md for why each exists):

- ``genome-fl``: ``cnvfuse segment-fl --split-at ...`` on a 112 k-SNP
  genome file, one process per run of the CLI.
- ``genome-dpi``: ``cnvfuse segment-dpi --split-at ... --segments-out ...``
  on the same file.
- ``arm-corpus``: library calls over 155 short arms held in memory, both
  routes per arm, in one worker process.

With ``--trace 0`` the result carries the end-to-end metrics. The program
and a frozen reference copy of the package (``reference/``) take turns on
the same input, and each timed figure is the program's median scaled by
how far the reference's median in the same run is from its typical
figure (REFERENCE_FIGURES): the host's slow and fast phases, which last
minutes, move both copies alike. With ``--trace 1`` untraced and traced
repetitions of the program alternate and the result carries the
per-layer metrics (see tracing.py). Every output of the program is
checked (checks.py); the result says how many operations (sequences, or
arm x route) were attempted and failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import gen
from checks import check_segment_dpi, check_segment_fl
from tracing import PER_LAYER, layer_metrics, median_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: frozen copy of the package at the commit that defined the benchmark; it
#: runs beside the program to measure how fast the host is at the moment
REFERENCE = os.path.join(HERE, "reference")

#: how the installed ``cnvfuse`` console script starts the CLI
LAUNCH = "import sys; from cnvfuse.cli import main; sys.exit(main())"
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import cnvfuse.cli; "
    "print(repr(time.perf_counter() - t))"
)
SETUP_REPEATS = 9
CHILD_LIMIT_S = 150.0

#: typical median figures of the reference on a 2-vCPU VM (README.md, "Host
#: speed"). A timed figure is reported as the program's figure times (this
#: constant / the reference's figure in the same run): what the program
#: would read while the host runs the reference at these figures.
REFERENCE_FIGURES = {
    "setup_s": 0.125,
    "genome-fl": {"wall_s": 5.0, "cpu_s": 9.0},
    "genome-dpi": {"wall_s": 1.40, "cpu_s": 1.50},
    "arm-corpus": {"wall_s": 7.0, "cpu_s": 7.0},
}


class RunError(Exception):
    pass


def child_env(src: str = SRC) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(cmd: list, src: str = SRC, stdout=subprocess.DEVNULL, stderr=None):
    """Run one child to its end; return (exit code, wall s, cpu s, peak RSS MB).

    Wall time runs from launch to exit; CPU time and peak RSS are the
    child's own, from wait4. ``src`` is the copy of the package it imports.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(src), stdout=stdout, stderr=stderr, cwd=ROOT)
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def scaled(program: float, reference: float, typical: float) -> float:
    """The program's figure at the host speed at which the reference's
    figure reads ``typical``. Both figures come from the same run, taken in
    alternation, so a slow or fast phase of the host moves both alike."""
    return program * typical / reference


def setup_seconds() -> float:
    """Time for a fresh interpreter to import cnvfuse.cli: imports of the
    program and of the reference alternate, after one untimed import of
    each that warms the file cache, and the program's median is scaled."""
    times = {SRC: [], REFERENCE: []}
    for k in range(SETUP_REPEATS + 1):
        for src in (SRC, REFERENCE) if k % 2 else (REFERENCE, SRC):
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_TIMER],
                env=child_env(src),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_LIMIT_S,
            )
            if out.returncode != 0:
                raise RunError(f"importing cnvfuse.cli failed: {out.stderr.strip()[-500:]}")
            if k:
                times[src].append(float(out.stdout.strip().splitlines()[-1]))
    return scaled(
        statistics.median(times[SRC]), statistics.median(times[REFERENCE]), REFERENCE_FIGURES["setup_s"]
    )


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Result:
    """Operation counts and problems gathered over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list = []

    def flag(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


def run_cli_workload(route: str, args, work: str, res: Result) -> dict:
    """Repeat the CLI on the genome file; check what it writes.

    Untraced, each round runs the program and then the reference, or the
    other way round, on the same file. Traced, each round runs the program
    untraced and then traced.
    """
    genome = gen.make_genome(args.seed)
    track = os.path.join(work, "genome.tsv")
    gen.write_track(genome, track)
    n_seq = len(genome.sequences)

    def command(tag: str, traced: bool):
        outs = [os.path.join(work, f"{tag}.tsv")]
        argv = [route, track, "--split-at", genome.split_at, "--output", outs[0]]
        if route == "segment-dpi":
            outs.append(os.path.join(work, f"{tag}.segments.tsv"))
            argv += ["--segments-out", outs[1]]
        if traced:
            spans = os.path.join(work, f"{tag}.spans.json")
            return [sys.executable, os.path.join(HERE, "tracing.py"), spans, *argv], outs, spans
        return [sys.executable, "-c", LAUNCH, *argv], outs, None

    def check(outs):
        if route == "segment-fl":
            return check_segment_fl(read(outs[0]), genome)
        return check_segment_dpi(read(outs[0]), read(outs[1]), genome)

    # output digest -> failed sequences; each repetition overwrites the
    # previous one's files, so a run keeps only the last outputs on disk
    verdicts: dict = {}

    def invoke(tag: str, traced: bool):
        cmd, outs, spans = command(tag, traced)
        for p in outs:
            if os.path.exists(p):
                os.remove(p)
        with open(os.path.join(work, f"{tag}.stderr"), "wb") as err:
            code, wall, cpu, rss = launch(cmd, stderr=err)
        res.attempted += n_seq
        if code != 0 or not all(os.path.exists(p) for p in outs):
            res.failed += n_seq
            res.problems.append(f"{tag}: exit code {code}, see {tag}.stderr")
            return None, wall, cpu, rss, outs, spans
        key = digest(outs)
        if key not in verdicts:
            report = check(outs)
            verdicts[key] = report.failed
            if not report.correct:
                res.flag(f"{tag}: " + "; ".join(report.problems()[:5]))
            elif report.failed:
                res.problems.append(f"{tag}: " + "; ".join(report.problems()[:5]))
            if len(verdicts) > 1:
                res.flag(f"{tag}: output differs from an earlier run on the same input")
        res.failed += verdicts[key]
        return key, wall, cpu, rss, outs, spans

    def invoke_reference():
        cmd, _, _ = command("reference", False)
        with open(os.path.join(work, "reference.stderr"), "wb") as err:
            code, wall, cpu, _ = launch(cmd, src=REFERENCE, stderr=err)
        if code != 0:
            raise RunError(f"the reference CLI exited with {code}; see {work}/reference.stderr")
        return wall, cpu

    begin = time.perf_counter()
    untraced, reference, traced_walls, layers = [], [], [], []
    output_bytes = 0
    while True:
        if args.trace:
            key, wall, cpu, rss, _, _ = invoke("run", False)
            tkey, twall, _, _, touts, spans = invoke("traced", True)
            traced_walls.append(twall)
            if tkey is not None:
                with open(spans, encoding="utf-8") as fh:
                    layers.append(layer_metrics(json.load(fh)))
                output_bytes = sum(os.path.getsize(p) for p in touts)
            if tkey != key:
                res.flag("output with tracing differs from output without")
            round_s = wall + twall
        elif len(untraced) % 2:
            reference.append(invoke_reference())
            _, wall, cpu, rss, _, _ = invoke("run", False)
            round_s = wall + reference[-1][0]
        else:
            _, wall, cpu, rss, _, _ = invoke("run", False)
            reference.append(invoke_reference())
            round_s = wall + reference[-1][0]
        untraced.append((wall, cpu, rss))
        if time.perf_counter() - begin + round_s > args.seconds:
            break
    with open(os.path.join(work, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump({"program": untraced, "reference": reference, "traced_walls": traced_walls}, fh)

    if args.trace:
        if not layers:
            raise RunError("no traced run finished")
        metrics = median_metrics(layers)
        metrics["cli.output_bytes"] = output_bytes
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
            w for w, _, _ in untraced
        )
        return metrics
    typical = REFERENCE_FIGURES[args.workload]
    program_wall, program_cpu, rss = (statistics.median(x) for x in zip(*untraced))
    reference_wall, reference_cpu = (statistics.median(x) for x in zip(*reference))
    return {
        "snps_per_s": genome.n / scaled(program_wall, reference_wall, typical["wall_s"]),
        "cpu_s": scaled(program_cpu, reference_cpu, typical["cpu_s"]),
        "peak_rss_mb": rss,
    }


def run_arm_corpus(args, work: str, res: Result) -> dict:
    """One worker process fits the corpus in whole passes (see corpus.py):
    untraced, the program and the reference take turns arm by arm;
    traced, untraced and traced passes of the program alternate."""
    path = os.path.join(work, "corpus.npz")
    corpus = gen.make_corpus(args.seed)
    gen.save_corpus(corpus, path)
    mode, last = ("trace", os.path.join(work, "spans.json")) if args.trace else ("timed", REFERENCE)
    cmd = [sys.executable, os.path.join(HERE, "corpus.py"), mode, path, repr(float(args.seconds)), last]
    out_path = os.path.join(work, "worker.out")
    with open(out_path, "wb") as out, open(os.path.join(work, "worker.stderr"), "wb") as err:
        code, _, _, _ = launch(cmd, stdout=out, stderr=err)
    lines = read(out_path).strip().splitlines()
    if code != 0 or not lines:
        raise RunError(f"corpus worker exited with {code}; see {work}/worker.stderr")
    w = json.loads(lines[-1])
    res.attempted += w["ops_per_pass"] * w["passes"]
    res.failed += w["failed_per_pass"] * w["passes"]
    res.problems += w["problems"]
    if not w["identical"]:
        res.flag("a repeated or traced pass produced different outputs")
    if args.trace:
        metrics = median_metrics(w["layers"])
        metrics["cli.output_bytes"] = 0
        metrics["trace.overhead_s"] = statistics.median(w["traced_walls"]) - statistics.median(
            w["walls"]
        )
        return metrics
    # a pass's figure: the sum over arms of each arm's median over passes
    program_wall, program_cpu, reference_wall, reference_cpu = (
        sum(statistics.median(arm[i]) for arm in w["arms"]) for i in range(4)
    )
    typical = REFERENCE_FIGURES["arm-corpus"]
    return {
        "snps_per_s": int(corpus.offsets[-1]) / scaled(program_wall, reference_wall, typical["wall_s"]),
        "cpu_s": scaled(program_cpu, reference_cpu, typical["cpu_s"]),
        "peak_rss_mb": w["peak_rss_mb"],
    }


WORKLOADS = {
    "genome-fl": lambda a, w, r: run_cli_workload("segment-fl", a, w, r),
    "genome-dpi": lambda a, w, r: run_cli_workload("segment-dpi", a, w, r),
    "arm-corpus": run_arm_corpus,
}

END_TO_END_UNITS = {"snps_per_s": "SNP/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description="cnvfuse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cnvfuse", "cli.py")):
        print(f"run.py: no cnvfuse sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    res = Result()
    try:
        setup = None if args.trace else setup_seconds()
        metrics = WORKLOADS[args.workload](args, work, res)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for p in res.problems:
        print(f"problem: {p}", file=sys.stderr)

    if args.trace:
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics["setup_s"] = setup
        units = END_TO_END_UNITS
    result = {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
