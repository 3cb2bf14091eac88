"""arm-corpus worker: fits the short arms of the corpus in one process.

Each arm goes through both routes in the order the CLI calls the
library: the fused-lasso route (SnpTrack.from_values, estimate_sigma,
default_lambdas, solve_mm_tdm, call_cnvs, merge_adjacent_calls) and then
the DPI route (dpi_fit with the same track and lambdas). Every call goes
through its module attribute, so a traced pass sees it. Timing starts
after import and input loading. Every run fits whole passes over the
corpus, and every pass must reproduce the first one's outputs bit for bit
(compared by hash). The first pass's outputs are checked with ``checks``.
The worker prints one JSON line. It runs in one of two modes:

- ``timed``: one untimed pass of the program checks the outputs and warms
  up, and gives the peak RSS. Then the frozen reference copy of the
  package in REFERENCE is loaded beside it, and passes repeat while the
  next one is expected to end within SECONDS. A pass fits each arm with
  the program and then the reference, or the other way round, so that
  both see the host at the same moments (see run.py).
- ``trace``: untraced and traced passes of the program alternate while
  the next pair is expected to end within SECONDS; the spans of the last
  traced pass are written to SPANS.json.

    PYTHONPATH=src python3 perfbench/corpus.py timed CORPUS.npz SECONDS REFERENCE
    PYTHONPATH=src python3 perfbench/corpus.py trace CORPUS.npz SECONDS SPANS.json
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import os
import resource
import sys
import time

import numpy as np

import checks
import gen
import tracing


class Package:
    """The modules of one copy of cnvfuse, by their names in the program."""

    def __init__(self, name: str):
        for module in ("dpi", "fused_lasso", "segment_caller", "signal_model"):
            setattr(self, module, importlib.import_module(f"{name}.{module}"))
        self.error = importlib.import_module(f"{name}.errors").CnvFuseError


def load_reference(path: str) -> Package:
    """Import the copy of cnvfuse under ``path`` as ``cnvfuse_reference``,
    beside the program's own ``cnvfuse``."""
    root = os.path.join(path, "cnvfuse")
    spec = importlib.util.spec_from_file_location(
        "cnvfuse_reference", os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return Package(spec.name)


def fit_arm(pkg: Package, y, x):
    """Both routes on one arm; a route that raises yields its exception."""
    signal_model, fused_lasso, segment_caller, dpi = (
        pkg.signal_model,
        pkg.fused_lasso,
        pkg.segment_caller,
        pkg.dpi,
    )
    try:
        track = signal_model.SnpTrack.from_values(logr=y, baf=x)
        sigma = signal_model.estimate_sigma(track)
        lam1, lam2 = signal_model.default_lambdas(sigma, track.n)
        fit = fused_lasso.solve_mm_tdm(track.logr, signal_model.TuningConstants(lam1, lam2))
        segments = segment_caller.call_cnvs(fit.beta, sigma)
        segments = segment_caller.merge_adjacent_calls(fit.beta, segments, sigma)
    except (pkg.error, ValueError) as exc:
        return exc, exc
    fl = (sigma, lam1, lam2, fit, segments)
    try:
        model = dpi.DpiModel(dpi.DEFAULT_COPY_LOGR_MEANS, lam1, lam2)
        return fl, dpi.dpi_fit(track, model)
    except (pkg.error, ValueError) as exc:
        return fl, exc


def timed_fit(pkg: Package, corpus, arms):
    w0, c0 = time.perf_counter(), time.process_time()
    out = []
    for k in arms:
        arm = corpus.arm(k)
        out.append(fit_arm(pkg, corpus.logr[arm], corpus.baf[arm]))
    return out, time.perf_counter() - w0, time.process_time() - c0


def digest(results) -> str:
    """Hash of every output of a pass, so that passes can be compared
    without holding two passes' outputs in memory."""
    h = hashlib.sha256()
    for fl, dp in results:
        if isinstance(fl, Exception):
            h.update(repr(fl).encode())
        else:
            sigma, lam1, lam2, fit, segments = fl
            h.update(repr((sigma, lam1, lam2, fit.objective, fit.iterations, segments)).encode())
            h.update(fit.beta.tobytes())
        if isinstance(dp, Exception):
            h.update(repr(dp).encode())
        else:
            h.update(repr((dp.path.objective, dp.model, dp.rounds)).encode())
            h.update(" ".join(s.genotype for s in dp.path.states).encode())
    return h.hexdigest()


def check(corpus, arms, results) -> list:
    """Failure reasons, one list per operation (arm x route)."""
    names = {g: s for s, g in enumerate(checks.GENOTYPE_NAMES)}
    failures = []
    for k, (fl, dp) in zip(arms, results):
        arm = corpus.arm(k)
        y, x = corpus.logr[arm], corpus.baf[arm]
        if isinstance(fl, Exception):
            failures.append([f"fused-lasso route raised {fl!r}"])
        else:
            sigma, lam1, lam2, fit, segments = fl
            segs = [(s.start_index, s.end_index, s.z, s.p_value, s.call.value) for s in segments]
            failures.append(
                checks.check_fl_fit(
                    y, fit.beta, fit.objective, sigma, lam1, lam2, corpus.true_copy[arm], segs
                )
            )
        if isinstance(dp, Exception):
            failures.append([f"DPI route raised {dp!r}"])
        else:
            states = np.array([names[s.genotype] for s in dp.path.states])
            failures.append(
                checks.check_dpi_fit(
                    y,
                    x,
                    states,
                    dp.path.objective,
                    dp.model.mu,
                    dp.model.lambda1,
                    dp.model.lambda2,
                    dp.model.alpha,
                    corpus.true_copy[arm],
                    corpus.true_nb[arm],
                )
            )
    return failures


class Passes:
    """Whole passes of the program over the corpus, fitted in groups of
    arms: the first pass's failures, and whether later passes reproduce
    its outputs, group by group."""

    def __init__(self, corpus, groups):
        self.corpus, self.groups = corpus, groups
        self.failures: list = [None] * len(groups)
        self.digests: list = [None] * len(groups)
        self.identical = True
        self.count = 0

    def record(self, k: int, out) -> None:
        key = digest(out)
        if self.digests[k] is None:
            self.digests[k] = key
            self.failures[k] = check(self.corpus, self.groups[k], out)
        elif key != self.digests[k]:
            self.identical = False

    def summary(self) -> dict:
        failures = [f for group in self.failures for f in group]
        return {
            "passes": self.count,
            "ops_per_pass": len(failures),
            "failed_per_pass": sum(1 for f in failures if f),
            "identical": self.identical,
            "problems": [f"op {k}: {f[0]}" for k, f in enumerate(failures) if f][:5],
        }


def timed(corpus, seconds: float, reference_path: str) -> dict:
    start = time.perf_counter()
    program = Package("cnvfuse")
    arms = [[k] for k in range(corpus.n_arms)]
    passes = Passes(corpus, arms)
    for k, arm in enumerate(arms):
        out, _, _ = timed_fit(program, corpus, arm)
        passes.record(k, out)
        del out  # no fit runs with an earlier fit's outputs in memory
    passes.count += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = load_reference(reference_path)
    # arm -> [program walls, program CPU, reference walls, reference CPU], one per pass
    times = [[[], [], [], []] for _ in arms]
    while True:
        round_s = 0.0
        for k, arm in enumerate(arms):
            pair = ((0, program), (2, reference))
            for side, pkg in pair if (passes.count + k) % 2 else reversed(pair):
                out, wall, cpu = timed_fit(pkg, corpus, arm)
                times[k][side].append(wall)
                times[k][side + 1].append(cpu)
                round_s += wall
                if pkg is program:
                    passes.record(k, out)
                del out
        passes.count += 1
        if time.perf_counter() - start + round_s > seconds:
            break
    return {"arms": times, "peak_rss_mb": peak_rss_mb, **passes.summary()}


def trace(corpus, seconds: float, spans_path: str) -> dict:
    program = Package("cnvfuse")
    arms = list(range(corpus.n_arms))
    passes = Passes(corpus, [arms])
    walls, traced_walls, layers, tracer = [], [], [], None
    start = time.perf_counter()
    while True:
        out, wall, _ = timed_fit(program, corpus, arms)
        walls.append(wall)
        passes.record(0, out)
        del out  # a pass must not run with an earlier pass's outputs in memory
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out, traced_wall, _ = timed_fit(program, corpus, arms)
        finally:
            tracer.uninstall()
        traced_walls.append(traced_wall)
        layers.append(tracing.layer_metrics(tracer.spans))
        passes.record(0, out)
        del out
        passes.count += 2
        if time.perf_counter() - start + wall + traced_wall > seconds:
            break
    tracer.dump(spans_path)
    return {"walls": walls, "traced_walls": traced_walls, "layers": layers, **passes.summary()}


def main() -> None:
    mode, corpus, seconds, path = sys.argv[1], gen.load_corpus(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    print(json.dumps((timed if mode == "timed" else trace)(corpus, seconds, path)))


if __name__ == "__main__":
    main()
