"""Per-layer tracing of cnvfuse from outside the package.

``Tracer.install`` replaces each public function below with a wrapper at
the place where the program looks it up: a module attribute such as
``fused_lasso.thomas_solve`` (which ``solve_mm_tdm`` reads from its module
globals), a name the CLI imported into its own namespace such as
``cli.estimate_sigma``, or a method on the ``SnpTrack`` class. Each call
appends one span (name, start, end, parent span, a few counts read from
the arguments or the result) to a list in memory; the list is written as
JSON when the traced run ends. Nothing under ``src/`` changes, and the
wrappers return exactly what the wrapped function returned.

Run the CLI traced with::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json segment-fl track.tsv ...
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter


def _n_of_track(args, kwargs, result):
    return {"n": (kwargs.get("track") or args[0]).n}


def _mm(args, kwargs, result):
    return {
        "n": len(kwargs.get("y", args[0] if args else None)),
        "iterations": result.iterations,
        "converged": bool(result.converged),
    }


def _n_of_system(args, kwargs, result):
    return {"n": (kwargs.get("system") or args[0]).diag.size}


def _rows(args, kwargs, result):
    return {"rows": sum(track.n for _, track in result)}


def _segments(args, kwargs, result):
    return {"segments": len(result)}


def _calls(args, kwargs, result):
    return {"calls": sum(1 for seg in result if seg.call.value != "neutral")}


def _rounds(args, kwargs, result):
    return {"rounds": result.rounds}


# (module, attribute, span name, counts); a class attribute is written
# "Class.attr". Names the CLI imported into its own namespace are wrapped
# there as well as in their home module.
TARGETS = (
    ("cli", "read_track_file", "cli.read_track_file", _rows),
    ("cli", "cmd_segment_fl", "cli.cmd_segment", None),
    ("cli", "cmd_segment_dpi", "cli.cmd_segment", None),
    ("cli", "estimate_sigma", "signal_model.estimate_sigma", _n_of_track),
    ("cli", "default_lambdas", "signal_model.default_lambdas", None),
    ("signal_model", "estimate_sigma", "signal_model.estimate_sigma", _n_of_track),
    ("signal_model", "default_lambdas", "signal_model.default_lambdas", None),
    ("signal_model", "SnpTrack.__init__", "signal_model.SnpTrack", None),
    ("signal_model", "SnpTrack.from_values", "signal_model.SnpTrack", None),
    ("fused_lasso", "solve_mm_tdm", "fused_lasso.solve_mm_tdm", _mm),
    ("fused_lasso", "build_surrogate", "fused_lasso.build_surrogate", None),
    ("fused_lasso", "thomas_solve", "fused_lasso.thomas_solve", _n_of_system),
    ("fused_lasso", "objective", "fused_lasso.objective", None),
    ("segment_caller", "call_cnvs", "segment_caller.call_cnvs", _segments),
    ("segment_caller", "estimate_fdr", "segment_caller.estimate_fdr", None),
    ("segment_caller", "merge_adjacent_calls", "segment_caller.merge_adjacent_calls", _calls),
    ("dpi", "dpi_fit", "dpi.dpi_fit", _rounds),
    ("dpi", "dp_impute", "dpi.dp_impute", _n_of_track),
    ("dpi", "reestimate_mu", "dpi.reestimate_mu", None),
)


class Tracer:
    """Spans of one traced run, kept in memory.

    A span is [name, start, end, parent index (-1 at top level), counts].
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; ``uninstall`` puts the originals back."""
        import importlib

        wrapped = {}
        for module_name, attr, name, counts in TARGETS:
            owner = importlib.import_module(f"cnvfuse.{module_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            key = id(raw)
            if key not in wrapped:
                if isinstance(raw, classmethod):
                    wrapped[key] = classmethod(self.wrap(name, raw.__func__, counts))
                else:
                    wrapped[key] = self.wrap(name, raw, counts)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


#: per-layer metrics derived from one traced run: name -> (unit, better)
PER_LAYER = {
    "cli.read_track_file_s": ("s", "lower"),
    "cli.rows_parsed": ("count", "higher"),
    "cli.ns_per_row": ("ns", "lower"),
    "cli.emit_self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "signal_model.snptrack_s": ("s", "lower"),
    "signal_model.estimate_sigma_s": ("s", "lower"),
    "signal_model.sequences": ("count", "higher"),
    "fused_lasso.solve_mm_tdm_s": ("s", "lower"),
    "fused_lasso.thomas_solve_s": ("s", "lower"),
    "fused_lasso.thomas_ns_per_snp": ("ns", "lower"),
    "fused_lasso.build_surrogate_s": ("s", "lower"),
    "fused_lasso.objective_s": ("s", "lower"),
    "fused_lasso.mm_iterations": ("count", "lower"),
    "fused_lasso.mm_iterations_max": ("count", "lower"),
    "fused_lasso.snp_iterations": ("count", "lower"),
    "fused_lasso.unconverged": ("count", "lower"),
    "segment_caller.call_cnvs_s": ("s", "lower"),
    "segment_caller.estimate_fdr_calls": ("count", "lower"),
    "segment_caller.merge_adjacent_calls_s": ("s", "lower"),
    "segment_caller.segments": ("count", "lower"),
    "segment_caller.calls": ("count", "higher"),
    "dpi.dpi_fit_s": ("s", "lower"),
    "dpi.dp_impute_s": ("s", "lower"),
    "dpi.dp_impute_calls": ("count", "lower"),
    "dpi.dp_ns_per_snp": ("ns", "lower"),
    "dpi.reestimate_mu_s": ("s", "lower"),
    "dpi.rounds": ("count", "lower"),
    "dpi.impute_useful_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list) -> dict:
    """Per-layer totals of one traced run (``cli.output_bytes`` and
    ``trace.overhead_s`` are measured outside the traced process).

    Times are summed span durations; a layer that did no work reads 0.
    ``signal_model.snptrack_s`` counts a ``from_values`` call once,
    without the constructor call nested in it. ``cli.emit_self_s`` is the
    time inside ``cmd_segment_*`` not covered by a traced child: splitting,
    formatting and writing.
    """
    total: dict = {}
    count: dict = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start

    def notes(name, key):
        return [sp[4][key] for sp in spans if sp[0] == name]

    def s(name):
        return total.get(name, 0.0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    rows = sum(notes("cli.read_track_file", "rows"))
    thomas_snps = sum(notes("fused_lasso.thomas_solve", "n"))
    dp_snps = sum(notes("dpi.dp_impute", "n"))
    mm = [sp[4] for sp in spans if sp[0] == "fused_lasso.solve_mm_tdm"]
    fits = {k: sp[4]["rounds"] for k, sp in enumerate(spans) if sp[0] == "dpi.dpi_fit"}
    useful = sum(1 + rounds for rounds in fits.values())
    imputes_in_fits = sum(1 for sp in spans if sp[0] == "dpi.dp_impute" and sp[3] in fits)
    return {
        "cli.read_track_file_s": s("cli.read_track_file"),
        "cli.rows_parsed": rows,
        "cli.ns_per_row": per(s("cli.read_track_file"), rows, 1e9),
        "cli.emit_self_s": sum(
            (sp[2] - sp[1]) - child_time[k] for k, sp in enumerate(spans) if sp[0] == "cli.cmd_segment"
        ),
        "signal_model.snptrack_s": sum(
            sp[2] - sp[1]
            for sp in spans
            if sp[0] == "signal_model.SnpTrack"
            and (sp[3] < 0 or spans[sp[3]][0] != "signal_model.SnpTrack")
        ),
        "signal_model.estimate_sigma_s": s("signal_model.estimate_sigma"),
        "signal_model.sequences": count.get("signal_model.estimate_sigma", 0),
        "fused_lasso.solve_mm_tdm_s": s("fused_lasso.solve_mm_tdm"),
        "fused_lasso.thomas_solve_s": s("fused_lasso.thomas_solve"),
        "fused_lasso.thomas_ns_per_snp": per(s("fused_lasso.thomas_solve"), thomas_snps, 1e9),
        "fused_lasso.build_surrogate_s": s("fused_lasso.build_surrogate"),
        "fused_lasso.objective_s": s("fused_lasso.objective"),
        "fused_lasso.mm_iterations": sum(m["iterations"] for m in mm),
        "fused_lasso.mm_iterations_max": max((m["iterations"] for m in mm), default=0),
        "fused_lasso.snp_iterations": sum(m["n"] * m["iterations"] for m in mm),
        "fused_lasso.unconverged": sum(1 for m in mm if not m["converged"]),
        "segment_caller.call_cnvs_s": s("segment_caller.call_cnvs"),
        "segment_caller.estimate_fdr_calls": count.get("segment_caller.estimate_fdr", 0),
        "segment_caller.merge_adjacent_calls_s": s("segment_caller.merge_adjacent_calls"),
        "segment_caller.segments": sum(notes("segment_caller.call_cnvs", "segments")),
        "segment_caller.calls": sum(notes("segment_caller.merge_adjacent_calls", "calls")),
        "dpi.dpi_fit_s": s("dpi.dpi_fit"),
        "dpi.dp_impute_s": s("dpi.dp_impute"),
        "dpi.dp_impute_calls": count.get("dpi.dp_impute", 0),
        "dpi.dp_ns_per_snp": per(s("dpi.dp_impute"), dp_snps, 1e9),
        "dpi.reestimate_mu_s": s("dpi.reestimate_mu"),
        "dpi.rounds": sum(fits.values()),
        "dpi.impute_useful_ratio": per(useful, imputes_in_fits),
    }


def median_metrics(runs: list) -> dict:
    """Median of each metric over several traced runs."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from cnvfuse import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
