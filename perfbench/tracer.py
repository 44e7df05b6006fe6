"""Per-layer tracing from outside the program.

`install` wraps chosen functions of treelat's modules.  A function is
replaced under every name that refers to it in any treelat module, so a
call is caught whichever module makes it (`pipeline.classify_qp_with_mns`,
`groupprops.conjugacy_class_representatives`, ...).  Each call records a
span: name, start, end and the span open when it began.  Spans stay in
memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
Time in functions that are not wrapped counts toward the nearest wrapped
caller, so the self times of one pass add up to the time its root spans
cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

from treelat import (cli, groupprops, localaction, permcore, pipeline, survey,
                     vhcomplex)

# span name -> (module, attribute); a dotted attribute is a method
SPANS = {
    "permcore.chain_build": (permcore, "StabilizerChain.__init__"),
    "permcore.elements": (permcore, "StabilizerChain.elements"),
    "permcore.class_reps": (permcore, "conjugacy_class_representatives"),
    "permcore.normal_closure": (permcore, "normal_closure"),
    "permcore.point_stabilizer": (permcore, "point_stabilizer"),
    "groupprops.classify": (groupprops, "classify_qp_with_mns"),
    "groupprops.is_transitive": (groupprops, "is_transitive"),
    "groupprops.is_2transitive": (groupprops, "is_2transitive"),
    "groupprops.is_primitive": (groupprops, "is_primitive"),
    "groupprops.section_necessary": (groupprops, "section_necessary"),
    "groupprops.section_exact": (groupprops, "section_exact_small"),
    "groupprops.solvable_outer": (groupprops, "solvable_outer_check"),
    "localaction.tower": (localaction, "tower"),
    # the private builder behind local_group, tower and the survey
    "localaction.local_group": (localaction, "_local_group_from_automaton"),
    "vhcomplex.validate": (vhcomplex, "validate"),
    "vhcomplex.vertical_automaton": (vhcomplex, "vertical_automaton"),
    "vhcomplex.horizontal_automaton": (vhcomplex, "horizontal_automaton"),
    "survey.level_growth": (survey, "survey_level_growth"),
    "pipeline.analyze_pair": (pipeline, "analyze_pair"),
    "pipeline.analyze_datum": (pipeline, "analyze_datum"),
    "pipeline.assemble_report": (pipeline, "assemble_report"),
    "cli.main": (cli, "main"),
}
# generators: each resumption is a span, each yielded item counted
GENERATOR_SPANS = {
    "survey.enumerate": (survey, "enumerate_complete_data"),
}
# counted without a span: (module, attribute, counter, size of the result)
COUNTERS = (
    (localaction, "sphere_index", "sphere_points", len),
)

# per-layer self-time metric -> the spans it sums
LAYER_TIMES = {
    "permcore.chain_build_s": ("permcore.chain_build",),
    "permcore.elements_s": ("permcore.elements",),
    "permcore.class_reps_s": ("permcore.class_reps",),
    "permcore.normal_closure_s": ("permcore.normal_closure",),
    "permcore.point_stabilizer_s": ("permcore.point_stabilizer",),
    "groupprops.classify_s": ("groupprops.classify",),
    "groupprops.transitivity_s": ("groupprops.is_transitive", "groupprops.is_2transitive",
                                  "groupprops.is_primitive"),
    "groupprops.section_necessary_s": ("groupprops.section_necessary",),
    "groupprops.section_exact_s": ("groupprops.section_exact",),
    "groupprops.solvable_outer_s": ("groupprops.solvable_outer",),
    "localaction.tower_s": ("localaction.tower",),
    "localaction.local_group_s": ("localaction.local_group",),
    "vhcomplex.validate_s": ("vhcomplex.validate",),
    "vhcomplex.automaton_s": ("vhcomplex.vertical_automaton",
                              "vhcomplex.horizontal_automaton"),
    "survey.enumerate_s": ("survey.enumerate",),
    "survey.level_growth_s": ("survey.level_growth",),
    "pipeline.assemble_s": ("pipeline.analyze_pair", "pipeline.analyze_datum",
                            "pipeline.assemble_report"),
    "cli.main_s": ("cli.main",),
}

# ratio metric -> the count metric it is a share of
RATIO_BASES = {
    "permcore.class_reps_hit_ratio": "permcore.class_reps_calls",
    "groupprops.section_exact_decided_ratio": "groupprops.section_exact_calls",
}


class Tracer:
    """Spans and counters of one run; `install` patches, `uninstall` restores."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # (first span, end span, wall time) of each traced pass
        self.marks: list[tuple[int, int, float]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "permcore.class_reps":
            def before(args):
                if getattr(args[0], "_class_reps", None) is not None:
                    tracer.counts["class_reps_hits"] += 1
        else:
            before = None
        if name == "permcore.elements":
            def after(result):
                tracer.counts["elements_listed"] += len(result)
        elif name == "groupprops.section_exact":
            def after(result):
                if result != groupprops.UNKNOWN:
                    tracer.counts["section_exact_decided"] += 1
        else:
            after = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def traced():
                while True:
                    record = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(record)
                    tracer.counts[name + ".items"] += 1
                    yield item
            return traced()
        return wrapper

    def _wrap_counter(self, counter: str, size, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += size(result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace(self, module, attr: str, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, meth, make(getattr(cls, meth)))
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "treelat"]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            self._replace(module, attr, lambda fn, name=name: self._wrap(name, fn))
        for name, (module, attr) in GENERATOR_SPANS.items():
            self._replace(module, attr,
                          lambda fn, name=name: self._wrap_generator(name, fn))
        for module, attr, counter, size in COUNTERS:
            self._replace(module, attr,
                          lambda fn, c=counter, s=size: self._wrap_counter(c, s, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- analysis ------------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time per span name over spans[first:last]."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def calls(self, first: int = 0, last: int | None = None) -> Counter:
        return Counter(record[0] for record in self.spans[first:last])


def layer_metrics(tracer: Tracer,
                  untraced_pass_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as means per traced pass, plus the tracing overhead:
    the median traced pass minus the median untraced pass of the same run."""
    marks = tracer.marks
    n = len(marks)
    selfs = tracer.self_times(marks[0][0], marks[-1][1])
    calls = tracer.calls(marks[0][0], marks[-1][1])
    counts = tracer.counts
    traced = [wall for _, _, wall in marks]
    outside = [wall - sum(tracer.self_times(a, b).values()) for a, b, wall in marks]

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    out = {name: (sum(selfs.get(s, 0.0) for s in spans) / n, "s")
           for name, spans in LAYER_TIMES.items()}
    out.update({
        "permcore.chain_builds": (calls["permcore.chain_build"] / n, "count"),
        "permcore.elements_listed": (counts["elements_listed"] / n, "count"),
        "permcore.class_reps_calls": (calls["permcore.class_reps"] / n, "count"),
        "permcore.class_reps_hit_ratio": (
            ratio(counts["class_reps_hits"], calls["permcore.class_reps"]), "ratio"),
        "permcore.normal_closures": (calls["permcore.normal_closure"] / n, "count"),
        "groupprops.section_exact_calls": (calls["groupprops.section_exact"] / n, "count"),
        "groupprops.section_exact_decided_ratio": (
            ratio(counts["section_exact_decided"], calls["groupprops.section_exact"]),
            "ratio"),
        "localaction.sphere_points": (counts["sphere_points"] / n, "count"),
        "survey.data": (counts["survey.enumerate.items"] / n, "count"),
        "trace.pass_s": (statistics.median(traced), "s"),
        "trace.untraced_pass_s": (statistics.median(untraced_pass_s), "s"),
        "trace.overhead_s": (statistics.median(traced)
                             - statistics.median(untraced_pass_s), "s"),
        "trace.outside_s": (sum(outside) / n, "s"),
        "trace.spans": ((marks[-1][1] - marks[0][0]) / n, "count"),
    })
    return out


def span_table(tracer: Tracer) -> list[dict]:
    """Calls, self time and total time per span name, for the trace file."""
    selfs = tracer.self_times()
    calls = tracer.calls()
    totals: dict[str, float] = {}
    for name, start, end, _ in tracer.spans:
        totals[name] = totals.get(name, 0.0) + end - start
    return [{"span": name, "calls": calls[name], "self_s": selfs[name],
             "total_s": totals[name]} for name in sorted(selfs, key=selfs.get, reverse=True)]
