"""The traced run: spans around each layer's public entry point.

Only with ``--trace 1`` does the benchmark install :class:`Ledger`,
which replaces each entry point *where its caller looks it up* with a
wrapper that records a span (name, start, end, parent, op id, answer
path) and, for some layers, a few counts read off the call's result.
Nothing in the program changes; :meth:`Ledger.uninstall` restores every
attribute.  Spans stay in memory and are reduced to per-layer metrics
when the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover; summed over an op's spans it gives back
the op's traced latency exactly, which :meth:`Ledger.summary` checks.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, span name).  The module is where the
#: *caller* resolves the name: ``repro.obda.system`` binds
#: ``perfect_ref`` at import, while ``prune_ucq`` is imported from
#: ``repro.perf`` at call time.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.classifier", "build_digraph", "core.digraph"),
    ("repro.core.classifier", "transitive_closure", "core.closure"),
    ("repro.core.classifier", "compute_unsat", "core.unsat"),
    ("repro.core.classify", "Classification.subsumption_count", "core.count"),
    ("repro.obda.system", "perfect_ref", "rewrite.perfectref"),
    ("repro.perf", "prune_ucq", "rewrite.prune"),
    ("repro.obda.system", "presto_rewrite", "rewrite.presto"),
    ("repro.obda.system", "unfold", "unfold"),
    (
        "repro.obda.constraints",
        "ExtensionalConstraints.relevant_inclusions",
        "constraints.inclusions",
    ),
    ("repro.obda.system", "prune_ucq_with_constraints", "constraints.prune"),
    ("repro.obda.sql.planner", "PlannedQuery.from_unfolded", "planner.plan"),
    ("repro.obda.sql.planner", "PlannedQuery.execute", "planner.exec"),
    ("repro.obda.sql.backends", "SqliteBackend.execute_unfolded", "sqlite"),
    ("repro.obda.system", "evaluate_ucq", "evaluate"),
    ("repro.obda.system", "OBDASystem.is_consistent", "consistency"),
    ("repro.obda.sql.table", "Table.insert_many", "db.insert"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Ledger.spans, -1 for an op root
    op: int
    path: str
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


class Ledger:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, path: str = "") -> int:
        """Start a span; it inherits its parent's answer path unless given
        one.  A consistency check's evaluations run over plain extents on
        every path, so the check starts a path of its own."""
        parent = self._stack[-1] if self._stack else -1
        if name == "consistency":
            path = name
        elif not path and parent >= 0:
            path = self.spans[parent].path
        self.spans.append(Span(name, time.perf_counter(), parent, self._op, path))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> int:
        self._op += 1
        return self.open("op")

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, span_name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, leaf = attribute.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            self._patches.append((owner, leaf, raw))
            setattr(owner, leaf, self._wrap(raw, span_name))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, raw = self._patches.pop()
            setattr(owner, leaf, raw)

    def _wrap(self, raw, span_name: str):
        probe = PROBES.get(span_name)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        ledger = self

        def wrapper(*args, **kwargs):
            index = ledger.open(span_name)
            try:
                result = function(*args, **kwargs)
            finally:
                ledger.close(index)
            if probe is not None:
                probe(ledger.spans[index], args, kwargs, result)
            return result

        wrapper.__name__ = getattr(function, "__name__", span_name)
        wrapper.__doc__ = function.__doc__
        return classmethod(wrapper) if is_classmethod else wrapper


# -- result probes: counts recorded at the layer boundary ------------------------


def _probe_digraph(span, args, kwargs, graph):
    span.counts["nodes"] = graph.node_count
    span.counts["arcs"] = graph.arc_count


def _probe_disjuncts(span, args, kwargs, ucq):
    span.counts["disjuncts"] = len(ucq)


def _probe_prune(span, args, kwargs, pruned):
    span.counts["before"] = pruned.before
    span.counts["after"] = pruned.after


def _probe_presto(span, args, kwargs, rewriting):
    span.counts["rules"] = len(rewriting.rules)


def _probe_unfold(span, args, kwargs, unfolded):
    span.counts["parts"] = unfolded.size


def _probe_plan_exec(span, args, kwargs, answers):
    planned = args[0]
    observed = kwargs.get("observed")
    errors = []
    for part in planned.parts:
        actual = observed.get(id(part.plan)) if observed is not None else None
        if actual is None:
            continue
        estimate = max(part.plan.estimated_rows, 1.0)
        actual = max(float(actual), 1.0)
        errors.append(max(estimate / actual, actual / estimate))
    if errors:
        span.counts["qerror"] = statistics.median(errors)


def _probe_sqlite(span, args, kwargs, answers):
    report = args[0].last_report() or {}
    span.counts["load_ms"] = report.get("load_s", 0.0) * 1000.0
    span.counts["exec_ms"] = report.get("execute_s", 0.0) * 1000.0
    span.counts["rows_fetched"] = report.get("rows_fetched", 0)
    span.counts["answers"] = len(answers)
    span.counts["stmt_hit"] = 1.0 if report.get("statement_cache") == "hit" else 0.0


PROBES: Dict[str, Callable] = {
    "core.digraph": _probe_digraph,
    "rewrite.perfectref": _probe_disjuncts,
    "rewrite.prune": _probe_prune,
    "rewrite.presto": _probe_presto,
    "unfold": _probe_unfold,
    "constraints.prune": _probe_prune,
    "planner.exec": _probe_plan_exec,
    "sqlite": _probe_sqlite,
}


# -- reduction to metrics ----------------------------------------------------------


def self_times(spans: List[Span]) -> List[float]:
    """Per-span self time in ms: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start - covered) * 1000.0)
    return result


def layer_of(span: Span) -> str:
    """The ledger row a span's self time is charged to."""
    if span.name == "evaluate":
        return "datalog.evaluate" if span.path == "presto" else "extents.evaluate"
    return span.name


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(spans: List[Span], counters: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; a layer that never ran reads 0.

    ``*.ms`` is the mean self time per call of that entry point, except
    ``consistency.ms``, the mean inclusive time of one check.
    *counters* holds deltas of the program's own counters over the run.
    """
    selfs = self_times(spans)
    by_layer: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_layer.setdefault(layer_of(span), []).append(index)

    def ms(layer: str) -> float:
        return _mean(selfs[i] for i in by_layer.get(layer, ()))

    def counts(layer: str, key: str) -> List[float]:
        return [
            spans[i].counts[key]
            for i in by_layer.get(layer, ())
            if key in spans[i].counts
        ]

    def total(layer: str, key: str) -> float:
        return sum(counts(layer, key))

    consistency = by_layer.get("consistency", ())
    has_children = {span.parent for span in spans}
    sqlite_calls = by_layer.get("sqlite", ())
    return {
        "core.digraph.ms": ms("core.digraph"),
        "core.closure.ms": ms("core.closure"),
        "core.unsat.ms": ms("core.unsat"),
        "core.count.ms": ms("core.count"),
        "core.nodes": _mean(counts("core.digraph", "nodes")),
        "core.arcs": _mean(counts("core.digraph", "arcs")),
        "rewrite.perfectref.ms": ms("rewrite.perfectref"),
        "rewrite.raw_disjuncts": _mean(counts("rewrite.perfectref", "disjuncts")),
        "rewrite.prune.ms": ms("rewrite.prune"),
        "rewrite.prune.kept_ratio": _ratio(
            total("rewrite.prune", "after"), total("rewrite.prune", "before")
        ),
        "unfold.ms": ms("unfold"),
        "unfold.parts": _mean(counts("unfold", "parts")),
        "rewrite.presto.ms": ms("rewrite.presto"),
        "rewrite.presto.rules": _mean(counts("rewrite.presto", "rules")),
        "datalog.evaluate.ms": ms("datalog.evaluate"),
        "constraints.inclusions.ms": ms("constraints.inclusions"),
        "constraints.prune.ms": ms("constraints.prune"),
        "constraints.kept_ratio": _ratio(
            total("constraints.prune", "after"), total("constraints.prune", "before")
        ),
        "constraints.retries": counters.get("prune_retries", 0.0),
        "planner.plan.ms": ms("planner.plan"),
        "planner.exec.ms": ms("planner.exec"),
        "planner.qerror": _mean(counts("planner.exec", "qerror")),
        "sqlite.load.ms": _mean(counts("sqlite", "load_ms")),
        "sqlite.exec.ms": _mean(counts("sqlite", "exec_ms")),
        "sqlite.rows_fetched_per_answer": _ratio(
            total("sqlite", "rows_fetched"), total("sqlite", "answers")
        ),
        "sqlite.stmt_cache.hit_rate": _ratio(total("sqlite", "stmt_hit"), len(sqlite_calls)),
        "extents.evaluate.ms": ms("extents.evaluate"),
        "extents.source_pulls": counters.get("source_pulls_per_query", 0.0),
        "cache.answers.hit_rate": counters.get("answers_hit_rate", 0.0),
        "cache.rewriting.hit_rate": counters.get("rewriting_hit_rate", 0.0),
        "cache.unfolding.hit_rate": counters.get("unfolding_hit_rate", 0.0),
        "consistency.ms": _mean(
            (spans[i].end - spans[i].start) * 1000.0 for i in consistency
        ),
        "consistency.checks": float(sum(1 for i in consistency if i in has_children)),
        "db.insert.ms": ms("db.insert"),
    }


def self_time_shares(spans: List[Span]) -> Dict[str, float]:
    """Share of all traced self time per ledger row (``op``/``call`` is the
    benchmark's own code plus whatever no wrapped layer covers)."""
    selfs = self_times(spans)
    totals: Dict[str, float] = {}
    for span, value in zip(spans, selfs):
        totals[layer_of(span)] = totals.get(layer_of(span), 0.0) + value
    whole = sum(totals.values()) or 1.0
    return {
        name: round(value / whole, 4)
        for name, value in sorted(totals.items(), key=lambda item: -item[1])
    }


def blocking_path_check(spans: List[Span], call_ms: List[float]) -> Dict[str, float]:
    """Check that self times add up along each timed call.

    For every ``call`` span (one timed call of the workload), the self
    times of its subtree must sum to the span's duration, and the span's
    duration must match the latency the workload measured for that call
    (*call_ms*, in span order) up to the wrappers' own cost.
    """
    selfs = self_times(spans)
    subtree: Dict[int, float] = {}
    for index in range(len(spans) - 1, -1, -1):  # children come after parents
        subtree[index] = subtree.get(index, 0.0) + selfs[index]
        parent = spans[index].parent
        if parent >= 0:
            subtree[parent] = subtree.get(parent, 0.0) + subtree[index]
    calls = [i for i, span in enumerate(spans) if span.name == "call"]
    worst_sum = 0.0
    gaps = []
    for index, measured in zip(calls, call_ms):
        duration = (spans[index].end - spans[index].start) * 1000.0
        worst_sum = max(worst_sum, abs(subtree[index] - duration))
        gaps.append(duration - measured)
    return {
        "calls": len(calls),
        "max_self_sum_error_ms": worst_sum,
        "span_minus_measured_ms_p50": statistics.median(gaps) if gaps else 0.0,
        "span_minus_measured_ms_max": max(gaps) if gaps else 0.0,
    }
