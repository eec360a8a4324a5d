"""Shared pieces of the workloads: timed calls, samples and percentiles.

Every timed call is checked against a reference the workload computed
outside the timed region, and every query runs under a per-call budget,
so a complexity cliff shows up as a failed call instead of a hung run.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: the four certain-answer paths of ``OBDASystem``
PATHS = ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto")

#: short metric prefix per path
PATH_METRIC = {
    "perfectref": "perfectref",
    "perfectref-sql": "sql",
    "perfectref-sqlite": "sqlite",
    "presto": "presto",
}

#: median ms of :func:`reference_loop` on the host the benchmark was
#: defined on (2-vCPU x86 KVM guest, quiet moments); normalised times
#: are "ms at that host's speed"
REFERENCE_MS = 3.5

#: per-call allowance in seconds; generous enough that no call at the
#: time the benchmark was defined comes near it (slowest seen: ~2 s)
CALL_BUDGET_S = 30.0


@dataclass
class Sample:
    """One timed call: what it was, how long it took, whether it was right."""

    kind: str  # "query", "write" or "classify"
    path: str  # answer path for queries, "" otherwise
    ms: float
    ok: bool
    shape: str = ""  # query shape (template family), "" otherwise


@dataclass
class Tally:
    """Everything one measured phase records."""

    samples: List[Sample] = field(default_factory=list)
    #: latency of each closed-loop op (the unit the workload defines)
    op_ms: List[float] = field(default_factory=list)
    #: the same, normalised to the reference speed (see ``normalise``)
    op_norm_ms: List[float] = field(default_factory=list)
    #: every :func:`reference_loop` time of the run, in order
    reference_ms: List[float] = field(default_factory=list)
    #: latency of every timed call, in order (the ledger check reads it)
    call_ms: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)
    #: span recorder of the traced run, None otherwise
    ledger: Optional[object] = None

    def note_error(self, exc: BaseException) -> None:
        key = type(exc).__name__
        self.errors[key] = self.errors.get(key, 0) + 1


class _Node:
    __slots__ = ("name", "successors")

    def __init__(self, name):
        self.name = name
        self.successors = set()

    def link(self, other: "_Node") -> None:
        self.successors.add(other.name)


def reference_loop() -> float:
    """Time one fixed piece of pure-Python work and return its ms.

    The work is the kind the program spends its time on (tuples built
    and dropped, dict, set and frozenset updates, small slotted objects
    and method calls, a sort) and never changes with the program.  The
    host shares its cores with other tenants, and its speed swings by
    20-40 % between runs a minute apart; the program and this loop slow
    down together, so an op's time divided by the loop's time measured
    next to it keeps the program's cost and drops most of the host's
    swing.  Of the loops tried against classification ops over two
    minutes of that swing, this mix tracked them best.
    """
    gc.disable()  # the loop makes no cycles; keep collections out of it
    started = time.perf_counter()
    groups: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        groups[key] = groups.get(key, ()) + (i,)
    members: Set[int] = set()
    for values in groups.values():
        members.update(values[:3])
    sorted(members)
    nodes = [_Node(("n", i % 211)) for i in range(1500)]
    for i, node in enumerate(nodes):
        node.link(nodes[(i * 7 + 3) % 1500])
        node.link(nodes[(i * 13 + 5) % 1500])
    index: Dict[Tuple[str, int], List[Tuple[str, int]]] = {}
    for node in nodes:
        for name in node.successors:
            index.setdefault(name, []).append(node.name)
    sorted(len(group) for group in {frozenset(v[:4]) for v in index.values()})
    ms = (time.perf_counter() - started) * 1000.0
    gc.enable()
    return ms


def normalise(ms: float, before: float, after: float) -> float:
    """*ms* at the reference speed, from the reference loop's times just
    before and just after the timed work."""
    return ms * 2.0 * REFERENCE_MS / (before + after)


def rows_of(answers) -> Set[Tuple[str, ...]]:
    """Answer tuples as plain strings (individuals print as their IRI)."""
    return {tuple(str(value) for value in row) for row in answers}


def timed_call(
    tally: Tally, kind: str, path: str, call, check, shape: str = ""
) -> float:
    """Time ``call()``; record it as failed if it raises or ``check(result)``
    is false.  Returns the latency in ms.

    This is the boundary that keeps a run going: any exception, budget
    overruns included, becomes a failed call with its type counted.
    """
    span = tally.ledger.open("call", path or kind) if tally.ledger else None
    started = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - counted and reported per type
        tally.note_error(exc)
        result, ok = None, False
    else:
        ok = True
    finally:
        ms = (time.perf_counter() - started) * 1000.0
        if span is not None:
            tally.ledger.close(span)
    if ok and not check(result):
        tally.errors["wrong-answer"] = tally.errors.get("wrong-answer", 0) + 1
        ok = False
    tally.samples.append(Sample(kind, path, ms, ok, shape))
    tally.call_ms.append(ms)
    return ms


def timed_query(
    system, text: str, path: str, expected, tally: Tally, shape: str
) -> float:
    """Answer *text* on *path* under the per-call budget and compare the
    answers with *expected* (tuples of strings)."""
    return timed_call(
        tally,
        "query",
        path,
        lambda: system.certain_answers(text, method=path, budget=CALL_BUDGET_S),
        lambda got: rows_of(got) == expected,
        shape,
    )


def ask_all(systems, text: str, expected, tally: Tally, order, shape: str) -> float:
    """One query on every path, in *order*; returns the summed ms."""
    return sum(
        timed_query(systems[path], text, path, expected, tally, shape)
        for path in order
    )


def warm_sources(system, path: str) -> None:
    """Pull every mapped extent and, on the SQLite path, ship every mapped
    table to the replica, so no measured query pays a first touch."""
    from repro.obda.queries import Atom, ConjunctiveQuery, UnionQuery, Variable
    from repro.obda.rewriting.unfolding import unfold

    arity = {
        target.predicate.name: len(target.terms)
        for assertion in system.mappings
        for target in assertion.targets
    }
    extents = system.extents()
    for name, width in sorted(arity.items()):
        extents.extent(name, width)
    if path != "perfectref-sqlite":
        return
    for width in sorted(set(arity.values())):
        terms = tuple(Variable(f"v{i}") for i in range(width))
        ucq = UnionQuery(
            [
                ConjunctiveQuery(terms, [Atom(name, terms)])
                for name, w in sorted(arity.items())
                if w == width
            ]
        )
        system.sql_backend().execute_unfolded(unfold(ucq, system.mappings))


def quantile(values: List[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1) the way ``statistics.quantiles`` cuts."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def latency_summary(values: List[float]) -> Dict[str, float]:
    return {
        "p50": quantile(values, 0.5),
        "p90": quantile(values, 0.9),
        "n": len(values),
    }
