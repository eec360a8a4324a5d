#!/usr/bin/env python
"""Benchmark the SQLite pushdown backend against the in-memory paths.

Standalone script (no pytest-benchmark): generates the university-style
mapped instance of :mod:`bench_obda_pipeline` at growing sizes — up to
well past where the naive in-memory algebra stops being pleasant — and
times the same certain-answer query through three executors:

* ``naive``   — unfolded algebra, literal evaluation (small sizes only);
* ``planned`` — unfolded algebra through the cost-based planner;
* ``sqlite``  — the whole unfolded UCQ pushed down as one SQL statement.

Three phases per (size, method):

* ``cold``         — every cache invalidated before each round, so the
  round pays classification, rewriting, unfolding, and (for sqlite) the
  bulk load of the replica;
* ``warm_requery`` — the same query re-asked through the system, which
  answers from the generation-validated answer cache: the steady-state
  latency an application sees;
* ``warm_exec``    — sqlite only: the backend re-executes the prepared
  statement against the already-loaded replica (statement cache hit, no
  data shipping), the honest per-execution cost of the pushed-down SQL.

All methods must return identical answers at every size.  A second
query, the 4-atom self-join ``SELF_JOIN_QUERY``, runs on the planned and
sqlite executors only (the naive evaluator runs out of memory on it at
20k rows).  Results are written to ``BENCH_sqlite.json`` at the
repository root, including an ``acceptance`` block with two gates:
pushed-down warm re-query latency at the largest size ≤ the planned
in-memory path at 2k rows, and the pushed self-join, cold, within
``SELF_JOIN_FACTOR`` of the planned one at its largest size.

Usage::

    PYTHONPATH=src python benchmarks/bench_sqlite_pushdown.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

from repro.dllite import AtomicConcept, AtomicRole, parse_tbox
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
)
from repro.obda.cq_parser import parse_query
from repro.obda.mapping import IriTemplate
from repro.obda.rewriting.unfolding import unfold

TBOX_TEXT = """
role teaches
Professor isa Teacher
Lecturer isa Teacher
Teacher isa Person
Student isa Person
Teacher isa exists teaches
exists teaches isa Teacher
exists teaches^- isa Course
"""

QUERY = "q(x) :- Teacher(x), teaches(x, y)"
SELF_JOIN_QUERY = "q(x) :- Professor(x), teaches(x, c), teaches(y, c), Lecturer(y)"

#: The pushed self-join may be at most this many times slower, cold,
#: than the planned in-memory path.
SELF_JOIN_FACTOR = 2.0

#: The planned in-memory reference size of the acceptance gate.
REFERENCE_ROWS = 2000


def university_system(rows: int, use_planner: bool = True) -> OBDASystem:
    rng = random.Random(rows)
    db = Database("campus")
    staff = db.create_table("staff", ["id", "role"])
    teaching = db.create_table("teaching", ["staff_id", "course"])
    for person in range(rows):
        staff.insert((person, rng.choice(["prof", "lect", "admin"])))
        if rng.random() < 0.7:
            teaching.insert((person, f"course{rng.randrange(rows // 4 + 1)}"))
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (IriTemplate("p/{id}"),))],
            ),
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'lect'",
                [TargetAtom(AtomicConcept("Lecturer"), (IriTemplate("p/{id}"),))],
            ),
            MappingAssertion(
                "SELECT staff_id, course FROM teaching",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (IriTemplate("p/{staff_id}"), IriTemplate("c/{course}")),
                    )
                ],
            ),
        ]
    )
    return OBDASystem(
        parse_tbox(TBOX_TEXT),
        mappings=mappings,
        database=db,
        use_planner=use_planner,
    )


def _timed(callable_, rounds: int, warmup: int = 1):
    """(mean, min, max, stddev, last result) over *rounds* timed calls."""
    for _ in range(warmup):
        callable_()
    samples = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        samples.append(time.perf_counter() - start)
    return {
        "rounds": rounds,
        "mean_s": statistics.fmean(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "stddev_s": statistics.stdev(samples) if rounds > 1 else 0.0,
    }, result


def _bench_method(system, method: str, rounds: int, text: str = QUERY):
    """cold + warm_requery timings (and the answers) for one executor."""
    query = parse_query(text)

    def cold():
        system.invalidate_caches()
        return system.certain_answers(query, method=method, check_consistency=False)

    cold_stats, answers = _timed(cold, rounds)
    # cold() above left every cache warm; re-query is now a validated hit
    warm_stats, warm_answers = _timed(
        lambda: system.certain_answers(
            query, method=method, check_consistency=False
        ),
        rounds,
    )
    assert warm_answers == answers, f"{method}: warm re-query changed the answers"
    return cold_stats, warm_stats, answers


def _bench_backend_exec(system, rounds: int):
    """Warm statement re-execution on the loaded replica (sqlite only)."""
    query = parse_query(QUERY)
    rewritten = system.rewrite(query, method="perfectref")
    unfolded = unfold(rewritten, system.mappings)
    backend = system.sql_backend()
    stats, answers = _timed(lambda: backend.execute_unfolded(unfolded), rounds)
    report = backend.last_report()
    assert report["statement_cache"] == "hit", "warm exec missed the statement cache"
    return stats, answers, report


def run(sizes, naive_cap: int, rounds: int) -> dict:
    entries = []
    gate = {}
    for rows in sizes:
        methods = [
            ("planned", "perfectref-sql", True),
            ("sqlite", "perfectref-sqlite", True),
        ]
        if rows <= naive_cap:
            methods.insert(0, ("naive", "perfectref-sql", False))
        reference_answers = None
        for label, method, use_planner in methods:
            system = university_system(rows, use_planner)
            cold, warm, answers = _bench_method(system, method, rounds)
            if reference_answers is None:
                reference_answers = answers
            assert answers == reference_answers, (
                f"{label} diverged at {rows} rows: "
                f"{len(answers)} vs {len(reference_answers)} answers"
            )
            for phase, stats in (("cold", cold), ("warm_requery", warm)):
                entries.append(
                    {
                        "name": f"{label}-{rows}-{phase}",
                        "method": method,
                        "executor": label,
                        "rows": rows,
                        "phase": phase,
                        "answers": len(answers),
                        **stats,
                    }
                )
            if label == "sqlite":
                stats, backend_answers, report = _bench_backend_exec(system, rounds)
                assert backend_answers == reference_answers
                entries.append(
                    {
                        "name": f"sqlite-{rows}-warm_exec",
                        "method": method,
                        "executor": "sqlite",
                        "rows": rows,
                        "phase": "warm_exec",
                        "answers": len(backend_answers),
                        "rows_fetched": report["rows_fetched"],
                        **stats,
                    }
                )
            print(
                f"  {label:>7} @ {rows:>7} rows: "
                f"cold {cold['mean_s'] * 1000:8.2f}ms  "
                f"warm re-query {warm['mean_s'] * 1000:8.3f}ms  "
                f"({len(answers)} answers)",
                flush=True,
            )
        if rows == REFERENCE_ROWS:
            gate["planned_cold_at_reference_s"] = next(
                e for e in entries
                if e["name"] == f"planned-{rows}-cold"
            )["mean_s"]

    largest = max(sizes)
    pushed_warm = next(
        e for e in entries if e["name"] == f"sqlite-{largest}-warm_requery"
    )["mean_s"]
    pushed_exec = next(
        e for e in entries if e["name"] == f"sqlite-{largest}-warm_exec"
    )["mean_s"]
    reference = gate.get("planned_cold_at_reference_s")
    acceptance = {
        "pushdown_gap": {
            "rows": largest,
            "reference_rows": REFERENCE_ROWS,
            "pushed_warm_requery_s": pushed_warm,
            "pushed_warm_exec_s": pushed_exec,
            "planned_reference_s": reference,
            "ok": reference is not None and pushed_warm <= reference,
        }
    }
    return {
        "module": "bench_sqlite_pushdown",
        "query": QUERY,
        "benchmarks": entries,
        "acceptance": acceptance,
    }


def run_self_join(sizes, rounds: int) -> dict:
    """The 4-atom self-join on the planned and sqlite executors."""
    entries = []
    cold_s = {}
    for rows in sizes:
        reference_answers = None
        for label, method in (("planned", "perfectref-sql"), ("sqlite", "perfectref-sqlite")):
            system = university_system(rows)
            cold, warm, answers = _bench_method(system, method, rounds, SELF_JOIN_QUERY)
            if reference_answers is None:
                reference_answers = answers
            assert answers == reference_answers, f"self-join: {label} diverged at {rows} rows"
            cold_s[label, rows] = cold["mean_s"]
            for phase, stats in (("cold", cold), ("warm_requery", warm)):
                entries.append(
                    {
                        "name": f"selfjoin-{label}-{rows}-{phase}",
                        "query": SELF_JOIN_QUERY,
                        "method": method,
                        "executor": label,
                        "rows": rows,
                        "phase": phase,
                        "answers": len(answers),
                        **stats,
                    }
                )
            print(
                f"  self-join {label:>7} @ {rows:>7} rows: "
                f"cold {cold['mean_s'] * 1000:8.2f}ms  ({len(answers)} answers)",
                flush=True,
            )
    largest = max(sizes)
    pushed, planned = cold_s["sqlite", largest], cold_s["planned", largest]
    return {
        "entries": entries,
        "gate": {
            "rows": largest,
            "pushed_cold_s": pushed,
            "planned_cold_s": planned,
            "factor": SELF_JOIN_FACTOR,
            "ok": pushed <= SELF_JOIN_FACTOR * planned,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes and fewer rounds (the CI sqlite-smoke job)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_sqlite.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        sizes, naive_cap, rounds = [500, REFERENCE_ROWS], REFERENCE_ROWS, 3
        self_join_sizes = [500, REFERENCE_ROWS]
    else:
        sizes, naive_cap, rounds = [REFERENCE_ROWS, 20000, 100000], 20000, 5
        self_join_sizes = [REFERENCE_ROWS, 20000]
    print(f"bench_sqlite_pushdown: sizes {sizes}, {rounds} round(s) per phase")
    report = run(sizes, naive_cap, rounds)
    self_join = run_self_join(self_join_sizes, rounds)
    report["benchmarks"].extend(self_join["entries"])
    report["acceptance"]["self_join_gap"] = self_join["gate"]
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {args.output}")
    gap = report["acceptance"]["pushdown_gap"]
    print(
        f"pushdown gap: warm re-query at {gap['rows']} rows = "
        f"{gap['pushed_warm_requery_s'] * 1000:.3f}ms, planned in-memory at "
        f"{gap['reference_rows']} rows = "
        f"{(gap['planned_reference_s'] or 0) * 1000:.2f}ms -> "
        f"{'OK' if gap['ok'] else 'FAIL'}"
    )
    join_gap = report["acceptance"]["self_join_gap"]
    print(
        f"self-join gap at {join_gap['rows']} rows: pushed cold "
        f"{join_gap['pushed_cold_s'] * 1000:.2f}ms, planned cold "
        f"{join_gap['planned_cold_s'] * 1000:.2f}ms (limit {SELF_JOIN_FACTOR:g}x) -> "
        f"{'OK' if join_gap['ok'] else 'FAIL'}"
    )
    return 0 if gap["ok"] and join_gap["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
