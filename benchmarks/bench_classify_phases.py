#!/usr/bin/env python
"""Benchmark the phases of graph classification (paper §5, Figure 1).

Standalone script (no pytest-benchmark).  Times the four phases of the
QuOnto-like classifier separately, as :class:`GraphClassifier` runs them
plus the count Figure 1 reports:

* ``build``   — ``build_digraph`` (Definition 1);
* ``closure`` — ``transitive_closure`` (SCC condensation + bitset DP);
* ``unsat``   — ``compute_unsat`` (Ω_T);
* ``count``   — ``Classification.subsumption_count()``.

Rows:

* the 11 Figure 1 profiles at scale 1 (FMA 2.0 among them);
* FMA 2.0 at scales 5 and 10 (scale 10 is about 145k axioms, the
  paper's size);
* the CB baseline's ``measure`` on FMA 2.0 at scale 1, beside the graph
  classifier's ``measure`` on the same TBox.

Each row runs in a fresh interpreter, so its ``peak_rss_mb`` (the
process's maximum resident set, generation of the TBox included) is its
own; ``loaded_rss_mb`` is the same maximum right after generation, so the
difference is what classifying added.  Phase times are medians over the
row's rounds.  Results are written to ``BENCH_classify.json`` at the
repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_classify_phases.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PHASES = ("build", "closure", "unsat", "count")

#: FMA 2.0 scales of the paper-scale rows (scale 1 is a profile row).
FMA_SCALES = (5.0, 10.0)


def _rss_mb() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _phases_once(tbox) -> dict:
    from repro.core import build_digraph, compute_unsat, transitive_closure
    from repro.core.classify import Classification

    marks = [time.perf_counter()]
    graph = build_digraph(tbox)
    marks.append(time.perf_counter())
    closure = transitive_closure(graph.successors)
    marks.append(time.perf_counter())
    unsat = compute_unsat(graph, closure)
    marks.append(time.perf_counter())
    count = Classification(graph, closure, unsat).subsumption_count()
    marks.append(time.perf_counter())
    timings = {
        f"{phase}_ms": (marks[i + 1] - marks[i]) * 1000.0
        for i, phase in enumerate(PHASES)
    }
    shape = {
        "nodes": graph.node_count,
        "arcs": graph.arc_count,
        "unsat": len(unsat),
        "subsumptions": count,
    }
    return {"timings": timings, "shape": shape}


def _measure_once(tbox, engine: str) -> tuple:
    from repro.baselines import make_reasoner

    reasoner = make_reasoner(engine)
    started = time.perf_counter()
    count = reasoner.measure(tbox)
    return (time.perf_counter() - started) * 1000.0, count


def run_row(kind: str, profile: str, scale: float, rounds: int) -> dict:
    """One row, in this interpreter (the parent runs it in a fresh one)."""
    from repro.corpus import load_profile

    started = time.perf_counter()
    tbox = load_profile(profile, scale=scale)
    row = {
        "kind": kind,
        "profile": profile,
        "scale": scale,
        "axioms": len(tbox),
        "rounds": rounds,
        "generate_s": time.perf_counter() - started,
        "loaded_rss_mb": _rss_mb(),
    }
    if kind == "phases":
        runs = [_phases_once(tbox) for _ in range(rounds)]
        shapes = {json.dumps(run["shape"], sort_keys=True) for run in runs}
        assert len(shapes) == 1, f"{profile}: rounds disagree: {shapes}"
        row.update(runs[0]["shape"])
        for key in runs[0]["timings"]:
            row[key] = statistics.median(run["timings"][key] for run in runs)
        row["total_ms"] = sum(row[f"{phase}_ms"] for phase in PHASES)
    else:
        for engine in ("quonto-graph", "cb-consequence"):
            samples = [_measure_once(tbox, engine) for _ in range(rounds)]
            assert len({count for _, count in samples}) == 1
            row[f"{engine}_measure_ms"] = statistics.median(ms for ms, _ in samples)
            row[f"{engine}_subsumptions"] = samples[0][1]
    row["peak_rss_mb"] = _rss_mb()
    return row


def _row_in_child(kind: str, profile: str, scale: float, rounds: int) -> dict:
    command = [
        sys.executable,
        __file__,
        "--row",
        json.dumps([kind, profile, scale, rounds]),
    ]
    output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    return json.loads(output.strip().splitlines()[-1])


def plan(smoke: bool) -> list:
    """(kind, profile, scale, rounds) for every row."""
    from repro.corpus import FIGURE1_ORDER

    if smoke:
        return [("phases", name, 0.3, 2) for name in FIGURE1_ORDER] + [
            ("phases", "FMA 2.0", 1.0, 1),
            ("measure", "FMA 2.0", 1.0, 1),
        ]
    rows = [("phases", name, 1.0, 5) for name in FIGURE1_ORDER]
    rows += [("phases", "FMA 2.0", scale, 2) for scale in FMA_SCALES]
    rows.append(("measure", "FMA 2.0", 1.0, 5))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the 11 profiles at scale 0.3 and FMA 2.0 at scale 1 only",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_classify.json"),
        help="where to write the JSON report",
    )
    parser.add_argument("--row", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        kind, profile, scale, rounds = json.loads(args.row)
        print(json.dumps(run_row(kind, profile, scale, rounds)))
        return 0

    entries = []
    for kind, profile, scale, rounds in plan(args.smoke):
        row = _row_in_child(kind, profile, scale, rounds)
        entries.append(row)
        if kind == "phases":
            phases = "  ".join(f"{phase} {row[f'{phase}_ms']:9.2f}" for phase in PHASES)
            print(
                f"  {profile:>14} x{scale:<4g} {row['axioms']:>7} axioms: {phases}"
                f"  ms, peak {row['peak_rss_mb']:.0f} MB",
                flush=True,
            )
        else:
            print(
                f"  {profile:>14} x{scale:<4g} measure: quonto-graph "
                f"{row['quonto-graph_measure_ms']:.2f} ms, cb-consequence "
                f"{row['cb-consequence_measure_ms']:.2f} ms",
                flush=True,
            )
    report = {
        "module": "bench_classify_phases",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "phases": list(PHASES),
        "benchmarks": entries,
    }
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
