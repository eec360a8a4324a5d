"""The repository benchmark: one workload, one closed-loop client.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campus-read --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from ``--seed`` and sets the
systems up ``SETUP_REPEATS`` times (``setup_s`` is the median), then
measures a fixed amount of work: ``--seconds`` times the workload's
``ROUNDS_PER_S`` whole rounds of ops, the rate at which a round ran
when the benchmark was defined (2-vCPU x86 KVM guest).  Every run of a
given ``--seconds`` therefore measures the same mix whatever the speed
of the code, unless it overruns ``OVERRUN`` times its nominal length:
then it stops after the current round, so a slow host or a large
regression cannot run away with the time budget.  Every timed call is
checked against a reference computed by benchmark code outside the
timed region.

Every end-to-end time is normalised to a reference speed: a fixed
pure-Python loop (``harness.reference_loop``) runs before the first op,
after every op and around every set-up, and each op's time is scaled
by the loop's nominal time over its mean time on either side of the op
(``harness.normalise``).  The host shares its cores with other tenants
and its speed swings by 20-40 % between runs; the normalised times keep
the program's cost and drop most of that swing.  The times as measured
are on the detail line under ``raw``.

Set and dict iteration order decides some join and rewrite orders in
the program, so the run re-executes itself with a fixed
``PYTHONHASHSEED`` to make that order the same in every run; and after
set-up it freezes the objects the benchmark holds (``gc.freeze``), so a
full collection during the measured ops walks what the ops allocated,
not the benchmark's inputs and references.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count timed calls, and ``metrics`` holds
the end-to-end metrics (``--trace 0``) or the per-layer ledger of a
traced run (``--trace 1``).  The line before it holds the details:
every per-path and per-op-kind latency that applies to the workload,
calls attempted and failed per path, and, when traced, the self-time
shares per layer and the blocking-path check.

Without the program's sources under ``./src`` the run exits with an
error before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
OVERRUN = 1.5
HASH_SEED = "0"

WORKLOADS = {
    "classify": ("figure1", "Classify"),
    "campus-read": ("campus", "CampusRead"),
    "campus-churn": ("campus", "CampusChurn"),
    "deep-rewrite": ("deep", "DeepRewrite"),
}


def load_program(root: Path) -> None:
    """Put ``root/src`` first on the path and import ``repro`` from it."""
    source = (root / "src").resolve()
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def make_workload(name: str, seed: int):
    import importlib

    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed)


def cache_counters(systems) -> dict:
    """Sums of the program's own counters over every system of the run."""
    totals: dict = {}
    for system in systems.values():
        stats = system.cache_stats()
        for cache in ("answers", "rewriting", "unfolding"):
            for key in ("hits", "misses"):
                name = f"{cache}.{key}"
                totals[name] = totals.get(name, 0) + stats[cache][key]
        totals["source_pulls"] = totals.get("source_pulls", 0) + stats.get(
            "extents", {}
        ).get("source_pulls", 0)
        totals["prune_retries"] = (
            totals.get("prune_retries", 0) + stats["planner"]["prune_retries"]
        )
    return totals


def counter_deltas(before: dict, after: dict, queries: int) -> dict:
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    result = {
        "source_pulls_per_query": delta.get("source_pulls", 0) / queries if queries else 0.0,
        "prune_retries": float(delta.get("prune_retries", 0)),
    }
    for cache in ("answers", "rewriting", "unfolding"):
        hits = delta.get(f"{cache}.hits", 0)
        lookups = hits + delta.get(f"{cache}.misses", 0)
        result[f"{cache}_hit_rate"] = hits / lookups if lookups else 0.0
    return result


def measure(workload, seconds: float, tally) -> int:
    """Run the fixed number of rounds *seconds* stands for; returns how
    many ran (fewer only if the run overran or a query pool ran dry).

    The reference loop runs before the first op and after every op, so
    each op is normalised by the loop times on either side of it."""
    from harness import normalise, reference_loop

    ledger = tally.ledger
    target = max(1, round(seconds * workload.ROUNDS_PER_S))
    deadline = time.perf_counter() + OVERRUN * seconds
    done = 0
    tally.reference_ms.append(reference_loop())
    for ops in workload.rounds():
        for op in ops:
            root = ledger.begin_op() if ledger is not None else None
            ms = op(tally)
            if root is not None:
                ledger.close(root)
            tally.reference_ms.append(reference_loop())
            tally.op_ms.append(ms)
            tally.op_norm_ms.append(normalise(ms, *tally.reference_ms[-2:]))
        done += 1
        if done >= target or time.perf_counter() >= deadline:
            break
    return done


def timed_setup(workload) -> tuple:
    """Set the workload up once; returns (seconds, seconds normalised)."""
    from harness import normalise, reference_loop

    gc.collect()
    before = reference_loop()
    started = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - started
    return seconds, normalise(seconds, before, reference_loop())


def e2e_metrics(op_ms, setup_s: float) -> dict:
    """The end-to-end metrics over *op_ms*, the ops' normalised times
    (``harness.normalise``), or, for the detail line, their raw times."""
    from harness import quantile

    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (1000.0 * len(op_ms) / sum(op_ms), "1/s"),
        "op_p50_ms": (quantile(op_ms, 0.5), "ms"),
        "op_p90_ms": (quantile(op_ms, 0.9), "ms"),
    }


def details(tally) -> dict:
    """The per-path and per-kind breakdown, for the workloads it applies to."""
    from harness import PATH_METRIC, latency_summary

    out: dict = {}
    groups: dict = {}
    for sample in tally.samples:
        key = PATH_METRIC[sample.path] if sample.kind == "query" else sample.kind
        groups.setdefault(key, []).append(sample)
    query_ms = 0.0
    queries = 0
    for key, samples in sorted(groups.items()):
        summary = latency_summary([s.ms for s in samples])
        out[f"{key}_p50_ms"] = summary["p50"]
        out[f"{key}_p90_ms"] = summary["p90"]
        out[f"{key}_samples"] = summary["n"]
        out[f"{key}_failed"] = sum(1 for s in samples if not s.ok)
        if samples[0].kind == "query":
            query_ms += sum(s.ms for s in samples)
            queries += len(samples)
    if queries:
        out["queries_per_s"] = 1000.0 * queries / query_ms
    shapes: dict = {}
    for sample in tally.samples:
        if sample.shape:
            key = f"{PATH_METRIC[sample.path]}.{sample.shape}_p50_ms"
            shapes.setdefault(key, []).append(sample.ms)
    out["per_shape"] = {key: statistics.median(v) for key, v in sorted(shapes.items())}
    out["ops"] = len(tally.op_ms)
    out["errors"] = tally.errors
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        environment = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], environment)

    load_program(Path.cwd())
    sys.path.insert(0, str(HERE))
    from harness import Tally

    workload = make_workload(args.workload, args.seed)
    setup_times = [timed_setup(workload) for _ in range(SETUP_REPEATS)]
    workload.prepare()
    gc.collect()
    gc.freeze()

    tally = Tally()
    if args.trace:
        from ledger import Ledger

        tally.ledger = Ledger()
        tally.ledger.install()
    before = cache_counters(workload.systems)
    started = time.perf_counter()
    try:
        rounds = measure(workload, args.seconds, tally)
    finally:
        if tally.ledger is not None:
            tally.ledger.uninstall()
    after = cache_counters(workload.systems)

    failed = sum(1 for sample in tally.samples if not sample.ok)
    e2e = e2e_metrics(tally.op_norm_ms, statistics.median(n for _, n in setup_times))
    raw = e2e_metrics(tally.op_ms, statistics.median(s for s, _ in setup_times))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "rounds": rounds,
        "wall_s": time.perf_counter() - started,
        "setup_runs_s": [seconds for seconds, _ in setup_times],
        "e2e": {name: value for name, (value, _) in e2e.items()},
        "raw": {
            **{name: value for name, (value, _) in raw.items()},
            "reference_loop_ms": statistics.median(tally.reference_ms),
        },
        **details(tally),
    }
    if args.trace:
        import ledger as ledger_module

        queries = sum(1 for s in tally.samples if s.kind == "query")
        deltas = counter_deltas(before, after, queries)
        spans = tally.ledger.spans
        layers = ledger_module.per_layer_metrics(spans, deltas)
        detail["self_time_shares"] = ledger_module.self_time_shares(spans)
        detail["blocking_path"] = ledger_module.blocking_path_check(spans, tally.call_ms)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(tally.samples),
                "attempted": len(tally.samples),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(".ms"):
        return "ms"
    if metric.endswith(("_ratio", "hit_rate", "qerror", "_per_answer")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
