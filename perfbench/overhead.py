"""Tracing overhead: each workload run untraced, then traced, same seed.

The traced run prints its own end-to-end metrics on its detail line,
so the difference per metric is what the ledger's wrappers cost.  The
traced run also reports the blocking-path check (self times along every
timed call add up to the call's span, and the span matches the latency
the workload measured) and the self-time share of each layer.  Run from
the repository root::

    python3 perfbench/overhead.py --seconds 20 --seed 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def run(workload: str, seed: int, seconds: float, trace: int):
    command = [
        sys.executable,
        str(RUN),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    lines = subprocess.run(
        command, check=True, capture_output=True, text=True, timeout=600
    ).stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    from run import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    report = {}
    for workload in args.workload or list(WORKLOADS):
        plain, plain_result = run(workload, args.seed, args.seconds, 0)
        traced, traced_result = run(workload, args.seed, args.seconds, 1)
        report[workload] = {
            "correct": plain_result["correct"] and traced_result["correct"],
            "overhead": {
                name: {
                    "untraced": plain["e2e"][name],
                    "traced": traced["e2e"][name],
                    "traced_minus_untraced": traced["e2e"][name] - plain["e2e"][name],
                }
                for name in plain["e2e"]
            },
            "blocking_path": traced["blocking_path"],
            "self_time_shares": traced["self_time_shares"],
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(RUN.parent))
    sys.exit(main())
