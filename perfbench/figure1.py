"""The classify workload: the paper's Figure 1 profiles.

Each op is ``GraphClassifier().classify(tbox)`` followed by the report
``repro classify`` prints (``subsumption_count()`` and the sorted
``unsatisfiable()`` set), on one of the 11 profiles; every round
classifies each profile once, in seeded order.  Each op is checked
against counts recorded once from the memoized tableau baseline in
``classify_reference.json`` by ``record_reference.py``, which first
checks that baseline against the saturation baseline.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from harness import CALL_BUDGET_S, timed_call

SCALE = 1.0
REFERENCE = Path(__file__).with_name("classify_reference.json")


def named_unsatisfiable(nodes):
    """Sorted names of the atomic predicates among *nodes*."""
    from repro.dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole

    atomic = (AtomicConcept, AtomicRole, AtomicAttribute)
    return sorted(str(node) for node in nodes if isinstance(node, atomic))


class Classify:
    """Classify + report on every Figure 1 profile, one round at a time."""

    name = "classify"
    ROUNDS_PER_S = 1.6

    def __init__(self, seed: int):
        self.seed = seed
        self.systems = {}  # no OBDA systems, so no cache counters

    def setup(self) -> None:
        from repro.core.classifier import GraphClassifier
        from repro.corpus.profiles import FIGURE1_ORDER, load_profile

        self.tboxes = [(name, load_profile(name, scale=SCALE)) for name in FIGURE1_ORDER]
        for _, tbox in self.tboxes:  # warm: first classification of each
            GraphClassifier().classify(tbox).subsumption_count()

    def prepare(self) -> None:
        recorded = json.loads(REFERENCE.read_text())
        if recorded["scale"] != SCALE:
            raise RuntimeError(f"{REFERENCE.name} was recorded at another scale")
        self.expected = recorded["profiles"]
        for name, tbox in self.tboxes:
            if self.expected[name]["axioms"] != len(tbox):
                raise RuntimeError(f"profile {name} no longer matches its reference")
        self.rng = random.Random(self.seed)

    def rounds(self):
        while True:
            order = list(self.tboxes)
            self.rng.shuffle(order)
            yield [self._op(name, tbox) for name, tbox in order]

    def _op(self, name, tbox):
        from repro.core.classifier import GraphClassifier
        from repro.runtime import Budget

        expected = self.expected[name]

        def classify_and_report():
            classification = GraphClassifier().classify(
                tbox, watch=Budget(CALL_BUDGET_S, task=f"classify {name}")
            )
            unsat = classification.unsatisfiable()
            sorted(str(node) for node in unsat)
            return classification.subsumption_count(), unsat

        def check(result) -> bool:
            count, unsat = result
            return (
                count == expected["subsumptions"]
                and named_unsatisfiable(unsat) == expected["unsatisfiable_named"]
            )

        return lambda tally: timed_call(
            tally, "classify", "", classify_and_report, check
        )
