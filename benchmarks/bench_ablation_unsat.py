"""Benchmark E4 — ablation of ``computeUnsat`` (Ω_T).

The paper's two-step design computes Φ_T first and adds Ω_T for
soundness and completeness.  This bench measures what the second step
costs on the disjointness-heavy corpus rows (and that it is near-free on
rows without negative inclusions).
"""

from __future__ import annotations

import pytest

from repro.core import GraphClassifier
from repro_bench_util import ROUNDS, WARMUP_ROUNDS, corpus_tbox

ROWS = ["Transportation", "DOLCE", "AEO", "Galen", "Mouse"]


@pytest.mark.parametrize("ontology", ROWS)
@pytest.mark.parametrize("include_unsat", [True, False], ids=["phi+omega", "phi-only"])
def test_unsat_ablation(benchmark, ontology, include_unsat):
    tbox = corpus_tbox(ontology, 1.0)
    classifier = GraphClassifier(include_unsat=include_unsat)
    classification = benchmark.pedantic(
        lambda: classifier.classify(tbox),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=WARMUP_ROUNDS,
    )
    benchmark.extra_info["ontology"] = ontology
    benchmark.extra_info["unsat_predicates"] = len(classification.unsat_ids)
    if not include_unsat:
        assert classification.unsat_ids == frozenset()
