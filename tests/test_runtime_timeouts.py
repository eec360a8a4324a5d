"""Timeout-path coverage for every classification engine.

Two properties, asserted per engine in the registry:

1. **Prompt abort** — under a tiny budget on an ontology the engine
   cannot possibly finish, it raises :class:`TimeoutExceeded` within a
   small tolerance (no runaway loops between budget polls).
2. **Never a silent partial result** — under a generous budget the
   engine returns *exactly* what it returns unbudgeted; a budget either
   aborts with an exception or has no effect on the answer.

The (profile, scale) pairs are calibrated so the workload saturates the
budget for that engine while loading stays cheap.
"""

import time

import pytest

from repro.baselines import REASONER_FACTORIES, make_reasoner
from repro.corpus import load_profile
from repro.errors import TimeoutExceeded
from repro.runtime import Budget

TINY_BUDGET_S = 0.01
#: Generous CI tolerance on abort latency (measured worst case: ~0.09s).
ABORT_TOLERANCE_S = 1.5

#: Per-engine workloads large enough that 10ms is never sufficient.
ABORT_CASES = [
    # The graph classifier's bookkeeping is linear: FMA 3.2.1 at scale 1
    # classifies in about 15ms, too close to the budget to rely on.
    ("quonto-graph", "FMA 2.0", 1.0),
    ("cb-consequence", "FMA 3.2.1", 1.0),
    ("saturation", "Galen", 0.1),
    ("tableau-pairwise", "Galen", 0.4),
    ("tableau-memoized", "Galen", 0.4),
    ("tableau-dense", "Galen", 0.4),
    ("fallback-chain", "Galen", 0.4),
]


def test_every_registered_engine_has_an_abort_case():
    assert {engine for engine, _, _ in ABORT_CASES} == set(REASONER_FACTORIES)


@pytest.mark.parametrize("engine,profile,scale", ABORT_CASES)
def test_tiny_budget_aborts_promptly(engine, profile, scale):
    tbox = load_profile(profile, scale=scale)
    reasoner = make_reasoner(engine)
    watch = Budget(TINY_BUDGET_S, task=f"{engine} on {profile}")
    started = time.monotonic()
    with pytest.raises(TimeoutExceeded) as info:
        reasoner.classify_named(tbox, watch=watch)
    elapsed = time.monotonic() - started
    assert elapsed < ABORT_TOLERANCE_S, (
        f"{engine} took {elapsed:.2f}s to notice a {TINY_BUDGET_S}s budget"
    )
    assert info.value.budget_s == TINY_BUDGET_S
    assert info.value.task  # the error names the overrunning task


@pytest.fixture(scope="module")
def mouse():
    # Small enough that every engine finishes unbudgeted in ~0.1s.
    return load_profile("Mouse", scale=0.3)


@pytest.mark.parametrize("engine", sorted(REASONER_FACTORIES))
def test_generous_budget_never_changes_the_answer(engine, mouse):
    import warnings

    reasoner = make_reasoner(engine)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fallback chains may flag degraded
        unbudgeted = reasoner.classify_named(mouse, watch=None)
        budgeted = make_reasoner(engine).classify_named(
            mouse, watch=Budget(60.0, task=f"{engine} on mouse")
        )
    assert budgeted.agrees_with(unbudgeted)
    assert len(budgeted) > 0
