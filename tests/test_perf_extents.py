"""Cross-query extent caching, indexed joins, and cache non-poisoning."""

from __future__ import annotations

import pytest

from repro.dllite import parse_tbox
from repro.dllite.abox import ABox, Individual, RoleAssertion
from repro.dllite.syntax import AtomicRole
from repro.errors import TimeoutExceeded
from repro.obda.evaluation import ABoxExtents
from repro.perf import ClassificationCache
from repro.runtime.budget import Budget
from repro.runtime.fallback import FallbackChain
from repro.testkit.generators import direct_mapping_system

TBOX_TEXT = """
role teaches
Professor isa Teacher
Teacher isa Person
Teacher isa exists teaches
exists teaches isa Teacher
exists teaches^- isa Course
"""


def _campus_system():
    from repro.dllite.abox import ConceptAssertion
    from repro.dllite.syntax import AtomicConcept

    tbox = parse_tbox(TBOX_TEXT)
    abox = ABox()
    for name in ("ada", "bob"):
        abox.add(ConceptAssertion(AtomicConcept("Professor"), Individual(name)))
    abox.add(
        RoleAssertion(AtomicRole("teaches"), Individual("ada"), Individual("logic"))
    )
    return direct_mapping_system(tbox, abox)


def test_workload_pulls_each_predicate_extent_once():
    """S1 regression: two queries, one source pull per predicate."""
    system = _campus_system()
    pulled = []
    original = system.mappings.predicate_extent

    def counting(database, predicate):
        pulled.append(predicate)
        return original(database, predicate)

    system.mappings.predicate_extent = counting
    first = system.certain_answers(
        "q(x) :- Teacher(x)", check_consistency=False
    )
    second = system.certain_answers(
        "q(x) :- Teacher(x), teaches(x, y)", check_consistency=False
    )
    assert first and second
    assert len(pulled) == len(set(pulled)), (
        f"duplicate source pulls across the workload: {sorted(pulled)}"
    )
    assert system.cache_stats()["extents"]["source_pulls"] == len(pulled)


def test_database_mutation_invalidates_extents_and_answers():
    system = _campus_system()
    query = "q(x) :- Teacher(x)"
    before = system.certain_answers(query, check_consistency=False)
    system.database["t_Professor"].insert(("eve",))
    after = system.certain_answers(query, check_consistency=False)
    assert len(after) == len(before) + 1
    assert (Individual("eve"),) in after


def test_indexes_are_reused_across_queries():
    system = _campus_system()
    provider = system.extents()
    first = provider.index("teaches", 2, (0,))
    assert provider.index("teaches", 2, (0,)) is first
    # a different probe shape is a different index
    assert provider.index("teaches", 2, (1,)) is not first
    # data mutation rebuilds
    system.database["t_teaches"].insert(("bob", "compilers"))
    assert provider.index("teaches", 2, (0,)) is not first


def test_explicit_invalidate_drops_extents_and_indexes():
    system = _campus_system()
    provider = system.extents()
    provider.extent("Teacher", 1)
    index = provider.index("teaches", 2, ())
    provider.invalidate()
    assert provider._cache == {}
    assert provider.index("teaches", 2, ()) is not index


# -- non-poisoning -------------------------------------------------------------


def _big_abox_extents(rows: int = 1200) -> ABoxExtents:
    abox = ABox()
    role = AtomicRole("P")
    for i in range(rows):
        abox.add(RoleAssertion(role, Individual(f"a{i}"), Individual(f"b{i}")))
    return ABoxExtents(abox)


def test_budget_abort_during_index_build_installs_nothing():
    provider = _big_abox_extents()
    expired = Budget(0.0, task="index")
    with pytest.raises(TimeoutExceeded):
        provider.index("P", 2, (0,), budget=expired)
    assert ("P", 2, (0,)) not in provider._index_cache
    # the next (funded) build succeeds and is complete
    index = provider.index("P", 2, (0,))
    assert sum(len(rows) for rows in index.values()) == 1200


def test_budget_abort_leaves_answer_cache_empty():
    system = _campus_system()
    query = "q(x) :- Teacher(x), teaches(x, y)"
    with pytest.raises(TimeoutExceeded):
        system.certain_answers(query, check_consistency=False, budget=Budget(0.0))
    assert len(system._answer_cache) == 0
    assert len(system._rewriting_cache) == 0
    answers = system.certain_answers(query, check_consistency=False)
    assert answers == {(Individual("ada"),), (Individual("bob"),)}


def test_fallback_timeout_does_not_poison_classification_cache():
    """S6: a timed-out engine slice leaves the shared cache untouched."""
    from repro.baselines import make_reasoner

    tbox = parse_tbox(TBOX_TEXT)
    cache = ClassificationCache()
    with pytest.raises(TimeoutExceeded):
        cache.classify(tbox, watch=Budget(0.0, task="slice"))
    assert len(cache) == 0

    # the chain itself recovers on a later engine; only the *completed*
    # classification may then enter the cache
    chain = FallbackChain(
        [make_reasoner("quonto-graph"), make_reasoner("quonto-graph")],
        per_engine_budget_s=30.0,
    )
    result = chain.classify_with_report(tbox)
    assert result.classification is not None
    completed = cache.classify(tbox)
    assert len(cache) == 1
    assert cache.classify(tbox) is completed
