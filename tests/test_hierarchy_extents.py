"""The shared H-complete extents of the Presto route.

One :class:`~repro.obda.evaluation.HierarchyExtents` per classification
serves every Presto query: each ``p*`` is materialised once and then
grows with the data, a TBox change swaps in a new provider, and the
rules it reads come from the same per-classification memo as phase 2 of
:func:`~repro.obda.rewriting.presto.presto_rewrite`.  The tests count
materialisations (``HierarchyExtents.builds``) and catch-ups
(``HierarchyExtents.extensions``); none of them times anything.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import classify
from repro.dllite import parse_tbox
from repro.dllite.abox import ABox, ConceptAssertion, Individual, RoleAssertion
from repro.dllite.axioms import ConceptInclusion, RoleInclusion
from repro.dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from repro.dllite.tbox import TBox
from repro.obda import parse_query, presto_rewrite
from repro.obda.evaluation import ABoxExtents, HierarchyExtents
from repro.obda.queries import Atom, ConjunctiveQuery, UnionQuery
from repro.obda.rewriting.perfectref import perfect_ref
from repro.obda.rewriting.presto import (
    DatalogRewriting,
    _subsumee_rule,
    _witness_tbox,
)
from repro.testkit import FuzzProfile, random_profile_tbox, random_tiny_tbox
from repro.testkit.generators import direct_mapping_system, random_queries

TBOX_TEXT = """
role teaches
Professor isa Teacher
Teacher isa Person
Teacher isa exists teaches
exists teaches isa Teacher
exists teaches^- isa Course
"""

TEACHER = ("Teacher*", 1)


def _campus_system():
    """A mapped system; ``Lecturer`` has a table but is not in the TBox."""
    abox = ABox()
    for name in ("ada", "bob"):
        abox.add(ConceptAssertion(AtomicConcept("Professor"), Individual(name)))
    abox.add(ConceptAssertion(AtomicConcept("Lecturer"), Individual("lee")))
    abox.add(
        RoleAssertion(AtomicRole("teaches"), Individual("ada"), Individual("logic"))
    )
    return direct_mapping_system(parse_tbox(TBOX_TEXT), abox)


def _presto(system, text):
    return system.certain_answers(text, method="presto", check_consistency=False)


def _names(answers):
    return {str(row[0]) for row in answers}


def test_distinct_queries_materialise_teacher_once():
    system = _campus_system()
    queries = [
        "q(x) :- Teacher(x)",
        "q(x) :- Teacher(x), teaches(x, y)",
        "q(x, y) :- Teacher(x), teaches(x, y)",
        "q(x) :- Teacher(x), teaches(x, 'logic')",
        "q(x) :- Teacher(x), Person(x)",
    ]
    for text in queries:
        rewriting = system.rewrite(text, method="presto")
        assert any(atom.predicate == "Teacher*" for cq in rewriting.ucq for atom in cq.atoms)
        _presto(system, text)
    provider = system.hierarchy_extents()
    assert provider.builds[TEACHER] == 1
    assert system.hierarchy_extents() is provider


def test_insert_rebuilds_once_and_shows_new_rows():
    system = _campus_system()
    assert _names(_presto(system, "q(x) :- Teacher(x)")) == {"ada", "bob"}
    provider = system.hierarchy_extents()
    system.database.table("t_Professor").insert_many([("cy",)])
    assert _names(_presto(system, "q(x) :- Teacher(x), Person(x)")) == {"ada", "bob", "cy"}
    _presto(system, "q(x) :- Person(x), Teacher(x), teaches(x, y)")
    assert system.hierarchy_extents() is provider
    # built once, then grown by the inserted row instead of rebuilt
    assert provider.builds[TEACHER] == 1
    assert provider.extensions[TEACHER] == 1


def test_tbox_change_swaps_in_a_new_provider():
    system = _campus_system()
    assert _names(_presto(system, "q(x) :- Teacher(x)")) == {"ada", "bob"}
    before = system.hierarchy_extents()
    system.tbox.add(ConceptInclusion(AtomicConcept("Lecturer"), AtomicConcept("Teacher")))
    assert _names(_presto(system, "q(x) :- Teacher(x), Person(x)")) == {"ada", "bob", "lee"}
    after = system.hierarchy_extents()
    assert after is not before
    assert after.classification is system.classification
    assert after.builds[TEACHER] == 1


def test_concept_and_role_sharing_a_name_keep_their_own_extents():
    x_concept, x_role = AtomicConcept("X"), AtomicRole("X")
    tbox = TBox(
        [
            ConceptInclusion(AtomicConcept("A"), x_concept),
            RoleInclusion(AtomicRole("R"), x_role),
        ]
    )
    assert x_concept in tbox.signature and x_role in tbox.signature
    a, b, c = Individual("a"), Individual("b"), Individual("c")
    abox = ABox(
        [
            ConceptAssertion(AtomicConcept("A"), a),
            ConceptAssertion(x_concept, b),
            RoleAssertion(AtomicRole("R"), a, b),
            RoleAssertion(x_role, b, c),
        ]
    )
    provider = HierarchyExtents(classify(tbox), ABoxExtents(abox))
    assert provider.extent("X*", 1) == {(a,), (b,)}
    assert provider.extent("X*", 2) == {(a, b), (b, c)}
    assert provider.builds == {("X*", 1): 1, ("X*", 2): 1}
    # the indexes on both are distinct too (same name, same key positions)
    assert provider.index("X*", 1, ()) != provider.index("X*", 2, ())
    rewriting = presto_rewrite(parse_query("q(x, y) :- X(x), X(x, y)"), tbox)
    heads = {(rule.head.predicate, rule.head.arity) for rule in rewriting.rules}
    assert heads == {("X*", 1), ("X*", 2)}


# -- byte-identity of the memoised phase 2 -----------------------------------------


def _oracle_rewrite(query, tbox, classification) -> DatalogRewriting:
    """Presto with phase 2 read straight off ``classification.subsumees``."""
    expanded = perfect_ref(query, _witness_tbox(classification), minimize=True)
    needed = {}
    disjuncts = []
    for disjunct in expanded:
        atoms = []
        for atom in disjunct.atoms:
            node, of_role = None, False
            if atom.arity == 1:
                if AtomicConcept(atom.predicate) in tbox.signature.concepts:
                    node = AtomicConcept(atom.predicate)
            elif AtomicRole(atom.predicate) in tbox.signature.roles:
                node, of_role = AtomicRole(atom.predicate), True
            elif AtomicAttribute(atom.predicate) in tbox.signature.attributes:
                node = AtomicAttribute(atom.predicate)
            if node is None or node not in classification.graph:
                atoms.append(atom)
                continue
            aux = f"{atom.predicate}*"
            needed.setdefault((aux, atom.arity), (node, of_role))
            atoms.append(Atom(aux, atom.args))
        disjuncts.append(ConjunctiveQuery(disjunct.answer_vars, atoms, disjunct.name))
    rules = []
    for (aux, arity), (node, of_role) in sorted(needed.items()):
        for subsumee in sorted(classification.subsumees(node), key=str):
            rule = _subsumee_rule(aux, arity, subsumee, of_role)
            if rule is not None:
                rules.append(rule)
    return DatalogRewriting(UnionQuery(disjuncts, query.name), rules)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_memoised_rules_match_direct_subsumee_oracle(seed, tiny):
    rng = random.Random(seed)
    if tiny:
        tbox = random_tiny_tbox(rng, FuzzProfile(tiny_axioms=10))
    else:
        tbox = random_profile_tbox(rng, FuzzProfile(max_concepts=30))
    classification = classify(tbox)
    for query in random_queries(rng, tbox):
        for _ in range(2):  # the second call reads a warm memo
            memoised = presto_rewrite(query, tbox, classification)
            oracle = _oracle_rewrite(query, tbox, classification)
            assert str(memoised) == str(oracle)
            assert memoised.size == oracle.size
