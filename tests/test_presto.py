"""Unit tests for the Presto-style datalog rewriter."""

import pytest

from repro.core import classify
from repro.dllite import ABox, parse_tbox
from repro.dllite.abox import ConceptAssertion, Individual, RoleAssertion
from repro.dllite.syntax import AtomicConcept, AtomicRole
from repro.obda import (
    ABoxExtents,
    HierarchyExtents,
    evaluate_ucq,
    parse_query,
    perfect_ref,
    presto_rewrite,
)


def test_hierarchy_goes_to_rules_not_disjuncts():
    tbox = parse_tbox("\n".join(f"S{i} isa Top" for i in range(20)))
    query = parse_query("q(x) :- Top(x)")
    datalog = presto_rewrite(query, tbox)
    ucq = perfect_ref(query, tbox)
    # PerfectRef: 21 disjuncts; Presto: 1 disjunct + 21 flat rules.
    assert len(ucq) == 21
    assert len(datalog.ucq) == 1
    assert len(datalog.rules) == 21
    assert datalog.ucq.disjuncts[0].atoms[0].predicate == "Top*"


def test_rules_cover_existential_subsumees():
    tbox = parse_tbox("role teaches\nexists teaches isa Teacher")
    datalog = presto_rewrite(parse_query("q(x) :- Teacher(x)"), tbox)
    rule_bodies = {str(rule.body[0]) for rule in datalog.rules}
    assert "teaches(x, y)" in rule_bodies
    assert "Teacher(x)" in rule_bodies


def test_size_metric_counts_rules_and_query():
    tbox = parse_tbox("A isa B")
    datalog = presto_rewrite(parse_query("q(x) :- B(x)"), tbox)
    assert datalog.size == sum(1 + len(r.body) for r in datalog.rules) + 1


def test_unknown_predicates_stay_base():
    tbox = parse_tbox("A isa B")
    datalog = presto_rewrite(parse_query("q(x) :- Mystery(x)"), tbox)
    assert datalog.rules == []
    assert datalog.ucq.disjuncts[0].atoms[0].predicate == "Mystery"


def make_abox():
    abox = ABox()
    ada, logic = Individual("ada"), Individual("logic")
    abox.add(ConceptAssertion(AtomicConcept("Professor"), ada))
    abox.add(RoleAssertion(AtomicRole("teaches"), ada, logic))
    abox.add(ConceptAssertion(AtomicConcept("Student"), Individual("sam")))
    return abox


@pytest.mark.parametrize(
    "query_text",
    [
        "q(x) :- Person(x)",
        "q(x) :- Teacher(x)",
        "q(y) :- Course(y)",
        "q(x) :- Teacher(x), teaches(x, y)",
        "q(x, y) :- teaches(x, y)",
        "q(x) :- teaches(x, y), Course(y)",
    ],
)
def test_presto_equals_perfectref_on_university(query_text):
    tbox = parse_tbox(
        """
        role teaches
        Professor isa Teacher
        Teacher isa Person
        Student isa Person
        Teacher isa exists teaches
        exists teaches isa Teacher
        exists teaches^- isa Course
        """
    )
    abox = make_abox()
    query = parse_query(query_text)
    via_perfectref = evaluate_ucq(perfect_ref(query, tbox), ABoxExtents(abox))
    datalog = presto_rewrite(query, tbox)
    via_presto = evaluate_ucq(
        datalog.ucq, HierarchyExtents(classify(tbox), ABoxExtents(abox))
    )
    assert via_presto == via_perfectref


def test_as_program_matches_flat_evaluation():
    """The general semi-naive engine and the flat fast path agree."""
    from repro.obda.datalog import ProgramExtents

    tbox = parse_tbox(
        """
        role teaches
        Professor isa Teacher
        exists teaches isa Teacher
        exists teaches^- isa Course
        """
    )
    abox = make_abox()
    query = parse_query("q(x) :- Teacher(x)")
    datalog = presto_rewrite(query, tbox)
    base = ABoxExtents(abox)
    flat = evaluate_ucq(datalog.ucq, HierarchyExtents(classify(tbox), base))
    general = evaluate_ucq(datalog.ucq, ProgramExtents(datalog.as_program(), base))
    assert flat == general and flat


def test_presto_with_attributes():
    tbox = parse_tbox(
        """
        attribute salary, wage
        wage isa salary
        Employee isa domain(salary)
        """
    )
    from repro.dllite.abox import AttributeAssertion
    from repro.dllite.syntax import AtomicAttribute

    abox = ABox(
        [AttributeAssertion(AtomicAttribute("wage"), Individual("ada"), 10)]
    )
    query = parse_query("q(x, v) :- salary(x, v)")
    datalog = presto_rewrite(query, tbox)
    answers = evaluate_ucq(
        datalog.ucq, HierarchyExtents(classify(tbox), ABoxExtents(abox))
    )
    reference = evaluate_ucq(perfect_ref(query, tbox), ABoxExtents(abox))
    assert answers == reference == {(Individual("ada"), 10)}
