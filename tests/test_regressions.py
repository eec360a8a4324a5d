"""Replay the minimized regression corpus through the full oracle battery.

Every ``.dl`` file under ``tests/regressions/`` is an ontology that either
once made two engines disagree (written by the conformance shrinker via
``repro conformance --regressions tests/regressions``) or pins a corner
of the logic that is easy to lose.  Each file is replayed through the
differential oracle, the metamorphic battery and — when the signature is
small enough — the brute-force finite-model soundness check, so a bug
fixed once can never silently return.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.dllite import parse_tbox
from repro.testkit import (
    diff_engines,
    run_metamorphic_checks,
    semantics_soundness,
)

from tests.test_cell_identity import route_answers

CORPUS = Path(__file__).parent / "regressions"
FIXTURES = sorted(CORPUS.glob("*.dl"))

#: Hand-checked expected unsatisfiable predicates per fixture (names).
#: Fixtures written by the shrinker need not appear here; the diff tests
#: still cover them.
EXPECTED_UNSAT = {
    "attribute-domain-unsat": {"A", "U"},
    "inverse-role-disjointness": {"P", "Src"},
    "qualified-existential-cycle": set(),
    "unsat-propagation-chain": {"A", "B", "C", "P"},
}


def _load(path: Path):
    return parse_tbox(path.read_text(), name=path.stem)


def test_corpus_is_not_empty():
    assert FIXTURES, "the regression corpus must contain at least one pin"


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_engines_agree_on_reproducer(path):
    assert diff_engines(_load(path)) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_expected_unsat_predicates(path):
    expected = EXPECTED_UNSAT.get(path.stem)
    if expected is None:
        pytest.skip("no hand-checked expectation for this reproducer")
    from repro.baselines import make_reasoner

    result = make_reasoner("quonto-graph").classify_named(_load(path))
    assert {node.name for node in result.unsatisfiable} == expected


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_metamorphic_invariants_hold_on_reproducer(path):
    tbox = _load(path)
    rng = random.Random(f"regression:{path.stem}")
    assert run_metamorphic_checks(tbox, rng) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_classification_is_sound_on_reproducer(path):
    # silently skips (returns []) for signatures too large to enumerate
    assert semantics_soundness(_load(path)) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_reproducer_round_trips_through_serialization(path):
    from repro.dllite import serialize_tbox

    tbox = _load(path)
    assert set(parse_tbox(serialize_tbox(tbox))) == set(tbox)


# ---------------------------------------------------------------------------
# planner replays: every fixture through the planner oracle, plus the
# three pinned scenarios the planner-*.dl fixtures exist for


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_planner_agrees_on_reproducer(path):
    """Planned perfectref-sql equals the naive evaluator on seeded data."""
    from repro.testkit import diff_planner
    from repro.testkit.generators import random_abox, random_queries

    tbox = _load(path)
    rng = random.Random(f"planner-regression:{path.stem}")
    abox = random_abox(rng, tbox)
    queries = random_queries(rng, tbox)
    assert diff_planner(tbox, abox, queries) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_backend_agrees_on_reproducer(path):
    """The sqlite pushdown equals both in-memory SQL paths on seeded data."""
    from repro.testkit import diff_backend
    from repro.testkit.generators import random_abox, random_queries

    tbox = _load(path)
    rng = random.Random(f"backend-regression:{path.stem}")
    abox = random_abox(rng, tbox)
    queries = random_queries(rng, tbox)
    assert diff_backend(tbox, abox, queries) == []


def _mapped_system(tbox, tables):
    """An OBDASystem over hand-built unary tables (name -> rows)."""
    from repro.dllite import AtomicConcept
    from repro.obda import Database, MappingAssertion, MappingCollection, TargetAtom
    from repro.obda.mapping import IriTemplate
    from repro.obda.system import OBDASystem

    database = Database("planner-regression")
    mappings = MappingCollection()
    for name, rows in sorted(tables.items()):
        database.create_table(f"t_{name}", ["s"], sorted(rows))
        mappings.add(
            MappingAssertion(
                f"SELECT s FROM t_{name}",
                [TargetAtom(AtomicConcept(name), (IriTemplate("{s}"),))],
            )
        )
    return OBDASystem(tbox, mappings=mappings, database=database)


def _answers(system, text, method="perfectref-sql"):
    from repro.obda.cq_parser import parse_query

    return system.certain_answers(parse_query(text), method=method)


def test_planner_regression_empty_table():
    tbox = _load(CORPUS / "planner-empty-table.dl")
    system = _mapped_system(
        tbox, {"Professor": [], "Teacher": [("t1",), ("t2",)]}
    )
    naive = _mapped_system(
        tbox, {"Professor": [], "Teacher": [("t1",), ("t2",)]}
    )
    naive.use_planner = False
    assert _answers(system, "q(x) :- Teacher(x)") == _answers(
        naive, "q(x) :- Teacher(x)"
    )
    assert len(_answers(system, "q(x) :- Teacher(x)")) == 2
    # boolean query over the empty extent: no rows, so no () answer
    assert _answers(system, "q() :- Professor(x)") == set()
    assert _answers(naive, "q() :- Professor(x)") == set()


def test_planner_regression_cross_product_only():
    tbox = _load(CORPUS / "planner-cross-product.dl")
    tables = {"A": [("a1",), ("a2",)], "B": [("b1",), ("b2",), ("b3",)]}
    system = _mapped_system(tbox, tables)
    naive = _mapped_system(tbox, tables)
    naive.use_planner = False
    query = "q(x, y) :- A(x), B(y)"
    planned = _answers(system, query)
    assert planned == _answers(naive, query)
    assert len(planned) == 6  # honest cross product, exact column order


def test_planner_regression_all_redundant_disjuncts_pruned():
    tbox = _load(CORPUS / "planner-constraint-prune.dl")
    shared = [("p1",), ("p2",), ("p3",)]
    tables = {
        "Professor": shared,
        "Lecturer": shared[:1],
        "Teacher": shared + [("t9",)],
    }
    system = _mapped_system(tbox, tables)
    naive = _mapped_system(tbox, tables)
    naive.use_planner = False
    query = "q(x) :- Teacher(x)"
    assert _answers(system, query) == _answers(naive, query)
    report = system.last_plan_report()
    pruning = report["constraint_pruning"]
    # rewriting yields Teacher ∨ Professor ∨ Lecturer; both specializations
    # are extensionally contained in Teacher, so only one disjunct survives
    assert pruning["before"] == 3
    assert pruning["after"] == 1


def _names(answers):
    return {tuple(str(value) for value in answer) for answer in answers}


def test_backend_regression_mixed_type_keys():
    """The pinned planner-sqlite-mixed-keys scenario, replayed explicitly.

    Mixed-type cells (1, "1", 1.0, True, None, 2, 2.0) join, select and
    deduplicate by their string form on every route, so all five agree
    with KB mode over the virtual ABox the mappings generate.
    """
    tbox = _load(CORPUS / "planner-sqlite-mixed-keys.dl")
    staff = [(1, "prof"), ("1", "lect"), (1.0, "prof"), (True, "lect"),
             (None, "prof"), (2, "prof")]
    teaching = [(1, "logic"), ("1", "sets"), (2.0, "compilers")]
    queries = (
        "q(x) :- Teacher(x)",
        "q(x, y) :- teaches(x, y)",
        "q(y) :- Professor(x), teaches(x, y)",
        "q(x) :- Professor(x), teaches(x, c)",
        "q(x) :- Professor(x), Lecturer(x)",
        "q() :- Lecturer(x)",
    )
    expected, outcomes = route_answers(tbox, staff, teaching, queries)
    for label, answers in outcomes.items():
        assert answers == expected, label
    # 1 and "1" are one cell (person/1); 1.0, True, None and 2.0 are not
    # equal to it, though 1 == 1.0 == True and 2 == 2.0 in Python
    assert _names(expected["q(x) :- Teacher(x)"]) == {
        ("person/1",), ("person/1.0",), ("person/True",), ("person/None",),
        ("person/2",), ("person/2.0",),
    }
    assert _names(expected["q(x) :- Professor(x), teaches(x, c)"]) == {
        ("person/1",)
    }
    assert _names(expected["q(y) :- Professor(x), teaches(x, y)"]) == {
        ("course/logic",), ("course/sets",)
    }
    assert _names(expected["q(x) :- Professor(x), Lecturer(x)"]) == {
        ("person/1",)
    }


def test_perfectref_regression_reduce_merges_duplicate_atoms():
    """The perfectref-reduce-duplicate-atoms scenario on every route.

    Lecturer 2 teaches nothing on record, yet ``x = y = 2`` with the
    course ``Teacher isa exists teaches`` guarantees is an answer.
    """
    tbox = _load(CORPUS / "perfectref-reduce-duplicate-atoms.dl")
    query = "q(y) :- Lecturer(x), teaches(x, c), teaches(y, c), Lecturer(y)"
    expected, outcomes = route_answers(
        tbox,
        [(1, "lect"), (2, "lect"), (3, "prof")],
        [(1, "course1"), (3, "course1")],
        (query,),
    )
    assert _names(expected[query]) == {("person/1",), ("person/2",)}
    for label, answers in outcomes.items():
        assert answers == expected, label
