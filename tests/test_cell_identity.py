"""One cell equality on every answer path.

Two source cells are equal iff their string forms are — the identity
the IRI templates already give individuals (``person/{id}`` names
``person/1`` for the cells ``1`` and ``"1"``, but ``person/1.0`` for
``1.0``).  Certain answers are defined over the virtual ABox the
mappings generate, so every route must agree with knowledge-base mode
over ``mappings.materialize(db)``.  The property test draws mixed-type
cells and small CQs (the pinned mixed-key scenario replays in
``tests/test_regressions.py``); the two deterministic tests pin the
cliffs the old
dual-key equality caused: a constant probe that scanned a whole extent
index, and a pushed self-join SQLite could only plan as MULTI-INDEX OR.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.dllite import ABox, AtomicConcept, AtomicRole, Individual, RoleAssertion
from repro.dllite.parser import parse_tbox
from repro.obda import Database, MappingAssertion, MappingCollection, TargetAtom
from repro.obda.cq_parser import parse_query
from repro.obda.evaluation import ABoxExtents, evaluate_cq
from repro.obda.mapping import IriTemplate
from repro.obda.queries import Atom, ConjunctiveQuery, Constant, UnionQuery, Variable
from repro.obda.rewriting.unfolding import unfold
from repro.obda.system import OBDASystem
from repro.perf import ClassificationCache

TBOX = parse_tbox(
    """
    role teaches
    Professor isa Teacher
    Lecturer isa Teacher
    exists teaches isa Teacher
    """
)

CELLS = [1, "1", 1.0, True, None, 2, "2.0"]

#: label -> (OBDASystem keyword arguments, method)
ROUTES = {
    "perfectref": ({}, "perfectref"),
    "presto": ({}, "presto"),
    "planned": ({"use_planner": True}, "perfectref-sql"),
    "naive": ({"use_planner": False}, "perfectref-sql"),
    "sqlite": ({"backend": "sqlite"}, "perfectref-sqlite"),
}


def _campus(staff, teaching):
    database = Database("cells")
    database.create_table("staff", ["id", "role"], list(staff))
    database.create_table("teaching", ["sid", "course"], list(teaching))
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (IriTemplate("person/{id}"),))],
            ),
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'lect'",
                [TargetAtom(AtomicConcept("Lecturer"), (IriTemplate("person/{id}"),))],
            ),
            MappingAssertion(
                "SELECT sid, course FROM teaching",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (IriTemplate("person/{sid}"), IriTemplate("course/{course}")),
                    )
                ],
            ),
        ]
    )
    return database, mappings


def route_answers(tbox, staff, teaching, queries, cache=None):
    """KB-mode answers over ``mappings.materialize(db)`` and every
    route's answers, each a dict from query to answer set."""
    database, mappings = _campus(staff, teaching)
    kb = OBDASystem(tbox, abox=mappings.materialize(database), classification_cache=cache)
    expected = {query: kb.certain_answers(query, method="perfectref") for query in queries}
    got = {}
    for label, (options, method) in ROUTES.items():
        system = OBDASystem(
            tbox, mappings, database, classification_cache=cache, **options
        )
        got[label] = {
            query: system.certain_answers(query, method=method) for query in queries
        }
    return expected, got


# -- property: every route equals KB mode over the virtual ABox ---------------


def _terms(variables, prefix):
    """A term for one argument position: a variable three times in four
    (so most queries join), else a constant from the same IRI space."""
    constants = [Constant(f"{prefix}/{cell}") for cell in CELLS]
    return st.integers(0, 3).flatmap(
        lambda draw: st.sampled_from(constants if draw == 0 else variables)
    )


_people = _terms([Variable("x"), Variable("y")], "person")
_courses = _terms([Variable("c"), Variable("d")], "course")
_atoms = st.one_of(
    st.builds(
        lambda name, term: Atom(name, (term,)),
        st.sampled_from(["Professor", "Lecturer", "Teacher"]),
        _people,
    ),
    st.builds(lambda s, o: Atom("teaches", (s, o)), _people, _courses),
)


@st.composite
def _queries(draw):
    atoms = draw(st.lists(_atoms, min_size=1, max_size=3))
    variables = sorted(
        {term for atom in atoms for term in atom.args if isinstance(term, Variable)},
        key=lambda variable: variable.name,
    )
    head = draw(st.integers(0, min(2, len(variables))))
    return UnionQuery([ConjunctiveQuery(tuple(variables[:head]), atoms)])


_cells = st.sampled_from(CELLS)
_staff = st.lists(
    st.tuples(_cells, st.sampled_from(["prof", "lect"])), min_size=2, max_size=8
)
_teaching = st.lists(st.tuples(_cells, _cells), min_size=2, max_size=8)
_CACHE = ClassificationCache()


@given(_staff, _teaching, _queries())
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_route_equals_kb_mode_over_the_virtual_abox(staff, teaching, query):
    expected, got = route_answers(TBOX, staff, teaching, [query], _CACHE)
    for label, answers in got.items():
        assert answers == expected, (label, str(query))


# -- cliff 1: a constant probe visits one bucket ------------------------------


class _ProbeOnlyIndex(dict):
    """An extent index that counts bucket lookups and forbids scans."""

    def __init__(self, buckets):
        super().__init__(buckets)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def _scan(self, *args, **kwargs):
        raise AssertionError("the constant probe scanned the whole index")

    values = items = keys = __iter__ = _scan


class _RecordingExtents(ABoxExtents):
    def __init__(self, abox):
        super().__init__(abox)
        self.indexes = []

    def index(self, predicate, arity, positions, budget=None):
        index = _ProbeOnlyIndex(super().index(predicate, arity, positions, budget))
        self.indexes.append(index)
        return index


def test_constant_probe_on_individual_extent_visits_one_bucket():
    abox = ABox()
    for i in range(50):
        abox.add(
            RoleAssertion(
                AtomicRole("teaches"), Individual(f"person/{i}"), Individual(f"course/{i}")
            )
        )
    extents = _RecordingExtents(abox)
    query = ConjunctiveQuery(
        (Variable("x"),), [Atom("teaches", (Variable("x"), Constant("course/7")))]
    )
    assert evaluate_cq(query, extents) == {(Individual("person/7"),)}
    assert [index.lookups for index in extents.indexes] == [1]
    assert len(extents.indexes[0]) == 50  # one bucket per course


# -- cliff 2: the pushed 4-atom self-join is a plain indexed join -------------


def test_pushed_four_atom_self_join_plans_without_multi_index_or():
    staff = [(i, "prof" if i % 2 else "lect") for i in range(60)]
    teaching = [(i, f"c{i % 15}") for i in range(60)]
    database, mappings = _campus(staff, teaching)
    system = OBDASystem(TBOX, mappings, database, backend="sqlite")
    query = parse_query("q(x) :- Professor(x), teaches(x, c), teaches(y, c), Lecturer(y)")
    answers = system.certain_answers(query, method="perfectref-sqlite")
    assert len(answers) == 30  # every professor shares a course with a lecturer
    backend = system.sql_backend()
    compiled = backend._compile(unfold(system.rewrite(query), mappings), database)
    plan = backend._connection.execute(
        "EXPLAIN QUERY PLAN " + compiled.sql, compiled.params
    ).fetchall()
    details = [row[-1] for row in plan]
    assert not any("MULTI-INDEX OR" in detail for detail in details), details
    assert any("USING INDEX" in detail for detail in details), details
