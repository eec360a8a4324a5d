"""Writes cost what they touch: mapped extents, hash indexes and ``p*``
extents catch up from the appended rows instead of a full re-pull.

Source tables only ever append, so after an insert each cached extent
runs just the new rows of its tables through its mapping assertions.
Three cases fall back to a full pull of the predicate: a source that
joins tables (or scans one table twice) reading a table that moved, a
schema change, and a wrapped provider that cannot report what it
gained.  The property below checks every answer path against a fresh
cache-free system while appends and queries interleave; the counter
tests pin which reads are full pulls and which are catch-ups.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.dllite import AtomicConcept, AtomicRole, parse_tbox
from repro.obda import MappingAssertion, MappingCollection, OBDASystem, TargetAtom
from repro.obda.evaluation import HierarchyExtents
from repro.obda.mapping import IriTemplate
from repro.obda.sql.database import Database
from repro.obs.metrics import global_metrics
from repro.runtime.retry import RetryingExtents, RetryPolicy

TBOX_TEXT = """
role teaches
Professor isa Teacher
Lecturer isa Teacher
Tutor isa Teacher
Teacher isa Person
exists teaches isa Teacher
exists teaches^- isa Course
Professor isa not Lecturer
"""

PATHS = ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto")

QUERIES = (
    "q(x) :- Teacher(x)",
    "q(x) :- Person(x), teaches(x, y)",
    "q(y) :- teaches(x, y)",
    "q(x) :- Tutor(x)",
    "q(x, y) :- Teacher(x), teaches(x, y), Course(y)",
    "q(x) :- Lecturer(x), teaches(x, 'c/1')",
)

#: ``'admin'`` rows are selected by no mapping's WHERE clause
ROLES = ("prof", "lect", "grad", "admin")


def _concept(sql: str, name: str) -> MappingAssertion:
    return MappingAssertion(sql, [TargetAtom(AtomicConcept(name), (IriTemplate("p/{id}"),))])


def _system(join_source: bool = True, **options) -> OBDASystem:
    """Staff and teaching tables under single-table mappings, plus (with
    *join_source*) a ``Tutor`` mapping that joins the two tables."""
    database = Database("campus")
    database.create_table(
        "staff", ["id", "role"], [(0, "prof"), (1, "lect"), (2, "grad"), (3, "admin")]
    )
    database.create_table(
        "teaching", ["staff_id", "course"], [(0, "1"), (1, "2"), (2, "1")]
    )
    assertions = [
        _concept("SELECT id FROM staff WHERE role = 'prof'", "Professor"),
        _concept("SELECT id FROM staff WHERE role = 'lect'", "Lecturer"),
        MappingAssertion(
            "SELECT staff_id, course FROM teaching",
            [
                TargetAtom(
                    AtomicRole("teaches"),
                    (IriTemplate("p/{staff_id}"), IriTemplate("c/{course}")),
                )
            ],
        ),
    ]
    if join_source:
        assertions.append(
            _concept(
                "SELECT s.id FROM staff s, teaching t "
                "WHERE s.id = t.staff_id AND s.role = 'grad'",
                "Tutor",
            )
        )
    return OBDASystem(
        parse_tbox(TBOX_TEXT),
        mappings=MappingCollection(assertions),
        database=database,
        **options,
    )


def _fresh_oracle(system: OBDASystem) -> OBDASystem:
    return OBDASystem(
        system.tbox,
        mappings=system.mappings,
        database=system.database,
        enable_caches=False,
    )


def _run_everything(system: OBDASystem) -> None:
    system.is_consistent()
    for query in QUERIES:
        for path in PATHS:
            system.certain_answers(query, method=path, check_consistency=False)


# -- the property: interleaved appends and queries ------------------------------

_staff_rows = st.tuples(st.integers(0, 7), st.sampled_from(ROLES))
_teaching_rows = st.tuples(st.integers(0, 7), st.sampled_from(("1", "2", "3")))
_steps = st.one_of(
    st.tuples(st.just("staff"), st.lists(_staff_rows, min_size=1, max_size=4)),
    st.tuples(st.just("teaching"), st.lists(_teaching_rows, min_size=1, max_size=4)),
    st.tuples(st.just("query"), st.sampled_from(QUERIES)),
    st.tuples(st.just("create"), st.just(())),
)


@given(st.lists(_steps, min_size=1, max_size=10))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_path_matches_a_fresh_system_under_appends(steps):
    system = _system()
    _run_everything(system)  # warm every cache before the first append
    created = 0
    for kind, payload in steps:
        if kind == "create":
            created += 1
            system.database.create_table(f"extra{created}", ["id"], [(created,)])
        elif kind != "query":
            # duplicates of existing rows and unmapped roles come up often
            system.database.table(kind).insert_many(payload)
        else:
            oracle = _fresh_oracle(system)
            assert system.is_consistent() == oracle.is_consistent()
            for path in PATHS:
                got = system.certain_answers(payload, method=path, check_consistency=False)
                want = _fresh_oracle(system).certain_answers(
                    payload, method=path, check_consistency=False
                )
                assert got == want, (path, payload)


# -- counters: what a write costs -----------------------------------------------


def _counters(system: OBDASystem):
    extents = system.extents()
    hierarchy = system.hierarchy_extents()
    return {
        "pulls": extents.pulls,
        "p_builds": sum(hierarchy.builds.values()),
        # new data can reorder a join and so ask for a new probe shape;
        # a full build is a rebuild iff some index key was built twice
        "index_rebuilds": sum(
            provider.index_builds - len(provider._index_cache)
            for provider in (extents, hierarchy)
        ),
    }


def test_ten_row_append_is_caught_up_without_full_pulls_or_rebuilds():
    system = _system(join_source=False)
    _run_everything(system)
    before = _counters(system)
    extended = system.hierarchy_extents().extensions.copy()
    delta_rows = global_metrics().counter("obda.extents.delta_rows").value
    system.database.table("staff").insert_many([(10 + i, ROLES[i % 4]) for i in range(5)])
    system.database.table("teaching").insert_many([(10 + i, "3") for i in range(5)])
    _run_everything(system)
    assert _counters(system) == before
    assert before["index_rebuilds"] == 0
    assert system.hierarchy_extents().extensions != extended
    assert system.extents().index_extensions > 0
    stats = system.cache_stats()["extents"]
    assert stats["source_pulls"] == before["pulls"]
    assert stats["delta_refreshes"] > 0
    # Professor and Lecturer read the 5 staff rows, teaches the 5 teaching rows
    assert stats["delta_rows"] == 15
    assert global_metrics().counter("obda.extents.delta_rows").value - delta_rows == 15
    assert system.certain_answers("q(x) :- Professor(x)", check_consistency=False) == (
        _fresh_oracle(system).certain_answers("q(x) :- Professor(x)", check_consistency=False)
    )


def test_append_read_by_a_join_source_pulls_that_predicate_once():
    system = _system()
    _run_everything(system)
    pulls = system.extents().pulls
    system.database.table("staff").insert_many([(5, "grad")])
    system.database.table("teaching").insert_many([(5, "3")])
    _run_everything(system)
    assert system.extents().pulls == pulls + 1  # Tutor; the rest catch up
    assert (
        ("p/5",) in {tuple(map(str, row)) for row in system.certain_answers(
            "q(x) :- Tutor(x)", check_consistency=False
        )}
    )


def test_schema_change_pulls_each_predicate_once():
    system = _system()
    provider = system.extents()
    provider.extent("Professor", 1)
    pulls = provider.pulls
    system.database.create_table("rooms", ["id"])
    provider.extent("Professor", 1)
    provider.extent("Professor", 1)
    assert provider.pulls == pulls + 1


def test_unchanged_generation_reuses_the_snapshot():
    system = _system()
    provider = system.extents()
    first = provider.extent("Professor", 1)
    assert provider.extent("Professor", 1) is first
    # an append the predicate's WHERE does not select grows nothing
    system.database.table("staff").insert(("9", "admin"))
    assert provider.extent("Professor", 1) == first
    assert provider.pulls == 1 and provider.delta_refreshes == 1


def test_catch_up_keeps_readers_snapshots():
    system = _system(join_source=False)
    provider = system.extents()
    rows = provider.extent("Professor", 1)
    index = provider.index("teaches", 2, (0,))
    buckets = {key: list(value) for key, value in index.items()}
    system.database.table("staff").insert_many([(20, "prof")])
    system.database.table("teaching").insert_many([(0, "3")])
    assert len(provider.extent("Professor", 1)) == len(rows) + 1
    assert provider.index("teaches", 2, (0,)) is not index
    # the objects handed out before the append are untouched
    assert len(rows) == 1
    assert {key: list(value) for key, value in index.items()} == buckets


def test_wrapped_provider_without_deltas_falls_back_to_rebuilds():
    system = _system(join_source=False)
    wrapped = RetryingExtents(system.extents(), RetryPolicy(max_attempts=1))
    hierarchy = HierarchyExtents(system.classification, wrapped)
    assert len(hierarchy.extent("Teacher*", 1)) == 3
    system.database.table("staff").insert_many([(30, "lect")])
    assert len(hierarchy.extent("Teacher*", 1)) == 4
    assert hierarchy.builds[("Teacher*", 1)] == 2
    assert hierarchy.extensions == {}
