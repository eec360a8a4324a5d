"""The rewriters' compiled-TBox memos and their invalidation boundaries.

PerfectRef indexes a TBox's positive inclusions by right-hand-side
predicate once per TBox *generation*; Presto builds its witness TBox
once per *classification* object.  These tests pin when each is built,
rebuilt and shared.  They count builds, never time them.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.classifier import GraphClassifier
from repro.dllite import parse_tbox
from repro.dllite.axioms import ConceptInclusion
from repro.dllite.syntax import AtomicConcept, AtomicRole, ExistentialRole
from repro.obda import parse_query, perfect_ref, presto_rewrite
from repro.obda.rewriting import perfectref, presto

TBOX_TEXT = """
role teaches
Professor isa Teacher
Lecturer isa Teacher
Teacher isa exists teaches.Course
exists teaches^- isa Course
"""

TEACHES = parse_query("q(x) :- teaches(x, y)")


def _bodies(ucq):
    return {tuple(sorted(str(atom) for atom in cq.atoms)) for cq in ucq}


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call is counted; return the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_presto_builds_the_witness_set_once_per_classification(monkeypatch):
    tbox = parse_tbox(TBOX_TEXT)
    classification = GraphClassifier().classify(tbox)
    calls = _count_calls(monkeypatch, presto, "qualified_inclusions")
    first = presto_rewrite(TEACHES, tbox, classification)
    second = presto_rewrite(parse_query("q(x) :- Teacher(x)"), tbox, classification)
    again = presto_rewrite(TEACHES, tbox, classification)
    assert len(calls) == 1
    assert second.rules
    assert str(again) == str(first)
    # a new classification object gets its own witness set
    presto_rewrite(TEACHES, tbox, GraphClassifier().classify(tbox))
    assert len(calls) == 2


def test_presto_uses_new_witness_axioms_after_reclassification():
    tbox = parse_tbox("role teaches\nconcept Professor")
    before = presto_rewrite(TEACHES, tbox, GraphClassifier().classify(tbox))
    assert _bodies(before.ucq) == {("teaches*(x, y)",)}
    exists_teaches = ExistentialRole(AtomicRole("teaches"))
    tbox.add(ConceptInclusion(AtomicConcept("Professor"), exists_teaches))
    after = presto_rewrite(TEACHES, tbox, GraphClassifier().classify(tbox))
    assert _bodies(after.ucq) == {("teaches*(x, y)",), ("Professor*(x)",)}


def test_perfect_ref_index_follows_the_tbox_generation(monkeypatch):
    tbox = parse_tbox("Professor isa Teacher")
    builds = _count_calls(monkeypatch, perfectref, "_InclusionIndex")
    query = parse_query("q(x) :- Teacher(x)")
    assert _bodies(perfect_ref(query, tbox)) == {("Teacher(x)",), ("Professor(x)",)}
    perfect_ref(query, tbox)
    assert len(builds) == 1

    lecturer = ConceptInclusion(AtomicConcept("Lecturer"), AtomicConcept("Teacher"))
    tbox.add(lecturer)
    assert _bodies(perfect_ref(query, tbox)) == {
        ("Teacher(x)",),
        ("Professor(x)",),
        ("Lecturer(x)",),
    }
    assert len(builds) == 2

    tbox.discard(lecturer)
    assert _bodies(perfect_ref(query, tbox)) == {("Teacher(x)",), ("Professor(x)",)}
    assert len(builds) == 3


def test_threaded_presto_calls_share_one_program(monkeypatch):
    tbox = parse_tbox(TBOX_TEXT)
    classification = GraphClassifier().classify(tbox)
    calls = _count_calls(monkeypatch, presto, "qualified_inclusions")
    query = parse_query("q(x) :- Teacher(x), teaches(x, y), Course(y)")
    threads = 8
    barrier = threading.Barrier(threads)

    def rewrite(_):
        barrier.wait()
        return str(presto_rewrite(query, tbox, classification))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        programs = list(pool.map(rewrite, range(threads)))
    assert len(set(programs)) == 1
    assert len(calls) == 1
