"""The campus workloads: a university-style mapped database.

``campus-read`` streams queries the systems have never seen, so every
answer is computed; ``campus-churn`` interleaves batched inserts with
bursts of repeating queries, so every write invalidates what the read
side cached.  Both answer each query on all four paths, each path on
its own ``OBDASystem`` over one shared ``Database``, and compare every
answer set with :mod:`canonical` evaluation over the chased data.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Set, Tuple

from canonical import Model, answers, render
from harness import PATHS, Tally, ask_all, timed_call, warm_sources

TBOX_TEXT = """
role teaches
Professor isa Teacher
Lecturer isa Teacher
Tutor isa Teacher
Teacher isa Person
Student isa Person
Teacher isa exists teaches
exists teaches isa Teacher
exists teaches^- isa Course
Professor isa not Lecturer
Professor isa not Tutor
Lecturer isa not Tutor
"""

ROLES = ("prof", "lect", "tutor", "admin")
#: staff role -> mapped concept
ROLE_CONCEPTS = {"prof": "Professor", "lect": "Lecturer", "tutor": "Tutor"}

#: staff rows of the generated database.  Both cliffs (the 4-atom
#: self-join on sqlite, constant-bound joins on the extents paths) grow
#: quadratically; at 700 rows both still show (README.md) while a round
#: of five queries on four paths stays near a second.
STAFF_ROWS = 700
#: rows per insert batch of campus-churn
BATCH_ROWS = 10

#: the 4-atom self-join ``A(x), teaches(x, c), teaches(y, c), B(y)``
#: over two disjoint staff concepts, under every ordered head over
#: (x, y, c): 3 pairs x 15 heads = 45 distinct unseen queries
FOUR_PAIRS = tuple(itertools.combinations(sorted(ROLE_CONCEPTS.values()), 2))
FOUR_HEADS = tuple(
    head
    for size in (1, 2, 3)
    for head in itertools.permutations(("?x", "?y", "?c"), size)
)

ANONYMOUS = "_:"


def make_rows(rng: random.Random, staff_rows: int, first_id: int = 0):
    """Seeded ``staff(id, role)`` and ``teaching(staff_id, course)`` rows.

    The seed only decides who is who: every seed gives the same number
    of staff per role, of teaching rows (70% of staff teach one course)
    and of teachers per course, so join sizes do not vary with it.
    """
    roles = [ROLES[i % len(ROLES)] for i in range(staff_rows)]
    rng.shuffle(roles)
    staff = [(first_id + i, role) for i, role in enumerate(roles)]
    teachers = sorted(rng.sample(range(staff_rows), round(0.7 * staff_rows)))
    courses = [f"course{i % (staff_rows // 4 + 1)}" for i in range(len(teachers))]
    rng.shuffle(courses)
    teaching = [(first_id + t, course) for t, course in zip(teachers, courses)]
    return staff, teaching


def build_system(database, path: str, classification_cache):
    from repro.dllite import AtomicConcept, AtomicRole, parse_tbox
    from repro.obda import MappingAssertion, MappingCollection, OBDASystem, TargetAtom
    from repro.obda.mapping import IriTemplate

    def concept(sql: str, name: str) -> MappingAssertion:
        return MappingAssertion(
            sql, [TargetAtom(AtomicConcept(name), (IriTemplate("p/{id}"),))]
        )

    mappings = MappingCollection(
        [
            *(
                concept(f"SELECT id FROM staff WHERE role = '{role}'", name)
                for role, name in ROLE_CONCEPTS.items()
            ),
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
    )
    return OBDASystem(
        parse_tbox(TBOX_TEXT),
        mappings=mappings,
        database=database,
        classification_cache=classification_cache,
    )


def chase(staff, teaching) -> Model:
    """The canonical model of the campus TBox over the mapped rows.

    Every teacher without a course gets one anonymous course (``Teacher
    isa exists teaches``); nothing else in the TBox creates individuals.
    """
    members = {
        name: {(f"p/{i}",) for i, r in staff if r == role}
        for role, name in ROLE_CONCEPTS.items()
    }
    teaches = {(f"p/{i}", f"c/{course}") for i, course in teaching}
    busy = {person for person, _ in teaches}
    teachers = busy.union(*({p for p, in rows} for rows in members.values()))
    teaches |= {(t, f"{ANONYMOUS}course-of-{t}") for t in teachers - busy}
    return Model(
        {
            **members,
            "Teacher": {(p,) for p in teachers},
            "Person": {(p,) for p in teachers},
            "Student": set(),
            "Course": {(c,) for _, c in teaches},
            "teaches": teaches,
        }
    )


def certain(model: Model, head, atoms) -> Set[Tuple[str, ...]]:
    """Reference certain answers: model answers over named individuals."""
    return {
        row
        for row in answers(model, head, atoms)
        if not any(value.startswith(ANONYMOUS) for value in row)
    }


class CampusBase:
    """Set-up shared by both campus workloads."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.obda import Database
        from repro.perf import ClassificationCache

        rng = random.Random(self.seed)
        self.staff, self.teaching = make_rows(rng, STAFF_ROWS)
        database = Database("campus")
        database.create_table("staff", ["id", "role"], self.staff)
        database.create_table("teaching", ["staff_id", "course"], self.teaching)
        cache = ClassificationCache()
        self.database = database
        self.systems = {path: build_system(database, path, cache) for path in PATHS}
        for path, system in self.systems.items():
            warm(system, path)

    def reference(self) -> Model:
        return chase(self.staff, self.teaching)


def warm(system, path: str) -> None:
    """Fill lazy state (classification, consistency, extents, SQLite
    replica, statistics) with queries outside every measured stream."""
    system.is_consistent()
    warm_sources(system, path)
    for text in ("q(x) :- Person(x)", "q(x, y) :- teaches(x, y)"):
        system.certain_answers(text, method=path)


class CampusRead(CampusBase):
    """Unseen queries of five shapes, each a fifth of every round; each
    shape's constants are drawn from the data, so no answer set is empty."""

    name = "campus-read"
    ROUNDS_PER_S = 0.9
    SHAPES = ("one-atom", "concept-role", "self-join", "four-atom", "four-const")

    def prepare(self) -> None:
        """Reference model and per-shape pools of unseen queries (untimed)."""
        self.model = self.reference()
        rng = random.Random(self.seed * 7919 + 1)
        teaching = self.model.facts["teaches"]
        taught: Dict[str, Set[str]] = {}
        for person, course in teaching:
            if not course.startswith(ANONYMOUS):
                taught.setdefault(course, set()).add(person)
        busy = sorted({p for p, c in teaching if not c.startswith(ANONYMOUS)})
        courses = sorted(taught)

        def taught_by(concept: str, course: str) -> bool:
            return any((p,) in self.model.facts[concept] for p in taught[course])

        def four(a, b, c="?c"):
            return [
                (a, ("?x",)),
                ("teaches", ("?x", c)),
                ("teaches", ("?y", c)),
                (b, ("?y",)),
            ]

        # Each shape is a list of strata of like-cost queries; round r asks
        # stratum r mod len(strata), so every run asks the same mix.
        strata: Dict[str, List[list]] = {
            "one-atom": [[(("?c",), [("teaches", (k, "?c"))]) for k in busy]],
            "concept-role": [
                [
                    (("?x",), [(a, ("?x",)), ("teaches", ("?x", c))])
                    for c in courses
                    if taught_by(a, c)
                ]
                for a in ("Professor", "Lecturer", "Tutor", "Teacher")
            ],
            "self-join": [
                [
                    (("?y",), [("teaches", (k, "?c")), ("teaches", ("?y", "?c"))])
                    for k in busy
                ]
            ],
            "four-atom": [
                [(head, four(a, b)) for head in FOUR_HEADS] for a, b in FOUR_PAIRS
            ],
            "four-const": [
                [
                    (head, four(a, b, c))
                    for c in courses
                    if taught_by(a, c) and taught_by(b, c)
                ]
                for a, b in FOUR_PAIRS
                for head in (("?y",), ("?x",), ("?x", "?y"))
            ],
        }
        # The 4-atom strata hold no constants and keep their head order:
        # the cost of a 4-atom query depends on its head, and the median
        # op is a 4-atom one, so every seed asks the same heads.
        for shape, shape_strata in strata.items():
            if shape != "four-atom":
                for stratum in shape_strata:
                    rng.shuffle(stratum)
        self.strata = strata
        self.rng = rng

    def rounds(self):
        """Yield rounds; each round is one op per shape, in seeded order."""
        for index in itertools.count():
            shapes = list(self.SHAPES)
            self.rng.shuffle(shapes)
            ops = []
            for shape in shapes:
                strata = self.strata[shape]
                stratum = strata[index % len(strata)]
                position = index // len(strata)
                if position >= len(stratum):
                    return  # every query of a stratum has been asked once
                ops.append(self._op(shape, *stratum[position]))
            yield ops

    def _op(self, shape, head, atoms):
        expected = certain(self.model, head, atoms)
        if not expected:
            raise RuntimeError(f"empty {shape} template: {render('q', head, atoms)}")
        text = render("q", head, atoms)
        order = list(PATHS)
        self.rng.shuffle(order)
        return lambda tally: ask_all(self.systems, text, expected, tally, order, shape)


CHURN_SHAPES = ("one-atom", "concept-role", "self-join")


class CampusChurn(CampusBase):
    """Insert batches into staff and teaching, then a burst of queries."""

    name = "campus-churn"
    ROUNDS_PER_S = 3.5

    def prepare(self) -> None:
        self.rng = random.Random(self.seed * 7919 + 2)
        self.next_id = STAFF_ROWS
        self.model = self.reference()
        busy = sorted({person for person, _ in self.teaching})
        colleague = f"p/{self.rng.choice(busy)}"
        # the repeating templates, one per CHURN_SHAPES entry
        self.templates = (
            (("?x",), [("Lecturer", ("?x",))]),
            (("?x",), [("Teacher", ("?x",)), ("teaches", ("?x", "?y"))]),
            (("?y",), [("teaches", (colleague, "?c")), ("teaches", ("?y", "?c"))]),
        )

    def rounds(self):
        while True:
            yield [self._round]

    def _round(self, tally: Tally) -> float:
        """The op of this workload: a write, then a burst of reads."""
        return self._write(tally) + self._burst(tally)

    def _write(self, tally: Tally) -> float:
        """One staff batch and one teaching batch, each timed alone; then
        the reference model is rebuilt (untimed)."""
        staff, _ = make_rows(self.rng, BATCH_ROWS, first_id=self.next_id)
        self.next_id += BATCH_ROWS
        courses = STAFF_ROWS // 4 + 1
        # new and existing staff pick up courses, so joins grow too
        teaching = [
            (self.rng.randrange(self.next_id), f"course{self.rng.randrange(courses)}")
            for _ in range(BATCH_ROWS)
        ]
        total = 0.0
        for name, rows in (("staff", staff), ("teaching", teaching)):
            table = self.database.table(name)
            total += timed_call(
                tally, "write", "", lambda: table.insert_many(rows), lambda _: True
            )
        self.staff += staff
        self.teaching += teaching
        self.model = self.reference()
        return total

    def _burst(self, tally: Tally) -> float:
        order = [index for index in range(len(self.templates)) for _ in range(2)]
        self.rng.shuffle(order)
        expected = [certain(self.model, h, a) for h, a in self.templates]
        if not all(expected):
            raise RuntimeError("empty campus-churn template")
        total = 0.0
        for index in order:
            head, atoms = self.templates[index]
            paths = list(PATHS)
            self.rng.shuffle(paths)
            text = render("q", head, atoms)
            total += ask_all(
                self.systems, text, expected[index], tally, paths, CHURN_SHAPES[index]
            )
        return total
