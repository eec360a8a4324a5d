"""Reproduce the answer defect the campus workloads steer around.

The 4-atom self-join ``A(x), teaches(x, c), teaches(y, c), B(y)`` has
the answer ``y`` for every ``y`` in both ``A`` and ``B`` that teaches
nothing on record: take ``x = y`` and the course the TBox axiom
``Teacher isa exists teaches`` guarantees.  PerfectRef unifies the two
``teaches`` atoms into two copies of ``teaches(y, c)`` and keeps both,
so ``c`` still looks shared and the existential step never fires; every
path misses the answer, Presto too.  The campus templates therefore
pair only disjoint concepts (``Professor``/``Lecturer``/``Tutor``).

Run from the repository root; exits 1 while the defect is present::

    python3 perfbench/known_defects.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

from campus import build_system, certain, chase  # noqa: E402
from canonical import render  # noqa: E402
from harness import PATHS, rows_of  # noqa: E402

STAFF = [(1, "lect"), (2, "lect"), (3, "prof")]
TEACHING = [(1, "course1"), (3, "course1")]  # lecturer 2 teaches nothing
HEAD = ("?y",)
ATOMS = [
    ("Lecturer", ("?x",)),
    ("teaches", ("?x", "?c")),
    ("teaches", ("?y", "?c")),
    ("Lecturer", ("?y",)),
]


def main() -> int:
    from repro.obda import Database
    from repro.perf import ClassificationCache

    database = Database("campus")
    database.create_table("staff", ["id", "role"], STAFF)
    database.create_table("teaching", ["staff_id", "course"], TEACHING)
    expected = certain(chase(STAFF, TEACHING), HEAD, ATOMS)
    text = render("q", HEAD, ATOMS)
    print(f"{text}\n  reference: {sorted(expected)}")
    wrong = 0
    for path in PATHS:
        system = build_system(database, path, ClassificationCache())
        got = rows_of(system.certain_answers(text, method=path))
        wrong += got != expected
        print(f"  {path}: {sorted(got)}{'' if got == expected else '  <- wrong'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
