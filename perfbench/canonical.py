"""Reference evaluation of conjunctive queries over a materialised model.

This is the benchmark's own evaluator, written without ``repro.obda``:
a query is a head (answer variables) and a list of atoms; a term is a
variable (``str`` starting with ``?``) or a constant (any other value).
``facts`` maps a predicate name to a set of tuples.  The campus
workloads chase their small TBox into such a model (see ``campus.py``)
and compare every timed answer set with :func:`answers` over it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple


def is_var(term) -> bool:
    return isinstance(term, str) and term.startswith("?")


class Model:
    """Facts plus lazily built per-position indexes."""

    def __init__(self, facts: Dict[str, Set[Tuple]]):
        self.facts = facts
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Dict[Tuple, List[Tuple]]] = {}

    def lookup(self, predicate: str, positions: Tuple[int, ...], key: Tuple):
        rows = self.facts.get(predicate, set())
        if not positions:
            return rows
        index = self._indexes.get((predicate, positions))
        if index is None:
            index = {}
            for row in rows:
                index.setdefault(tuple(row[i] for i in positions), []).append(row)
            self._indexes[(predicate, positions)] = index
        return index.get(key, ())


def answers(
    model: Model, head: Sequence[str], atoms: Sequence[Tuple[str, Tuple]]
) -> Set[Tuple]:
    """All head bindings of *atoms* over *model* (plain set semantics)."""
    results: Set[Tuple] = set()

    def extend(remaining: List[Tuple[str, Tuple]], binding: Dict[str, object]):
        if not remaining:
            results.add(tuple(binding[v] for v in head))
            return
        # most-bound atom first keeps every step an index probe
        remaining = sorted(
            remaining,
            key=lambda atom: -sum(
                1 for t in atom[1] if not is_var(t) or t in binding
            ),
        )
        predicate, args = remaining[0]
        positions = tuple(
            i for i, t in enumerate(args) if not is_var(t) or t in binding
        )
        key = tuple(binding.get(args[i], args[i]) for i in positions)
        for row in model.lookup(predicate, positions, key):
            local = dict(binding)
            for term, value in zip(args, row):
                if is_var(term):
                    if local.setdefault(term, value) != value:
                        break
            else:
                extend(remaining[1:], local)

    extend(list(atoms), {})
    return results


def render(name: str, head: Sequence[str], atoms: Iterable[Tuple[str, Tuple]]) -> str:
    """The datalog text ``repro`` parses, e.g. ``q(x) :- A(x), r(x, 'c')``."""

    def term(value) -> str:
        return value[1:] if is_var(value) else f"'{value}'"

    body = ", ".join(
        f"{predicate}({', '.join(term(t) for t in args)})" for predicate, args in atoms
    )
    return f"{name}({', '.join(term(v) for v in head)}) :- {body}"
