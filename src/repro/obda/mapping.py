"""The OBDA mapping layer (paper §1: "an intermediate mapping layer
between the global schema and the data sources").

Mappings are GAV-style assertions ``source SQL query ⤳ target atoms``:
each row produced by the source query instantiates every target atom,
with IRI templates (``"person/{id}"``) building ontology individuals out
of source keys, and plain value columns feeding attribute values.

Example::

    m1: SELECT pid, dept FROM employees WHERE role = 'prof'
        ⤳ Professor(person/{pid}), worksFor(person/{pid}, dept/{dept})

Unfolding is exposed at two granularities:

* :meth:`MappingCollection.materialize` — the full virtual ABox;
* :meth:`MappingCollection.predicate_extent` — the extent of one
  predicate, which is what the query-evaluation join pipeline pulls;
* :meth:`MappingCollection.predicate_delta` — what the rows appended to
  the sources since a set of per-table watermarks add to that extent.
  Tables only ever append, and a source that scans one table once
  (selections, projections and renamings over it) works row by row, so
  its output on the appended rows is exactly what it gains.  A source
  that joins tables, or scans one table twice, has no such slice: when
  one of its tables moves, only a full pull can tell.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..dllite.abox import (
    ABox,
    AttributeAssertion,
    ConceptAssertion,
    Individual,
    RoleAssertion,
)
from ..dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from ..errors import MappingError
from .sql.algebra import (
    Expression,
    Join,
    Projection,
    Rename,
    ResultSet,
    Scan,
    Selection,
    UnionAll,
    evaluate,
)
from .sql.database import Database
from .sql.sqlparser import parse_sql
from .sql.table import Table

__all__ = [
    "IriTemplate",
    "ValueColumn",
    "TargetAtom",
    "MappingAssertion",
    "MappingCollection",
]

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class IriTemplate:
    """An individual-building template, e.g. ``person/{pid}``."""

    pattern: str

    @property
    def placeholders(self) -> Tuple[str, ...]:
        return tuple(_PLACEHOLDER_RE.findall(self.pattern))

    def apply(self, env: Dict[str, object]) -> Individual:
        def replace(match) -> str:
            column = match.group(1)
            if column not in env:
                raise MappingError(
                    f"template {self.pattern!r} needs column {column!r}, "
                    f"source query produced {sorted(env)}"
                )
            return str(env[column])

        return Individual(_PLACEHOLDER_RE.sub(replace, self.pattern))

    def __str__(self) -> str:
        return self.pattern


@dataclass(frozen=True)
class ValueColumn:
    """A raw source column used as an attribute value."""

    column: str

    def apply(self, env: Dict[str, object]):
        if self.column not in env:
            raise MappingError(
                f"value column {self.column!r} missing from source output "
                f"{sorted(env)}"
            )
        return env[self.column]

    def __str__(self) -> str:
        return f"{{{self.column}}}"


TargetTerm = Union[IriTemplate, ValueColumn]


@dataclass(frozen=True)
class TargetAtom:
    """One atom of a mapping head: predicate plus template terms."""

    predicate: Union[AtomicConcept, AtomicRole, AtomicAttribute]
    terms: Tuple[TargetTerm, ...]

    def __post_init__(self):
        expected = 1 if isinstance(self.predicate, AtomicConcept) else 2
        if len(self.terms) != expected:
            raise MappingError(
                f"target atom {self.predicate} expects {expected} term(s), "
                f"got {len(self.terms)}"
            )
        if isinstance(self.predicate, (AtomicConcept, AtomicRole)):
            for term in self.terms:
                if isinstance(term, ValueColumn):
                    raise MappingError(
                        f"{self.predicate} positions must be IRI templates, "
                        f"not raw columns"
                    )
        if isinstance(self.predicate, AtomicAttribute) and not isinstance(
            self.terms[0], IriTemplate
        ):
            raise MappingError("an attribute subject must be an IRI template")

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(map(str, self.terms))})"


def _scanned_tables(expression: Expression) -> Optional[Tuple[str, ...]]:
    """The tables *expression* scans, once per scan (a self-join names its
    table twice); ``None`` for a node this walk does not know."""
    if isinstance(expression, Scan):
        return (expression.table,)
    if isinstance(expression, (Selection, Projection, Rename)):
        return _scanned_tables(expression.source)
    if isinstance(expression, Join):
        parts: Tuple[Expression, ...] = (expression.left, expression.right)
    elif isinstance(expression, UnionAll):
        parts = expression.parts
    else:
        return None
    tables: Tuple[str, ...] = ()
    for part in parts:
        scanned = _scanned_tables(part)
        if scanned is None:
            return None
        tables += scanned
    return tables


class _RowSlice:
    """Rows ``[start, stop)`` of one table, posing as a database that holds
    just that table (what a single-scan source reads during a delta)."""

    def __init__(self, table: Table, start: int, stop: int):
        self.columns = table.columns
        self.rows = table.rows[start:stop]

    def table(self, name: str) -> "_RowSlice":
        return self


class MappingAssertion:
    """``source query ⤳ target atoms`` (the source may be SQL text or algebra)."""

    def __init__(
        self,
        source: Union[str, Expression],
        targets: Sequence[TargetAtom],
        identifier: str = "",
    ):
        self.identifier = identifier
        self.source_text = source if isinstance(source, str) else None
        self.source: Expression = parse_sql(source) if isinstance(source, str) else source
        self.targets: Tuple[TargetAtom, ...] = tuple(targets)
        if not self.targets:
            raise MappingError("a mapping assertion needs at least one target atom")
        #: the tables the source scans, once per scan (None: unknown)
        self.scans: Optional[Tuple[str, ...]] = _scanned_tables(self.source)

    def evaluate_source(self, database: Database) -> ResultSet:
        return evaluate(self.source, database)

    def evaluate_slice(self, database: Database, start: int, stop: int) -> ResultSet:
        """The source's output over rows ``[start, stop)`` of the one table
        it scans: selections, projections and renamings over one scan work
        row by row, so this is exactly what those rows contribute."""
        if self.scans is None or len(self.scans) != 1:
            raise MappingError(f"{self!r} scans {self.scans}, not one table once")
        return evaluate(self.source, _RowSlice(database.table(self.scans[0]), start, stop))

    def __repr__(self) -> str:
        label = self.identifier or "mapping"
        return f"<{label}: {len(self.targets)} targets>"


def _environments(result: ResultSet) -> Iterator[Dict[str, object]]:
    """Each row of *result* as column → value, unqualified column names
    included (templates name bare columns even when the source aliases)."""
    for row in result.rows:
        env = dict(zip(result.columns, row))
        for column, value in list(env.items()):
            env.setdefault(column.rsplit(".", 1)[-1], value)
        yield env


def _add_target_tuples(extent: Set[Tuple], result: ResultSet, target: TargetAtom) -> None:
    """Instantiate *target* on every row of *result* into *extent*."""
    for env in _environments(result):
        extent.add(tuple(term.apply(env) for term in target.terms))


class MappingCollection:
    """All mapping assertions of one OBDA specification."""

    def __init__(self, assertions: Iterable[MappingAssertion] = ()):
        self.assertions: List[MappingAssertion] = []
        self._by_predicate: Dict[str, List[Tuple[MappingAssertion, TargetAtom]]] = {}
        for assertion in assertions:
            self.add(assertion)

    def add(self, assertion: MappingAssertion) -> None:
        self.assertions.append(assertion)
        for target in assertion.targets:
            self._by_predicate.setdefault(target.predicate.name, []).append(
                (assertion, target)
            )

    def __len__(self) -> int:
        return len(self.assertions)

    def __iter__(self):
        return iter(self.assertions)

    def mapped_predicates(self) -> Set[str]:
        return set(self._by_predicate)

    # -- unfolding ---------------------------------------------------------------

    def predicate_extent(self, database: Database, predicate_name: str) -> Set[Tuple]:
        """The virtual extent of one ontology predicate over *database*.

        Concepts yield 1-tuples of :class:`Individual`; roles yield
        ``(Individual, Individual)`` pairs; attributes
        ``(Individual, value)`` pairs.  An unmapped predicate has an empty
        extent (standard OBDA semantics), not an error.
        """
        extent: Set[Tuple] = set()
        for assertion, target in self._by_predicate.get(predicate_name, ()):
            _add_target_tuples(extent, assertion.evaluate_source(database), target)
        return extent

    def watermarks(self, database: Database, predicate_name: str) -> Dict[str, int]:
        """The generation of every table the sources of *predicate_name*
        scan.  Read before a pull, they mark where its next delta starts."""
        return {
            table: database.table(table).generation
            for assertion, _ in self._by_predicate.get(predicate_name, ())
            for table in assertion.scans or ()
        }

    def predicate_delta(
        self,
        database: Database,
        predicate_name: str,
        watermarks: Dict[str, int],
    ) -> Optional[Tuple[Set[Tuple], Dict[str, int], int]]:
        """What the rows appended since *watermarks* add to the extent of
        *predicate_name*.

        Returns the target tuples of those rows (some may already be in
        the extent), the new watermarks and the number of source rows
        run through the assertions; or ``None`` when only a full pull
        can tell: a source whose scans are unknown, or a source that
        scans more than one table (or one table twice) reading a table
        that moved.
        """
        sources = self._by_predicate.get(predicate_name, ())
        if any(assertion.scans is None for assertion, _ in sources):
            return None
        current = self.watermarks(database, predicate_name)
        if current.keys() != watermarks.keys():  # the sources were edited
            return None
        moved = {
            table: (watermarks[table], stop)
            for table, stop in current.items()
            if stop != watermarks[table]
        }
        touched = [
            (assertion, target)
            for assertion, target in sources
            if not moved.keys().isdisjoint(assertion.scans)
        ]
        if any(len(assertion.scans) != 1 for assertion, _ in touched):
            return None
        extent: Set[Tuple] = set()
        rows_read = 0
        for assertion, target in touched:
            start, stop = moved[assertion.scans[0]]
            rows_read += stop - start
            result = assertion.evaluate_slice(database, start, stop)
            _add_target_tuples(extent, result, target)
        return extent, current, rows_read

    def materialize(self, database: Database) -> ABox:
        """Build the full virtual ABox (used by the Presto evaluation mode)."""
        abox = ABox()
        for assertion in self.assertions:
            for env in _environments(assertion.evaluate_source(database)):
                for target in assertion.targets:
                    values = tuple(term.apply(env) for term in target.terms)
                    if isinstance(target.predicate, AtomicConcept):
                        abox.add(ConceptAssertion(target.predicate, values[0]))
                    elif isinstance(target.predicate, AtomicRole):
                        abox.add(RoleAssertion(target.predicate, values[0], values[1]))
                    else:
                        abox.add(
                            AttributeAssertion(target.predicate, values[0], values[1])
                        )
        return abox
