"""Table/column statistics and shared join indexes for the SQL planner.

A cost-based planner needs two things from the storage layer: *numbers*
(how many rows, how many distinct values per column — the inputs of the
classic ``|R ⋈ S| = |R||S| / max(V(R,a), V(S,b))`` estimate) and *access
paths* (hash indexes on join-key columns, so an equi-join probes instead
of scanning).  :class:`StatisticsCatalog` provides both, cached per
table and revalidated against the table's generation counter on every
access — the same invalidation discipline the extent/index caches of
:mod:`repro.obda.evaluation` already use, so statistics can never be
served for data that has since changed shape.

Cell identity lives here too, because every hash bucket in the engine
must agree with it: two cells are equal iff their string forms are
(:func:`cell_key`).  That is the identity the IRI templates already
give individuals (``person/{id}`` names the individual ``person/1`` for
the cell ``1`` and for the cell ``"1"``, but ``person/1.0`` for
``1.0``), so joins, selections and duplicate elimination over source
cells can never disagree with the virtual ABox the mappings generate.
The extent evaluator, the naive algebra, the planner's hash joins and
the SQLite replica all key on :func:`cell_key` — one transitive
equality, one key per value.

Concurrency follows the copy-on-write idiom of
:meth:`repro.obda.evaluation.ExtentProvider.index`: bookkeeping happens
under a small lock, construction runs outside it, and a finished
statistic/index is installed only if the generation it was computed for
is still current.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...obs.metrics import global_metrics
from ...runtime.budget import Budget
from .database import Database
from .table import Row

__all__ = [
    "ColumnStatistics",
    "TableStatistics",
    "StatisticsCatalog",
    "JoinIndex",
    "cell_key",
    "join_key",
]


#: The identity of one cell: its string form.  Two cells are equal iff
#: their keys are; ``1`` and ``"1"`` are one cell, ``1``, ``1.0`` and
#: ``True`` are three, exactly as the IRI templates that name
#: individuals by ``str(cell)`` see them.  (The builtin itself, so hot
#: loops pay no extra Python call per cell.)
cell_key = str


def join_key(values) -> Tuple[str, ...]:
    """The hash key of a tuple of join values: one :func:`cell_key` each."""
    return tuple(map(cell_key, values))


class JoinIndex(dict):
    """Rows bucketed by the :func:`join_key` of their join values."""

    __slots__ = ()

    def add(self, values, row: Row) -> None:
        self.setdefault(join_key(values), []).append(row)

    def probe(self, values) -> List[Row]:
        """All rows whose join values equal *values* pairwise, in build order."""
        return self.get(join_key(values), [])


@dataclass(frozen=True)
class ColumnStatistics:
    """Distinct-value count of one column (over :func:`cell_key`)."""

    name: str
    distinct: int


@dataclass(frozen=True)
class TableStatistics:
    """Cardinality profile of one table at one generation."""

    table: str
    row_count: int
    columns: Tuple[ColumnStatistics, ...]

    def distinct(self, column: str) -> Optional[int]:
        """Distinct values in *column* (plain name), or None if unknown."""
        for stats in self.columns:
            if stats.name == column:
                return stats.distinct
        return None

    def selectivity(self, column: str) -> float:
        """Estimated fraction of rows surviving ``column = const``."""
        if self.row_count == 0:
            return 0.0
        distinct = self.distinct(column)
        if not distinct:
            return 0.1  # unknown column: a conventional guess
        return 1.0 / distinct

    def as_dict(self) -> Dict[str, object]:
        return {
            "table": self.table,
            "rows": self.row_count,
            "distinct": {stats.name: stats.distinct for stats in self.columns},
        }


class StatisticsCatalog:
    """Per-table statistics and hash indexes over one :class:`Database`.

    Both caches are keyed by ``Table.generation``; a stale entry is
    recomputed on the next access, so callers never invalidate manually
    (``invalidate`` exists for out-of-band mutation only, mirroring the
    extent provider).  One catalog is meant to be shared by all queries
    of an :class:`~repro.obda.system.OBDASystem`.
    """

    def __init__(self, database: Database):
        self.database = database
        self._lock = threading.Lock()
        self._stats: Dict[str, Tuple[int, TableStatistics]] = {}
        self._indexes: Dict[
            Tuple[str, Tuple[int, ...]], Tuple[int, JoinIndex]
        ] = {}

    def invalidate(self) -> None:
        with self._lock:
            self._stats = {}
            self._indexes = {}

    def statistics(
        self, table_name: str, budget: Optional[Budget] = None, table=None
    ) -> TableStatistics:
        """Row count + per-column distinct counts, cached per generation.

        Callers holding a resolved :class:`Table` (e.g. fetched through a
        retry-wrapped database) pass it as *table* so the catalog does not
        re-resolve it through the raw, unwrapped access path.
        """
        if table is None:
            table = self.database.table(table_name)
        generation = table.generation
        with self._lock:
            entry = self._stats.get(table_name)
            if entry is not None and entry[0] == generation:
                return entry[1]
        rows = list(table.rows)
        seen: List[set] = [set() for _ in table.columns]
        for row in rows:
            if budget is not None:
                budget.tick()
            for position, value in enumerate(row):
                seen[position].add(cell_key(value))
        stats = TableStatistics(
            table_name,
            len(rows),
            tuple(
                ColumnStatistics(column, len(values))
                for column, values in zip(table.columns, seen)
            ),
        )
        global_metrics().counter("obda.planner.stats_refreshes").inc()
        with self._lock:
            # Install only if no insert landed while we were scanning.
            if table.generation == generation:
                self._stats[table_name] = (generation, stats)
        return stats

    def row_count(self, table_name: str, budget: Optional[Budget] = None) -> int:
        return self.statistics(table_name, budget=budget).row_count

    def index(
        self,
        table_name: str,
        positions: Tuple[int, ...],
        budget: Optional[Budget] = None,
    ) -> JoinIndex:
        """A :class:`JoinIndex` of *table_name*'s rows on the values at
        *positions*; built lazily, shared across queries, rebuilt when
        the table's generation moves."""
        key = (table_name, tuple(positions))
        table = self.database.table(table_name)
        generation = table.generation
        with self._lock:
            entry = self._indexes.get(key)
            if entry is not None and entry[0] == generation:
                global_metrics().counter("obda.planner.index_hits").inc()
                return entry[1]
        rows = list(table.rows)
        index = JoinIndex()
        for row in rows:
            if budget is not None:
                budget.tick()
            index.add([row[i] for i in key[1]], row)
        global_metrics().counter("obda.planner.index_builds").inc()
        with self._lock:
            # Install only if no insert landed while we were scanning;
            # assignment (not setdefault) so a stale-generation entry is
            # actually replaced, matching statistics() above.
            if table.generation == generation:
                self._indexes[key] = (generation, index)
        return index
