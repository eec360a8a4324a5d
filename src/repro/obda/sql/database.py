"""The database: a named collection of tables."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Sequence

from ...errors import MappingError
from .table import Table

__all__ = ["Database"]


class Database:
    """A collection of :class:`Table` objects addressed by name.

    >>> db = Database("campus")
    >>> _ = db.create_table("person", ["id", "name"])
    >>> db["person"].insert((1, "ada"))
    >>> len(db["person"])
    1
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        #: serializes schema changes (table creation) against generation
        #: reads; row-level bumps are guarded by each table's own lock.
        self._lock = threading.Lock()
        self._structure_generation = 0

    @property
    def generation(self) -> int:
        """Monotone counter covering schema *and* row changes.

        :class:`~repro.obda.evaluation.MappingExtents` compares it on
        every read: while it stands still, nothing is re-read.  When it
        moves, each cached extent catches up from its per-table
        watermarks (the tables' own generations) on its next read, and
        a move of :attr:`structure_generation` forces a full re-pull.
        """
        with self._lock:
            tables = list(self._tables.values())
            structure = self._structure_generation
        return structure + sum(table.generation for table in tables)

    @property
    def structure_generation(self) -> int:
        """Monotone counter of schema changes (tables created or added)."""
        with self._lock:
            return self._structure_generation

    def create_table(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence] = ()
    ) -> Table:
        table = Table(name, columns, rows)
        with self._lock:
            if name in self._tables:
                raise MappingError(
                    f"table {name!r} already exists in database {self.name!r}"
                )
            self._tables[name] = table
            self._structure_generation += 1
        return table

    def add_table(self, table: Table) -> Table:
        with self._lock:
            if table.name in self._tables:
                raise MappingError(
                    f"table {table.name!r} already exists in database {self.name!r}"
                )
            self._tables[table.name] = table
            self._structure_generation += 1
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            with self._lock:
                known = ", ".join(sorted(self._tables)) or "none"
            raise MappingError(
                f"database {self.name!r} has no table {name!r} "
                f"(tables: {known})"
            ) from None

    def __getitem__(self, name: str) -> Table:
        return self.table(name)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def with_retry(self, policy, budget=None) -> "Database":
        """This database behind a :class:`repro.runtime.retry.RetryPolicy`.

        Table lookups (the access path of the SQL evaluator) retry
        transient source failures with backoff; see
        :class:`repro.runtime.retry.RetryingDatabase`.
        """
        from ...runtime.retry import RetryingDatabase

        return RetryingDatabase(self, policy, budget=budget)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, {len(self._tables)} tables)"
