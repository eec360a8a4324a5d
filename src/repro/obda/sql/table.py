"""Tables of the in-memory relational engine.

The OBDA data layer (paper §1: "the data stored at the sources") is
simulated by a small relational engine: named tables with named columns,
rows as tuples of Python scalars.  It is deliberately schema-light — the
engine exists to exercise mapping unfolding and rewriting evaluation, not
to be a DBMS.

Tables are **append-only**: :meth:`Table.insert` appends a row and bumps
:attr:`Table.generation`, and nothing removes or replaces rows.  So a
table's generation is also its row count, and a reader that remembers
the generation it last saw (a *watermark*) finds everything since in
``rows[watermark:generation]`` — the delta path of
:class:`~repro.obda.evaluation.MappingExtents` reads just that.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...errors import MappingError

__all__ = ["Table"]

Row = Tuple[object, ...]


class Table:
    """A named relation with a fixed column list and append-only rows."""

    def __init__(self, name: str, columns: Sequence[str], rows: Iterable[Sequence] = ()):
        if len(set(columns)) != len(columns):
            raise MappingError(f"duplicate column names in table {name!r}: {columns}")
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self._position: Dict[str, int] = {
            column: index for index, column in enumerate(self.columns)
        }
        self.rows: List[Row] = []
        #: serializes inserts so the row append and its generation bump
        #: are one atomic step (readers iterate the append-only list).
        self._lock = threading.Lock()
        #: rows inserted so far (append-only, so also ``len(rows)`` once an
        #: insert returns); virtual-extent caches key their validity on it
        #: and use it as a per-table watermark
        self.generation = 0
        for row in rows:
            self.insert(row)

    def insert(self, row: Sequence) -> None:
        if len(row) != len(self.columns):
            raise MappingError(
                f"row arity {len(row)} does not match table {self.name!r} "
                f"({len(self.columns)} columns)"
            )
        with self._lock:
            self.rows.append(tuple(row))
            self.generation += 1

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.insert(row)

    def column_index(self, column: str) -> int:
        try:
            return self._position[column]
        except KeyError:
            raise MappingError(
                f"table {self.name!r} has no column {column!r} "
                f"(columns: {', '.join(self.columns)})"
            ) from None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {list(self.columns)}, {len(self.rows)} rows)"
