"""In-memory tables with schema validation and simple size accounting."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.relational.schema import Schema, SchemaError


class TableError(ValueError):
    """Raised for table-level misuse (duplicate keys, bad rows)."""


#: Nominal bytes per stored cell, used for data-volume cost accounting
#: (the paper charges resources per megabyte of data touched).
BYTES_PER_CELL = 32


class Table:
    """A named, schema-validated collection of rows (dicts).

    Stored rows are never modified in place, so tables built with
    :meth:`from_valid_rows` may share row dicts with their inputs.

    >>> from repro.relational.schema import Column, Schema
    >>> t = Table("t", Schema((Column("id", "number"), Column("v", "number")), key="id"))
    >>> t.insert({"id": 1, "v": 10})
    >>> t.row_count
    1
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[dict] = ()):
        if not name:
            raise TableError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._rows: List[dict] = []
        self._key_index: Dict[object, int] = {}
        for row in rows:
            self.insert(row)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @classmethod
    def from_valid_rows(cls, name: str, schema: Schema, rows: Iterable[dict]) -> "Table":
        """A table holding *rows* as they are, without copying them.

        The caller guarantees that every row already holds exactly the
        schema's columns with values the schema accepts; only the key
        (present and unique) is still checked.
        """
        table = cls(name, schema)
        table._extend_valid(rows)
        return table

    def insert(self, row: dict) -> None:
        self.schema.validate_row(row)
        self._extend_valid(({name: row.get(name) for name in self.schema.names},))

    def _extend_valid(self, rows: Iterable[dict]) -> None:
        """Store already-validated rows as they are (see from_valid_rows),
        checking only that each key is present and unique."""
        key_column = self.schema.key
        if key_column is None:
            self._rows.extend(rows)
            return
        stored, index = self._rows, self._key_index
        for row in rows:
            key = row.get(key_column)
            if key is None:
                raise TableError(f"row missing key {key_column!r}")
            if key in index:
                raise TableError(f"duplicate key {key!r} in table {self.name!r}")
            index[key] = len(stored)
            stored.append(row)

    def insert_many(self, rows: Iterable[dict]) -> None:
        for row in rows:
            self.insert(row)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[dict]:
        """Iterate over copies of the stored rows."""
        return (dict(row) for row in self._rows)

    def rows_view(self) -> Iterator[dict]:
        """Iterate over the stored rows themselves, without copying.

        For read-only consumers inside the program (query execution and
        reassembly); the rows must not be modified.
        """
        return iter(self._rows)

    def lookup(self, key_value) -> Optional[dict]:
        """Key lookup (O(1)); None when absent or the table has no key."""
        index = self._key_index.get(key_value)
        return dict(self._rows[index]) if index is not None else None

    def scan(self, predicate: Optional[Callable[[dict], bool]] = None) -> List[dict]:
        """Full scan, optionally filtered.  Returns row copies."""
        if predicate is None:
            return [dict(row) for row in self._rows]
        return [dict(row) for row in self._rows if predicate(row)]

    def size_bytes(self) -> int:
        """Nominal data volume, for the experiments' cost accounting."""
        return self.row_count * len(self.schema.columns) * BYTES_PER_CELL

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.row_count} rows)"
