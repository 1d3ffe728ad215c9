"""Table schemas, derivable from ontology classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ontology.model import Ontology


class SchemaError(ValueError):
    """Raised for malformed schemas or rows that violate them."""


_PYTHON_TYPES = {
    "number": (int, float),
    "string": (str,),
    "bool": (bool,),
}


@dataclass(frozen=True)
class Column:
    """One typed column."""

    name: str
    col_type: str = "string"  # "string" | "number" | "bool"

    def __post_init__(self):
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.col_type not in _PYTHON_TYPES:
            raise SchemaError(f"unknown column type {self.col_type!r}")
        # Exact value types accepted without the isinstance fallback (not
        # a dataclass field: equality and hashing stay name + type).
        object.__setattr__(
            self, "_exact", frozenset((type(None), *_PYTHON_TYPES[self.col_type])))

    def accepts(self, value) -> bool:
        if type(value) in self._exact:
            return True  # includes None: SQL-style nullable columns
        if self.col_type == "number" and isinstance(value, bool):
            return False
        return isinstance(value, _PYTHON_TYPES[self.col_type])


@dataclass(frozen=True)
class Schema:
    """An ordered set of columns with an optional key column.

    ``names`` is the tuple of column names, in order.
    """

    columns: Tuple[Column, ...]
    key: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.columns, tuple):
            object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        names = tuple(c.name for c in self.columns)
        by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        if len(names) != len(by_name):
            raise SchemaError("duplicate column names")
        if self.key is not None and self.key not in by_name:
            raise SchemaError(f"key {self.key!r} is not a column")
        # Lookup caches, computed once (not dataclass fields: equality,
        # hashing and repr stay columns + key).
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_name_set", frozenset(names))
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(
            self, "_checks", tuple((c.name, c._exact, c) for c in self.columns))

    @classmethod
    def from_class(cls, ontology: Ontology, class_name: str) -> "Schema":
        """Derive a schema from an ontology class (inherited slots included)."""
        slots = ontology.slots_of(class_name)
        columns = tuple(Column(s.name, s.value_type) for s in slots)
        return cls(columns, key=ontology.key_of(class_name))

    def column_names(self) -> List[str]:
        return list(self.names)

    def column(self, name: str) -> Column:
        col = self._by_name.get(name)
        if col is None:
            raise SchemaError(f"no column named {name!r}")
        return col

    def __contains__(self, name: str) -> bool:
        return name in self._name_set

    def project(self, names: List[str]) -> "Schema":
        """A schema with only *names*, keeping the key if it survives."""
        columns = tuple(self.column(n) for n in names)
        key = self.key if self.key in names else None
        return Schema(columns, key=key)

    def validate_row(self, row: dict) -> None:
        self.validate_rows((row,))

    def validate_rows(self, rows: Iterable[dict]) -> None:
        """Check each row in order: every value present must be accepted
        by its column, and no row may name an unknown column."""
        checks, known = self._checks, self._name_set
        for row in rows:
            for name, exact, col in checks:
                if name in row:
                    value = row[name]
                    if type(value) not in exact and not col.accepts(value):
                        raise SchemaError(
                            f"column {name!r} ({col.col_type}) rejects {value!r}"
                        )
            if not known.issuperset(row):
                unknown = set(row) - known
                raise SchemaError(f"row has unknown columns: {sorted(unknown)}")
