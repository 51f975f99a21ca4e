"""An in-memory relational-style table.

Replaces Apache Derby for this reproduction: each table has a schema (ordered
column names), a primary key, optional secondary indexes, and predicate-based
selects.  Rows are plain dicts; the table owns copies so callers can't mutate
stored state behind its back.  The registry's metadata itself is stored as
Python objects by the DAO layer — tables carry the *relational* pieces the
thesis calls out explicitly (NodeState, audit rows) and back the SQL-92
query engine.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator

from repro.util.errors import InvalidRequestError, ObjectExistsError, ObjectNotFoundError

Row = dict[str, Any]
Predicate = Callable[[Row], bool]


class Table:
    """A named table with a primary key and optional secondary indexes.

    Concurrency: mutators serialize on a per-table lock (multi-step index
    maintenance must not interleave); point reads are lock-free single dict
    operations, and scans capture ``list(self._rows.values())`` — one atomic
    C-level copy under the GIL — before iterating, so a concurrent writer can
    never resize the dict mid-scan.
    """

    def __init__(
        self,
        name: str,
        columns: Iterable[str],
        *,
        primary_key: str,
        indexes: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.columns = tuple(columns)
        if primary_key not in self.columns:
            raise InvalidRequestError(
                f"primary key {primary_key!r} not among columns of table {name!r}"
            )
        self.primary_key = primary_key
        #: monotonic write counter — caches layered on a table (e.g. the
        #: NodeState generation map) validate against it instead of subscribing
        self.mutations = 0
        self._rows: dict[Any, Row] = {}
        self._indexes: dict[str, dict[Any, set[Any]]] = {}
        self._lock = threading.Lock()
        for column in indexes:
            self.add_index(column)

    # -- schema ----------------------------------------------------------

    def add_index(self, column: str) -> None:
        """Create a secondary (non-unique) index over *column*."""
        if column not in self.columns:
            raise InvalidRequestError(f"no column {column!r} in table {self.name!r}")
        with self._lock:
            index: dict[Any, set[Any]] = {}
            for key, row in self._rows.items():
                index.setdefault(row.get(column), set()).add(key)
            self._indexes[column] = index

    def _check_row(self, row: Row) -> Row:
        unknown = set(row) - set(self.columns)
        if unknown:
            raise InvalidRequestError(
                f"unknown columns {sorted(unknown)} for table {self.name!r}"
            )
        if self.primary_key not in row or row[self.primary_key] is None:
            raise InvalidRequestError(
                f"row for table {self.name!r} missing primary key {self.primary_key!r}"
            )
        # Normalize: absent columns become None.
        return {column: row.get(column) for column in self.columns}

    # -- mutation ----------------------------------------------------------

    def insert(self, row: Row) -> None:
        """Insert a new row; duplicate primary key raises ObjectExistsError."""
        row = self._check_row(row)
        key = row[self.primary_key]
        with self._lock:
            if key in self._rows:
                raise ObjectExistsError(
                    str(key), f"duplicate key in {self.name!r}: {key!r}"
                )
            self._rows[key] = row
            self._index_add(key, row)
            self.mutations += 1

    def upsert(self, row: Row) -> bool:
        """Insert-or-replace; returns True if a row was replaced."""
        row = self._check_row(row)
        key = row[self.primary_key]
        with self._lock:
            existed = key in self._rows
            if existed:
                self._index_remove(key, self._rows[key])
            self._rows[key] = row
            self._index_add(key, row)
            self.mutations += 1
            return existed

    def upsert_many(self, rows: Iterable[Row]) -> None:
        """Insert-or-replace *rows* as one write: one ``mutations`` bump, and
        the row map swapped, not edited — a lock-free reader sees all or none."""
        checked = [self._check_row(row) for row in rows]
        with self._lock:
            merged = dict(self._rows)
            for row in checked:
                key = row[self.primary_key]
                if key in merged:
                    self._index_remove(key, merged[key])
                merged[key] = row
                self._index_add(key, row)
            self._rows = merged
            self.mutations += 1

    def update(self, key: Any, changes: Row) -> Row:
        """Apply a partial update to the row with primary key *key*."""
        unknown = set(changes) - set(self.columns)
        if unknown:
            raise InvalidRequestError(
                f"unknown columns {sorted(unknown)} for table {self.name!r}"
            )
        if changes.get(self.primary_key, key) != key:
            raise InvalidRequestError("primary key updates are not supported")
        with self._lock:
            if key not in self._rows:
                raise ObjectNotFoundError(str(key), f"no row {key!r} in {self.name!r}")
            old = self._rows[key]
            self._index_remove(key, old)
            new = {**old, **changes}
            self._rows[key] = new
            self._index_add(key, new)
            self.mutations += 1
            return dict(new)

    def delete(self, key: Any) -> None:
        with self._lock:
            if key not in self._rows:
                raise ObjectNotFoundError(str(key), f"no row {key!r} in {self.name!r}")
            self._index_remove(key, self._rows[key])
            del self._rows[key]
            self.mutations += 1

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            for index in self._indexes.values():
                index.clear()
            self.mutations += 1

    # -- queries -----------------------------------------------------------

    def get(self, key: Any) -> Row | None:
        row = self._rows.get(key)
        return dict(row) if row is not None else None

    def views(self) -> list[Row]:
        """The stored rows themselves, one atomic capture — read-only by contract."""
        return list(self._rows.values())

    def require(self, key: Any) -> Row:
        row = self.get(key)
        if row is None:
            raise ObjectNotFoundError(str(key), f"no row {key!r} in {self.name!r}")
        return row

    def select(self, predicate: Predicate | None = None) -> list[Row]:
        """Return copies of all rows matching *predicate* (all rows if None)."""
        rows = self.views()  # atomic capture; iterate the copy
        if predicate is None:
            return [dict(row) for row in rows]
        return [dict(row) for row in rows if predicate(row)]

    def select_eq(self, column: str, value: Any) -> list[Row]:
        """Equality select, using the secondary index when one exists."""
        index = self._indexes.get(column)
        if index is not None:
            rows = self._rows
            return [
                dict(row)
                for key in sorted(index.get(value, ()), key=str)
                if (row := rows.get(key)) is not None
            ]
        return self.select(lambda row: row.get(column) == value)

    def keys(self) -> list[Any]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter([dict(row) for row in list(self._rows.values())])

    def __contains__(self, key: Any) -> bool:
        return key in self._rows

    # -- snapshot support (transactions) ------------------------------------

    def snapshot(self) -> dict[Any, Row]:
        """Cheap copy of table state for transaction rollback."""
        with self._lock:
            return {key: dict(row) for key, row in self._rows.items()}

    def restore(self, snapshot: dict[Any, Row]) -> None:
        with self._lock:
            self._rows = {key: dict(row) for key, row in snapshot.items()}
            self.mutations += 1
            columns = list(self._indexes)
            self._indexes.clear()
            for column in columns:
                index: dict[Any, set[Any]] = {}
                for key, row in self._rows.items():
                    index.setdefault(row.get(column), set()).add(key)
                self._indexes[column] = index

    # -- index maintenance ---------------------------------------------------

    def _index_add(self, key: Any, row: Row) -> None:
        for column, index in self._indexes.items():
            index.setdefault(row.get(column), set()).add(key)

    def _index_remove(self, key: Any, row: Row) -> None:
        for column, index in self._indexes.items():
            bucket = index.get(row.get(column))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del index[row.get(column)]
