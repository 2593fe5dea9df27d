"""Tables: a schema over heap storage.

A :class:`Table` owns a heap file of encoded rows and provides the two
access paths the estimator needs:

* positional row access (uniform row sampling draws row positions),
* page iteration (block-level sampling draws whole pages).

Bulk constructors encode every row first and hand the records to the
heap's one packer: :meth:`Table.from_rows` encodes row by row, and
:meth:`Table.from_columns` encodes each distinct value of a
dictionary-coded column once.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterator, Sequence

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE
from repro.errors import SchemaError
from repro.storage.heap import HeapFile
from repro.storage.page import Page
from repro.storage.record import decode_record, encode_record, join_records
from repro.storage.rid import RID
from repro.storage.schema import Schema


class Table:
    """A named relation stored in a heap file."""

    def __init__(self, name: str, schema: Schema,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if not name:
            raise SchemaError("a table needs a non-empty name")
        self.name = name
        self.schema = schema
        self.page_size = page_size
        self.heap = HeapFile(page_size=page_size)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, schema: Schema,
                  rows: Sequence[Sequence[Any]],
                  page_size: int = DEFAULT_PAGE_SIZE) -> "Table":
        """A table holding ``rows``, each validated and encoded."""
        buffer, offsets = join_records(
            [encode_record(schema, row) for row in rows])
        return cls.from_heap(name, schema, HeapFile.from_records(
            buffer, offsets, page_size=page_size))

    @classmethod
    def from_columns(cls, name: str, schema: Schema,
                     columns: Sequence[tuple[Sequence[Any], np.ndarray]],
                     page_size: int = DEFAULT_PAGE_SIZE) -> "Table":
        """A table from dictionary-coded columns of a fixed-width schema.

        ``columns`` gives, per schema column, its distinct ``values``
        and integer ``codes`` into them, one per row: row ``i`` holds
        ``values[codes[i]]`` of every column. Each distinct value is
        validated and encoded once with its column's type, and row
        ``i`` comes out exactly as :meth:`from_rows` would store it.
        VARCHAR tables go through :meth:`from_rows`.
        """
        if len(columns) != len(schema):
            raise SchemaError(f"{len(columns)} columns for a schema of "
                              f"{len(schema)}")
        parts = []
        for column, (values, codes) in zip(schema.columns, columns):
            width = column.dtype.fixed_size
            if width is None:
                raise SchemaError(
                    f"from_columns needs fixed-width columns; "
                    f"{column.name!r} is {column.dtype.name}")
            encoded = np.frombuffer(
                b"".join([column.dtype.encode(value) for value in values]),
                dtype=np.uint8).reshape(len(values), width)
            codes = np.asarray(codes, dtype=np.int64)
            if codes.size and not (
                    0 <= codes.min() and codes.max() < len(values)):
                raise SchemaError(
                    f"codes of column {column.name!r} outside "
                    f"[0, {len(values)})")
            parts.append(encoded[codes])
        if len({part.shape[0] for part in parts}) != 1:
            raise SchemaError("columns hold different numbers of rows")
        rows = np.hstack(parts)
        return cls.from_heap(name, schema, HeapFile.from_records(
            rows.reshape(-1),
            np.arange(rows.shape[0] + 1, dtype=np.int64) * rows.shape[1],
            page_size=page_size))

    @classmethod
    def from_heap(cls, name: str, schema: Schema,
                  heap: HeapFile) -> "Table":
        """A table over an existing heap, its records kept as stored."""
        table = cls(name, schema, page_size=heap.page_size)
        table.heap = heap
        return table

    def insert(self, row: Sequence[Any]) -> RID:
        """Insert one row, validated and encoded."""
        return self.heap.insert(encode_record(self.schema, row))

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> list[RID]:
        """Insert many rows; returns their RIDs in order."""
        return [self.insert(row) for row in rows]

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.heap.num_records

    def __len__(self) -> int:
        return self.num_rows

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Decode and iterate all rows in physical order."""
        for record in self.heap.records():
            yield decode_record(self.schema, record)

    def row_at(self, position: int) -> tuple[Any, ...]:
        """The ``position``-th row ever inserted (0-based)."""
        return self.rows_at([position])[0]

    def rows_at(self, positions: Sequence[int]) -> list[tuple[Any, ...]]:
        """Rows at the given positions (the row-sampling access path)."""
        records, _ = self.heap.records_at(np.asarray(positions,
                                                     dtype=np.int64))
        return [decode_record(self.schema, record) for record in records]

    def rid_at(self, position: int) -> RID:
        """RID of the ``position``-th row."""
        return self.heap.rid_at(position)

    def column_values(self, column: str) -> list[Any]:
        """All values of one column, in physical row order."""
        position = self.schema.index_of(column)
        return [row[position] for row in self.rows()]

    def pages(self) -> Iterator[Page]:
        """Heap pages (the block-sampling access path)."""
        return self.heap.pages()

    def content_fingerprint(self) -> str:
        """SHA-256 hex digest of the table's content (schema + heap).

        Deliberately excludes the table *name*: the persistent sample
        store is content-addressed, and two tables holding identical
        rows under identical schemas draw identical samples for a fixed
        seed, so they may share stored entries. Inserting a row changes
        the heap and therefore the fingerprint, which is how stale
        store entries are invalidated — old fingerprints simply stop
        being looked up and age out of the store via eviction.
        """
        digest = hashlib.sha256()
        schema_spec = ",".join(f"{column.name}:{column.dtype.name}"
                               for column in self.schema.columns)
        digest.update(f"table:{self.page_size}:{schema_spec}:"
                      .encode("utf-8"))
        digest.update(self.heap.content_fingerprint().encode("ascii"))
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={self.num_rows})"
