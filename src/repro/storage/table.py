"""Tables: schema + heap storage + indexes.

A :class:`Table` owns a heap file of encoded rows and any number of
indexes. It also provides the two access paths the estimator needs:

* positional row access (uniform row sampling draws row positions),
* page iteration (block-level sampling draws whole pages).
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterator, Sequence

from repro.constants import DEFAULT_PAGE_SIZE
from repro.errors import SchemaError
from repro.storage.heap import HeapFile
from repro.storage.index import Index, IndexKind
from repro.storage.page import Page
from repro.storage.record import decode_record, encode_record
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
        self._indexes: dict[str, Index] = {}
        self._pending_index_specs: list[tuple] = []
        self._rids: list[RID] = []

    @property
    def indexes(self) -> dict[str, Index]:
        """Registered indexes; rebuilt lazily after unpickling.

        Estimation plan units ship tables to process-pool workers but
        never read their indexes (they build their own sample indexes),
        so a restored table defers the full rebuild until something
        actually looks.
        """
        if self._pending_index_specs:
            self._rebuild_indexes()
        return self._indexes

    def _rebuild_indexes(self) -> None:
        specs, self._pending_index_specs = self._pending_index_specs, []
        pairs = [(decode_record(self.schema, record), rid)
                 for rid, record in self.heap.scan()]
        for name, key_columns, kind, page_size, fill_factor, \
                max_fanout in specs:
            index = Index(name, self.schema, key_columns,
                          kind=IndexKind(kind), page_size=page_size,
                          fill_factor=fill_factor, max_fanout=max_fanout)
            index.build(pairs)
            self._indexes[name] = index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, schema: Schema,
                  rows: Sequence[Sequence[Any]],
                  page_size: int = DEFAULT_PAGE_SIZE) -> "Table":
        """Create a table and load ``rows`` into it."""
        table = cls(name, schema, page_size=page_size)
        table.insert_many(rows)
        return table

    @classmethod
    def from_heap(cls, name: str, schema: Schema,
                  heap: HeapFile) -> "Table":
        """A table over an existing heap, its records kept as stored."""
        table = cls(name, schema, page_size=heap.page_size)
        table.heap = heap
        table._rids = [rid for rid, _ in heap.scan()]
        return table

    def insert(self, row: Sequence[Any]) -> RID:
        """Insert one row; updates all existing indexes."""
        record = encode_record(self.schema, row)
        rid = self.heap.insert(record)
        self._rids.append(rid)
        for index in self.indexes.values():
            index.insert(row, rid)
        return rid

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
        rid = self._rids[position]
        return decode_record(self.schema, self.heap.get(rid))

    def rows_at(self, positions: Sequence[int]) -> list[tuple[Any, ...]]:
        """Rows at the given positions (the row-sampling access path)."""
        return [self.row_at(position) for position in positions]

    def rid_at(self, position: int) -> RID:
        """RID of the ``position``-th row."""
        return self._rids[position]

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

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def create_index(self, name: str, key_columns: Sequence[str],
                     kind: IndexKind = IndexKind.NONCLUSTERED,
                     fill_factor: float = 1.0) -> Index:
        """Build an index over the current rows and register it."""
        if name in self.indexes:
            raise SchemaError(f"index {name!r} already exists on "
                              f"table {self.name!r}")
        index = Index(name, self.schema, key_columns, kind=kind,
                      page_size=self.page_size, fill_factor=fill_factor)
        pairs = [(decode_record(self.schema, record), rid)
                 for rid, record in self.heap.scan()]
        index.build(pairs)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        """Remove a registered index."""
        if name not in self.indexes:
            raise SchemaError(f"no index {name!r} on table {self.name!r}")
        del self.indexes[name]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle via the heap: pages are the table's source of truth.

        The RID list replays from a heap scan (inserts are append-only)
        and indexes are recorded as configuration specs, rebuilt lazily
        on first access — so neither is serialized, which keeps pickles
        compact and lets plan units ship tables to process-pool workers
        without paying for index rebuilds the estimator never uses.
        """
        if self._pending_index_specs:
            index_specs = list(self._pending_index_specs)
        else:
            index_specs = [
                (index.name, index.key_columns, index.kind.value,
                 index.page_size, index.fill_factor, index.max_fanout)
                for index in self._indexes.values()]
        return {
            "name": self.name,
            "schema": self.schema,
            "page_size": self.page_size,
            "heap": self.heap,
            "index_specs": index_specs,
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.schema = state["schema"]
        self.page_size = state["page_size"]
        self.heap = state["heap"]
        self._rids = [rid for rid, _ in self.heap.scan()]
        self._indexes = {}
        self._pending_index_specs = list(state["index_specs"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Table({self.name!r}, rows={self.num_rows}, "
                f"indexes={sorted(self.indexes)})")
