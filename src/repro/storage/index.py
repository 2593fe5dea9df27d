"""Clustered and non-clustered indexes.

An :class:`Index` wraps a B+-tree built over a table's rows:

* a **clustered** index stores the full row in its leaves (the table *is*
  the index), so compressing it compresses the data;
* a **non-clustered** index stores the key columns plus an 8-byte RID
  locator per entry.

Compression is applied to the index's leaf pages. The
:meth:`Index.compress` method implements the three accounting modes the
experiments need:

* ``payload`` — record bytes only; reproduces the paper's model exactly;
* ``physical`` without repack — in-place page compression keeps the page
  count, so allocated bytes barely change (returned faithfully);
* ``physical`` with ``repack=True`` — pages are refilled to capacity with
  compressed data, the way an index rebuild with compression works.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterator, Literal, Sequence

from repro.constants import (DEFAULT_FILL_FACTOR, DEFAULT_PAGE_SIZE)
from repro.errors import CompressionError, IndexError_
from repro.storage.btree import DEFAULT_FANOUT, BPlusTree
from repro.storage.heap import HeapFile
from repro.storage.leaf_image import LeafImage, repacked_result
from repro.storage.page import Page, PageType
from repro.storage.record import decode_record, encode_record
from repro.storage.rid import RID
from repro.storage.schema import Column, Schema
from repro.storage.types import BigIntType
from repro.compression.base import (CompressionAlgorithm, CompressionResult)
from repro.compression.repack import compressed_page_capacity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.table import Table

Accounting = Literal["payload", "physical"]

#: Name of the synthetic locator column in non-clustered leaf schemas.
RID_COLUMN = "_rid"


class IndexKind(Enum):
    """Physical index organisations."""

    CLUSTERED = "clustered"
    NONCLUSTERED = "nonclustered"


def _rid_to_int(rid: RID) -> int:
    return (rid.page_id << 32) | rid.slot


def _int_to_rid(value: int) -> RID:
    return RID(value >> 32, value & 0xFFFFFFFF)


@dataclass(frozen=True)
class IndexSize:
    """Uncompressed size summary of an index."""

    payload_bytes: int
    physical_bytes: int
    leaf_pages: int
    entries: int


class Index:
    """A (possibly compressed-in-analysis) B+-tree index over rows."""

    def __init__(self, name: str, table_schema: Schema,
                 key_columns: Sequence[str],
                 kind: IndexKind = IndexKind.CLUSTERED,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 fill_factor: float = DEFAULT_FILL_FACTOR,
                 max_fanout: int = DEFAULT_FANOUT) -> None:
        if not key_columns:
            raise IndexError_("an index needs at least one key column")
        self.name = name
        self.table_schema = table_schema
        self.key_columns = tuple(key_columns)
        self.kind = kind
        self.page_size = page_size
        self.fill_factor = fill_factor
        self.max_fanout = max_fanout
        self._key_positions = tuple(
            table_schema.index_of(column) for column in key_columns)
        if kind is IndexKind.CLUSTERED:
            self.leaf_schema = table_schema
        else:
            projected = list(table_schema.project(key_columns).columns)
            projected.append(Column(RID_COLUMN, BigIntType()))
            self.leaf_schema = Schema(projected)
        self._tree = BPlusTree(page_size=page_size, max_fanout=max_fanout)
        # The size-only estimation path's leaf image and the sampling
        # path's leaf table, each built lazily and shared by every call.
        self._leaf_image: LeafImage | None = None
        self._leaf_table: "Table | None" = None

    def __getstate__(self) -> dict:
        """Pickle without the leaf image or table (copies of the leaves)."""
        state = dict(self.__dict__)
        state["_leaf_image"] = None
        state["_leaf_table"] = None
        return state

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Extract this index's key tuple from a full table row."""
        return tuple(row[position] for position in self._key_positions)

    def _leaf_record(self, row: Sequence[Any], rid: RID | None) -> bytes:
        if self.kind is IndexKind.CLUSTERED:
            return encode_record(self.table_schema, row)
        if rid is None:
            raise IndexError_(
                "non-clustered index entries need a RID locator")
        key_values = list(self.key_of(row))
        key_values.append(_rid_to_int(rid))
        return encode_record(self.leaf_schema, key_values)

    def build(self, rows_with_rids: Sequence[tuple[Sequence[Any], RID | None]],
              ) -> "Index":
        """Bulk-load the index from ``(row, rid)`` pairs.

        This is how both real index creation and SampleCF's
        index-on-the-sample step run: sort once, pack leaves.
        """
        entries = []
        for row, rid in rows_with_rids:
            self.table_schema.validate_row(row)
            entries.append((self.key_of(row), self._leaf_record(row, rid)))
        self._tree = BPlusTree.bulk_load(
            entries, page_size=self.page_size, max_fanout=self.max_fanout,
            fill_factor=self.fill_factor)
        self._leaf_image = None
        self._leaf_table = None
        return self

    def build_from_rows(self, rows: Sequence[Sequence[Any]]) -> "Index":
        """Bulk-load a clustered index directly from rows."""
        if self.kind is not IndexKind.CLUSTERED:
            raise IndexError_(
                "non-clustered indexes need RIDs; use build()")
        return self.build([(row, None) for row in rows])

    def insert(self, row: Sequence[Any], rid: RID | None = None) -> None:
        """Insert one row (with its RID for non-clustered indexes)."""
        self.table_schema.validate_row(row)
        self._tree.insert(self.key_of(row), self._leaf_record(row, rid))
        self._leaf_image = None
        self._leaf_table = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def search(self, key: tuple[Any, ...]) -> list[tuple[Any, ...]]:
        """Decoded leaf entries stored under ``key``."""
        return [decode_record(self.leaf_schema, record)
                for record in self._tree.search(tuple(key))]

    def search_rids(self, key: tuple[Any, ...]) -> list[RID]:
        """RIDs stored under ``key`` (non-clustered only)."""
        if self.kind is not IndexKind.CLUSTERED:
            return [_int_to_rid(entry[-1]) for entry in self.search(key)]
        raise IndexError_("clustered indexes store rows, not RIDs")

    def range_scan(self, lo: tuple[Any, ...] | None = None,
                   hi: tuple[Any, ...] | None = None,
                   ) -> Iterator[tuple[Any, ...]]:
        """Decoded leaf entries with ``lo <= key <= hi``."""
        for _key, record in self._tree.range_scan(lo, hi):
            yield decode_record(self.leaf_schema, record)

    # ------------------------------------------------------------------
    # Physical views
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return self._tree.num_entries

    @property
    def height(self) -> int:
        return self._tree.height

    def leaf_pages(self) -> Iterator[Page]:
        """The slotted leaf pages (compression input)."""
        return self._tree.leaf_pages()

    def leaf_records(self) -> Iterator[bytes]:
        """All leaf record byte strings in key order."""
        for leaf in self._tree.leaves():
            yield from leaf.records

    def leaf_table(self) -> "Table":
        """The leaf level as a :class:`Table` (cached until rebuilt).

        Its schema is :attr:`leaf_schema` and its heap is the index's
        own leaf pages, not repacked, so a block sampler sees the
        index's leaf boundaries. SampleCF samples an existing index
        through it; one object per build keeps every such estimate on
        one engine source key. Read-only: inserting into it would not
        reach the index.
        """
        if self._leaf_table is None:
            from repro.storage.table import Table  # cycle: table -> index

            image = self.leaf_image()
            self._leaf_table = Table.from_heap(
                self.name, self.leaf_schema, HeapFile.from_records(
                    image.buffer, image.offsets, self.page_size,
                    page_type=PageType.INDEX_LEAF, bounds=image.bounds))
        return self._leaf_table

    def validate(self) -> None:
        """Structural self-check (delegates to the B+-tree)."""
        self._tree.validate()

    def uncompressed_size(self, accounting: Accounting = "payload") -> int:
        """Uncompressed leaf size under the chosen accounting."""
        if accounting == "payload":
            return self._tree.leaf_payload_bytes
        if accounting == "physical":
            return self._tree.leaf_physical_bytes
        raise CompressionError(f"unknown accounting {accounting!r}")

    def size(self) -> IndexSize:
        """Full uncompressed size summary."""
        return IndexSize(
            payload_bytes=self._tree.leaf_payload_bytes,
            physical_bytes=self._tree.leaf_physical_bytes,
            leaf_pages=self._tree.num_leaf_pages,
            entries=self._tree.num_entries)

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def compress(self, algorithm: CompressionAlgorithm,
                 accounting: Accounting = "payload",
                 repack_pages: bool = False) -> CompressionResult:
        """Compress the index's leaf level and report sizes.

        This is step 3 of the paper's Figure 2 when run on a sampled
        index, and the ground-truth computation when run on the full one.
        """
        if self.num_entries == 0:
            raise CompressionError(
                f"index {self.name!r} is empty; nothing to compress")
        if accounting not in ("payload", "physical"):
            raise CompressionError(f"unknown accounting {accounting!r}")
        pages_before = self._tree.num_leaf_pages
        uncompressed = self.uncompressed_size(accounting)
        if algorithm.scope == "index":
            return self._compress_index_scope(
                algorithm, accounting, uncompressed, pages_before)
        if repack_pages:
            return self._compress_repacked(
                algorithm, accounting, uncompressed, pages_before)
        return self._compress_in_place(
            algorithm, accounting, uncompressed, pages_before)

    def _compress_in_place(self, algorithm: CompressionAlgorithm,
                           accounting: Accounting, uncompressed: int,
                           pages_before: int) -> CompressionResult:
        payload = 0
        for leaf in self._tree.leaves():
            block = algorithm.compress(leaf.records, self.leaf_schema)
            payload += block.payload_size
        if accounting == "payload":
            compressed = payload
            pages_after = pages_before
        else:
            # In-place compression frees space inside pages but releases
            # none of them: allocated bytes stay the same.
            compressed = pages_before * self.page_size
            pages_after = pages_before
        return CompressionResult(
            algorithm=algorithm.name, accounting=accounting,
            uncompressed_bytes=uncompressed, compressed_bytes=compressed,
            row_count=self.num_entries, pages_before=pages_before,
            pages_after=pages_after,
            details={"compressed_payload": payload, "repacked": False})

    def _compress_repacked(self, algorithm: CompressionAlgorithm,
                           accounting: Accounting, uncompressed: int,
                           pages_before: int) -> CompressionResult:
        return repacked_result(list(self.leaf_records()), self.leaf_schema,
                               algorithm, self.page_size, accounting,
                               uncompressed, pages_before)

    # ------------------------------------------------------------------
    # Size-only estimation
    # ------------------------------------------------------------------
    def leaf_image(self) -> LeafImage:
        """The leaf level as a :class:`LeafImage` (cached until rebuilt).

        The image costs about the leaf payload again, plus the column
        views its kernels cache, for as long as the index lives.
        """
        if self._leaf_image is None:
            self._leaf_image = LeafImage.from_leaves(
                self.name, self.leaf_schema,
                [leaf.records for leaf in self._tree.leaves()],
                self.page_size)
        return self._leaf_image

    def estimate_compression(self, algorithm: CompressionAlgorithm,
                             accounting: Accounting = "payload",
                             repack_pages: bool = False,
                             on_kernel=None,
                             on_fallback=None) -> CompressionResult:
        """Size-only :meth:`compress`: same result, no blobs built.

        Delegates to :meth:`LeafImage.estimate_compression` on
        :meth:`leaf_image`, the one implementation that sizes leaves.
        """
        return self.leaf_image().estimate_compression(
            algorithm, accounting=accounting, repack_pages=repack_pages,
            on_kernel=on_kernel, on_fallback=on_fallback)

    def _compress_index_scope(self, algorithm: CompressionAlgorithm,
                              accounting: Accounting, uncompressed: int,
                              pages_before: int) -> CompressionResult:
        records = list(self.leaf_records())
        block = algorithm.compress(records, self.leaf_schema)
        capacity = compressed_page_capacity(self.page_size)
        pages_after = max(1, -(-block.payload_size // capacity))
        if accounting == "payload":
            compressed = block.payload_size
        else:
            compressed = pages_after * self.page_size
        return CompressionResult(
            algorithm=algorithm.name, accounting=accounting,
            uncompressed_bytes=uncompressed, compressed_bytes=compressed,
            row_count=self.num_entries, pages_before=pages_before,
            pages_after=pages_after,
            details={"compressed_payload": block.payload_size,
                     "repacked": False})
