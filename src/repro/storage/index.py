"""Clustered and non-clustered indexes, each held as its leaf level.

Step 3 of the paper's Figure 2 reads nothing of an index but its leaf
records, in key order, cut into pages, so that is all an :class:`Index`
holds: its layout (key columns, kind, page size, fill factor, leaf
schema) and its leaf records back to back in one ``uint8`` buffer, with
their offsets, the record positions where each leaf page starts and the
number of distinct keys.

* a **clustered** index stores the full row in its leaves (the table *is*
  the index), so compressing it compresses the data;
* a **non-clustered** index stores the key columns plus an 8-byte RID
  locator per entry.

:func:`leaf_schema` states that layout once; every caller that sizes
an index's leaves without building it (the advisor, capacity planning)
reads it there.

:meth:`Index.build` fills an index from record bytes (a sample's drawn
records, or every record of a table through :meth:`Index.over`) without
decoding a record: one split into column views
(:func:`~repro.compression.kernels.build_column_views`, which also
validates the records), one sort (:func:`key_order`), and each stored
column's view taken in key order
(:meth:`~repro.compression.kernels.ColumnView.take`). Those sorted
views are the leaves: the leaf records are packed from them and the
size kernels size them, so no leaf record is split. A sample keeps its
split, orders and sorted views, so its indexes on one key, of both
kinds, share them.

Entries are ordered by ``memcmp`` on one byte sort key per record, taken
from the views: the concatenation, in key-column order, of:

* CHAR: when no byte of the column is below the pad byte (``0x20``),
  the stored, blank-padded bytes. Where a longer value extends a
  shorter one, the shorter one's padding then meets blanks and, where
  they first differ, a byte above the blank. Otherwise the value
  without its trailing blanks, zero-filled to the column width, then
  that length as 2 big-endian bytes (the padded bytes alone would put
  ``"ab"`` after ``"ab\\x01"``). Each column takes its own route;
* VARCHAR: the payload zero-filled to the batch's widest value, then
  its length as 2 big-endian bytes (trailing blanks count);
* INTEGER/BIGINT: the stored sign-flipped big-endian bytes.

That is Python's tuple order on the decoded keys. A stable argsort keeps
equal keys in input order, and leaves are packed greedily, as a B+-tree
bulk load packs them.

:meth:`Index.estimate_compression` sizes the leaves under three
accountings:

* ``payload`` — record bytes only; reproduces the paper's model exactly;
* ``physical`` without repack — in-place page compression keeps the page
  count, so allocated bytes do not change;
* ``physical`` with ``repack_pages=True`` — pages are refilled to
  capacity with compressed data, the way an index rebuild with
  compression works.

The layout-parity property suite holds leaves, distinct counts and sizes
equal to a row-built B+-tree oracle's, scalar ``compress`` included.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Literal, Sequence

import numpy as np

from repro.constants import (DEFAULT_FILL_FACTOR, DEFAULT_PAGE_SIZE,
                             PAD_BYTE, PAGE_HEADER_SIZE, SLOT_SIZE)
from repro.errors import CompressionError, IndexError_, KernelUnavailable
from repro.storage.heap import HeapFile
from repro.storage.page import PageType, pack_bounds
from repro.storage.record import gather_spans, record_offsets
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import (BigIntType, CharType, IntegerType,
                                 VarCharType)
from repro.compression.base import CompressionAlgorithm, CompressionResult
from repro.compression import kernels
from repro.compression.kernels import ColumnView
from repro.compression.repack import (compressed_page_capacity,
                                      repack_with_route)

Accounting = Literal["payload", "physical"]

#: Name of the synthetic locator column in non-clustered leaf schemas.
RID_COLUMN = "_rid"

_PAD = PAD_BYTE[0]
_PREFIX = VarCharType.LENGTH_PREFIX_BYTES
_SIGN_FLIP_64 = np.uint64(1 << 63)


class IndexKind(Enum):
    """Physical index organisations."""

    CLUSTERED = "clustered"
    NONCLUSTERED = "nonclustered"


@dataclass(frozen=True)
class IndexSize:
    """Uncompressed size summary of an index."""

    payload_bytes: int
    physical_bytes: int
    leaf_pages: int
    entries: int


def leaf_schema(table_schema: Schema, key_columns: Sequence[str],
                kind: IndexKind) -> Schema:
    """The columns one leaf record stores, in leaf order, per index kind.

    A clustered leaf stores the whole table row; a non-clustered one
    the key columns, then the BIGINT RID locator (:data:`RID_COLUMN`).
    This is the one statement of a leaf layout: :class:`Index` builds
    its leaves to it, and the advisor's plain sizes and priors and the
    capacity planner read it.
    """
    if kind is IndexKind.CLUSTERED:
        return table_schema
    return Schema([*table_schema.project(key_columns).columns,
                   Column(RID_COLUMN, BigIntType())])


def _be16(values: np.ndarray) -> np.ndarray:
    """Each value as 2 big-endian bytes, one row per value."""
    return values.astype(">u2").view(np.uint8).reshape(-1, 2)


def _sort_key(view: ColumnView) -> np.ndarray:
    """``(count, width)`` bytes whose memcmp order is the column's order."""
    dtype = view.dtype
    if isinstance(dtype, CharType):
        if view.matrix.min(initial=_PAD) >= _PAD:
            return view.matrix  # blank-padded bytes order like the key
        kept = view.char_stripped_lengths
        filled = np.where(np.arange(dtype.k) < kept[:, None], view.matrix,
                          0).astype(np.uint8)
        return np.hstack([filled, _be16(kept)])
    if isinstance(dtype, VarCharType):
        return np.hstack([view.padded_matrix[:, _PREFIX:],
                          _be16(view.lengths - _PREFIX)])
    if isinstance(dtype, (IntegerType, BigIntType)):
        return view.matrix
    raise IndexError_(f"no byte order for {dtype.name} keys")


def key_order(views: Sequence[ColumnView]) -> tuple[np.ndarray, int]:
    """The stable order of key columns ``views``' rows, and distinct keys.

    The one sort of every index build: rows are ordered by ``memcmp``
    on their concatenated sort keys, one per view in key-column order,
    with equal keys kept in input order.
    """
    key = np.ascontiguousarray(np.hstack([_sort_key(view)
                                          for view in views]))
    order = np.argsort(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                       kind="stable")
    ordered = key[order]
    distinct = int(np.count_nonzero(
        (ordered[1:] != ordered[:-1]).any(axis=1))) + 1 if order.size else 0
    return order, distinct


def _interleave(views: Sequence[ColumnView],
                ) -> tuple[np.ndarray, np.ndarray]:
    """The views' rows as records, back to back, and their lengths.

    Record ``i`` is row ``i`` of every view, in view order. The records
    of a single fixed-width view are its matrix's own bytes, not a copy.
    """
    if all(view.matrix is not None for view in views):
        rows = views[0].matrix if len(views) == 1 \
            else np.hstack([view.matrix for view in views])
        return rows.reshape(-1), np.full(rows.shape[0], rows.shape[1],
                                         dtype=np.int64)
    sources, starts, spans, base = [], [], [], 0
    for view in views:
        if view.matrix is not None:
            width = view.matrix.shape[1]
            sources.append(view.matrix.reshape(-1))
            start = width * np.arange(view.count, dtype=np.int64)
            span = np.full(view.count, width, dtype=np.int64)
        else:
            sources.append(view.payload)
            start, span = view.offsets, view.lengths
        starts.append(base + start)
        spans.append(span)
        base += sources[-1].size
    widths = np.column_stack(spans)
    return gather_spans(np.concatenate(sources),
                        np.column_stack(starts).ravel(),
                        widths.ravel()), widths.sum(axis=1)


class Index:
    """An index's layout and its leaf records in key order.

    ``buffer`` holds every leaf record back to back, ``offsets`` their
    ``n + 1`` fence posts, and ``bounds`` the record positions where
    each leaf page starts (plus ``n``), so leaf ``i`` holds records
    ``bounds[i]`` to ``bounds[i + 1]``. ``distinct`` counts distinct
    keys. An index is empty until :meth:`build` fills it.
    """

    def __init__(self, name: str, table_schema: Schema,
                 key_columns: Sequence[str],
                 kind: IndexKind = IndexKind.CLUSTERED,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 fill_factor: float = DEFAULT_FILL_FACTOR) -> None:
        if not key_columns:
            raise IndexError_("an index needs at least one key column")
        self.name = name
        self.table_schema = table_schema
        self.key_columns = tuple(key_columns)
        self.kind = kind
        self.page_size = page_size
        self.fill_factor = fill_factor
        #: Table-schema positions of the key columns, in key order.
        self.key_positions = tuple(table_schema.index_of(column)
                                   for column in key_columns)
        self.leaf_schema = leaf_schema(table_schema, key_columns, kind)
        #: Table-schema positions of the columns a leaf record stores,
        #: in leaf order (a non-clustered leaf adds its RID).
        self.stored_positions = tuple(range(len(table_schema))) \
            if kind is IndexKind.CLUSTERED else self.key_positions
        self._adopt(np.zeros(0, dtype=np.uint8),
                    np.zeros(1, dtype=np.int64),
                    np.zeros(1, dtype=np.int64), 0, None)

    def _adopt(self, buffer: np.ndarray, offsets: np.ndarray,
               bounds: np.ndarray, distinct: int,
               views: tuple[ColumnView, ...] | None) -> None:
        self.buffer = buffer
        self.offsets = offsets
        self.bounds = bounds
        self.distinct = distinct
        # The leaf records' column views for the size kernels (one
        # split, if unpickling dropped the build's) and the leaf table
        # (built lazily), shared by every call until the next build.
        self._views = views
        self._leaf_table: Table | None = None

    def __getstate__(self) -> dict:
        """Pickle without the view cache or leaf table (both rebuilt)."""
        state = dict(self.__dict__)
        state["_views"] = None
        state["_leaf_table"] = None
        return state

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @classmethod
    def over(cls, table: Table, key_columns: Sequence[str],
             kind: IndexKind = IndexKind.CLUSTERED,
             page_size: int | None = None,
             fill_factor: float = DEFAULT_FILL_FACTOR) -> "Index":
        """An index over every record of ``table``: one gather, one build.

        The index takes the table's name, and its leaves the table's
        page size unless ``page_size`` says otherwise.
        """
        index = cls(table.name, table.schema, key_columns, kind=kind,
                    page_size=table.page_size if page_size is None
                    else page_size, fill_factor=fill_factor)
        return index.build(*table.heap.gather(
            np.arange(table.num_rows, dtype=np.int64)))

    def build(self, buffer: np.ndarray, offsets: np.ndarray,
              rids: np.ndarray,
              views: Sequence[ColumnView] | None = None,
              key: tuple[np.ndarray, int] | None = None) -> "Index":
        """Sort and pack records of :attr:`table_schema` into the leaves.

        ``buffer`` holds the records back to back, ``offsets`` their
        ``n + 1`` fence posts and ``rids`` their ``(page_id << 32) |
        slot`` locators. A clustered leaf record is the table record; a
        non-clustered one is the key columns' stored bytes followed by
        the BIGINT encoding of the RID. Returns the index.

        Without ``views`` and ``key`` the build splits the records
        (:func:`~repro.compression.kernels.build_column_views`, where a
        malformed record raises :class:`EncodingError`), sorts them with
        :func:`key_order` and takes each :attr:`stored_positions`
        column's view in that order (:meth:`ColumnView.take`, grouped
        for the leading key column). A sample
        passes its own: those views, and ``key``, the ``(order,
        distinct)`` of :func:`key_order`. The sorted views, plus the
        RIDs in key order for a non-clustered index, become the leaf
        records' column views, which sizing reads.
        """
        if not 0.0 < self.fill_factor <= 1.0:
            raise IndexError_(
                f"fill factor must be in (0, 1], got {self.fill_factor}")
        if key is None or views is None:
            split = kernels.build_column_views(self.table_schema, buffer,
                                               offsets)
            key = key_order([split[p] for p in self.key_positions])
            views = [split[p].take(key[0],
                                   grouped=p == self.key_positions[0])
                     for p in self.stored_positions]
        count = offsets.size - 1
        if rids.size != count:
            raise IndexError_(f"{rids.size} RID locators for "
                              f"{count} records")
        order, distinct = key
        leaf_views = tuple(views)
        if self.kind is IndexKind.NONCLUSTERED:
            locators = (rids[order].astype(np.uint64) ^ _SIGN_FLIP_64) \
                .astype(">u8").view(np.uint8).reshape(-1, 8)
            leaf_views += (ColumnView(BigIntType(), count, matrix=locators),)
        leaf_buffer, lengths = _interleave(leaf_views)
        # A leaf takes records while its header plus every record and
        # slot entry stay within int(fill_factor * page_size) bytes,
        # and always at least one record.
        if lengths.size and \
                PAGE_HEADER_SIZE + SLOT_SIZE + int(lengths.max()) \
                > self.page_size:
            raise IndexError_(
                f"record of {int(lengths.max())} bytes cannot fit a "
                f"{self.page_size}-byte leaf page")
        self._adopt(leaf_buffer, record_offsets(lengths), pack_bounds(
            lengths, int(self.fill_factor * self.page_size)
            - PAGE_HEADER_SIZE), distinct, leaf_views)
        return self

    # ------------------------------------------------------------------
    # Physical views
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return self.offsets.size - 1

    @property
    def num_leaf_pages(self) -> int:
        return self.bounds.size - 1

    def leaf_records(self, start: int = 0, stop: int | None = None,
                     ) -> list[bytes]:
        """Leaf records ``start`` to ``stop``, in key order."""
        stop = self.num_entries if stop is None else stop
        base = int(self.offsets[start])
        raw = self.buffer[base:int(self.offsets[stop])].tobytes()
        cuts = (self.offsets[start:stop + 1] - base).tolist()
        return [raw[a:b] for a, b in zip(cuts, cuts[1:])]

    def leaf_table(self) -> Table:
        """The leaf level as a :class:`Table` (cached until rebuilt).

        Its schema is :attr:`leaf_schema` and its heap is the index's
        own leaf pages, not repacked, so a block sampler sees the
        index's leaf boundaries. SampleCF samples an existing index
        through it; one object per build keeps every such estimate on
        one engine source key. Read-only: inserting into it would not
        reach the index.
        """
        if self._leaf_table is None:
            self._leaf_table = Table.from_heap(
                self.name, self.leaf_schema, HeapFile.from_records(
                    self.buffer, self.offsets, self.page_size,
                    page_type=PageType.INDEX_LEAF, bounds=self.bounds))
        return self._leaf_table

    def uncompressed_size(self, accounting: Accounting = "payload") -> int:
        """Uncompressed leaf size under the chosen accounting."""
        if accounting == "payload":
            return int(self.offsets[-1])
        if accounting == "physical":
            return self.num_leaf_pages * self.page_size
        raise CompressionError(f"unknown accounting {accounting!r}")

    def size(self) -> IndexSize:
        """Full uncompressed size summary."""
        return IndexSize(
            payload_bytes=self.uncompressed_size("payload"),
            physical_bytes=self.uncompressed_size("physical"),
            leaf_pages=self.num_leaf_pages, entries=self.num_entries)

    # ------------------------------------------------------------------
    # Size-only compression (vectorized kernels with scalar fallback)
    # ------------------------------------------------------------------
    def estimate_compression(self, algorithm: CompressionAlgorithm,
                             accounting: Accounting = "payload",
                             repack_pages: bool = False,
                             on_kernel: Callable[[], None] | None = None,
                             on_fallback: Callable[[], None] | None = None,
                             ) -> CompressionResult:
        """Compress the leaf level in analysis and report sizes.

        This is step 3 of the paper's Figure 2 when run on a sample's
        index, and the ground truth when run on a whole table's. The
        estimator only consumes sizes, so the exact summed
        ``payload_size`` comes from one call of the codec's vectorized
        size kernel (:mod:`repro.compression.kernels`) over the leaf
        bounds (or over ``[0, n]`` for an index-scoped codec) where the
        kernels apply, and from the codec's scalar ``compress``, leaf
        by leaf, where they don't; results are bit-identical either
        way, which is what keeps kernel-produced estimates
        interchangeable with persisted scalar ones. The leaf records'
        column views are the ones :meth:`build` assembled the leaves
        from, so sizing splits no record (a repack splits the leaf
        records it refills); an unpickled index splits its records
        once. A batch of algorithms over one index derives each
        shared array once, and both index kinds on one sample key share
        the key columns' views and their arrays.

        ``on_kernel`` / ``on_fallback`` are accounting hooks called once
        per call, whichever route sized the index (a repacked index
        counts as a kernel block when the kernels sized every record
        range :func:`~repro.compression.repack.repack` probed); the
        engine charges them to its ``size_kernel_hits`` /
        ``size_scalar_fallbacks`` stats.
        """
        if self.num_entries == 0:
            raise CompressionError(
                f"index {self.name!r} is empty; nothing to compress")
        if accounting not in ("payload", "physical"):
            raise CompressionError(f"unknown accounting {accounting!r}")
        pages_before = self.num_leaf_pages
        uncompressed = self.uncompressed_size(accounting)
        if algorithm.scope != "index" and repack_pages:
            packed, by_kernel = repack_with_route(
                self.leaf_records(), self.leaf_schema, algorithm,
                self.page_size)
            hook = on_kernel if by_kernel else on_fallback
            if hook is not None:
                hook()
            return CompressionResult(
                algorithm=algorithm.name, accounting=accounting,
                uncompressed_bytes=uncompressed,
                compressed_bytes=packed.payload_size
                if accounting == "payload" else packed.physical_bytes,
                row_count=self.num_entries, pages_before=pages_before,
                pages_after=packed.num_pages,
                details={"compressed_payload": packed.payload_size,
                         "repacked": True})
        whole = algorithm.scope == "index"
        payload = self._payload(
            algorithm, np.array([0, self.num_entries], dtype=np.int64)
            if whole else self.bounds, on_kernel, on_fallback)
        if whole:
            capacity = compressed_page_capacity(self.page_size)
            pages_after = max(1, -(-payload // capacity))
        else:
            # In-place compression frees space inside pages but releases
            # none of them: allocated bytes stay the same.
            pages_after = pages_before
        compressed = payload if accounting == "payload" \
            else pages_after * self.page_size
        return CompressionResult(
            algorithm=algorithm.name, accounting=accounting,
            uncompressed_bytes=uncompressed, compressed_bytes=compressed,
            row_count=self.num_entries, pages_before=pages_before,
            pages_after=pages_after,
            details={"compressed_payload": payload, "repacked": False})

    def _payload(self, algorithm: CompressionAlgorithm, bounds: np.ndarray,
                 on_kernel: Callable[[], None] | None,
                 on_fallback: Callable[[], None] | None) -> int:
        """The payload of the segments ``bounds``: kernel, else scalar.

        The records are only sliced out of the buffer on the scalar
        fallback, which compresses each segment on its own.
        """
        views = self._views_or_none()
        if views is not None:
            try:
                size = algorithm.size_of(views, self.leaf_schema, bounds)
            except KernelUnavailable:
                pass
            else:
                if on_kernel is not None:
                    on_kernel()
                return size
        if on_fallback is not None:
            on_fallback()
        edges = bounds.tolist()
        return sum(algorithm.compress(self.leaf_records(start, stop),
                                      self.leaf_schema).payload_size
                   for start, stop in zip(edges, edges[1:]))

    def _views_or_none(self) -> tuple[ColumnView, ...] | None:
        """Cached column views of the leaf records, or ``None``.

        ``None`` (the scalar path) when kernels are disabled or a
        column's dtype has none. The views are the build's sorted views
        or, once they are gone (after unpickling), one split of the leaf
        buffer; either serves every leaf, scope and algorithm, with one
        set of derived arrays.
        """
        if not kernels.kernels_enabled() \
                or not kernels.kernels_cover(self.leaf_schema):
            return None
        if self._views is None:
            self._views = kernels.build_column_views(
                self.leaf_schema, self.buffer, self.offsets)
        return self._views
