"""The layout-parity oracle: a B+-tree and the row-built index over it.

``repro.storage.index.Index`` sorts and packs record bytes into leaf
pages without decoding them. The suites check it against an index built
one row at a time: :class:`RowIndex` validates and encodes each decoded
row, orders the entries by Python's tuple order on their keys in
:meth:`BPlusTree.bulk_load`, and sizes the leaves with each codec's
scalar ``compress`` (:func:`greedy_repack` for repacked pages).

The tree maps comparable keys (tuples of column values) to opaque record
bytes. Leaves hold the records and enforce *page capacity in bytes*: a
leaf may hold as many records as fit a slotted page of the configured
size, exactly mirroring :class:`repro.storage.page.Page` accounting.

Features:

* duplicate keys (non-unique indexes),
* bulk loading from sorted input with a fill factor,
* point inserts with leaf/internal splits,
* ordered iteration, point and range lookups via the leaf chain,
* structural validation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, Sequence

from repro.compression.base import CompressionAlgorithm, CompressionResult
from repro.compression.repack import (RepackedPage, RepackResult,
                                      compressed_page_capacity)
from repro.constants import (DEFAULT_FILL_FACTOR, DEFAULT_PAGE_SIZE,
                             PAGE_HEADER_SIZE, SLOT_SIZE)
from repro.errors import CompressionError, IndexError_
from repro.storage.index import RID_COLUMN, Index, IndexKind
from repro.storage.page import Page, PageType
from repro.storage.record import encode_record
from repro.storage.rid import RID
from repro.storage.schema import Column, Schema
from repro.storage.types import BigIntType

Key = tuple[Any, ...]

#: Default maximum number of children of an internal node.
DEFAULT_FANOUT: int = 128


class _Leaf:
    """A leaf node: parallel ``keys``/``records`` lists plus a byte count."""

    __slots__ = ("keys", "records", "payload_bytes", "next")

    def __init__(self) -> None:
        self.keys: list[Key] = []
        self.records: list[bytes] = []
        self.payload_bytes = 0
        self.next: _Leaf | None = None

    def used_bytes(self) -> int:
        """Bytes this leaf would occupy as a slotted page."""
        return (PAGE_HEADER_SIZE + SLOT_SIZE * len(self.records)
                + self.payload_bytes)

    def fits(self, record: bytes, capacity: int) -> bool:
        return self.used_bytes() + SLOT_SIZE + len(record) <= capacity


class _Internal:
    """An internal node: ``keys[i]`` separates ``children[i]``/``children[i+1]``.

    Invariant: ``keys[i]`` equals the smallest key in the subtree of
    ``children[i + 1]``.
    """

    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[Key] = []
        self.children: list[_Leaf | _Internal] = []


class BPlusTree:
    """B+-tree over ``(key, record_bytes)`` entries with duplicate support."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 max_fanout: int = DEFAULT_FANOUT) -> None:
        if max_fanout < 3:
            raise IndexError_(f"fanout must be at least 3, got {max_fanout}")
        self.page_size = page_size
        self.max_fanout = max_fanout
        self._root: _Leaf | _Internal = _Leaf()
        self._first_leaf: _Leaf = self._root
        self._count = 0
        self._height = 1

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(cls, items: Iterable[tuple[Key, bytes]],
                  page_size: int = DEFAULT_PAGE_SIZE,
                  max_fanout: int = DEFAULT_FANOUT,
                  fill_factor: float = DEFAULT_FILL_FACTOR,
                  presorted: bool = False) -> "BPlusTree":
        """Build a tree from ``(key, record)`` pairs.

        ``items`` are sorted by key unless ``presorted`` is true. Leaves
        are packed up to ``fill_factor * page_size`` bytes (at least one
        record each), the standard way indexes are created from a data or
        sample scan — including step 2 of the paper's SampleCF algorithm.
        """
        if not 0.0 < fill_factor <= 1.0:
            raise IndexError_(
                f"fill factor must be in (0, 1], got {fill_factor}")
        entries = list(items)
        if not presorted:
            entries.sort(key=lambda item: item[0])
        else:
            for prev, cur in zip(entries, entries[1:]):
                if prev[0] > cur[0]:
                    raise IndexError_("items declared presorted are not")
        tree = cls(page_size=page_size, max_fanout=max_fanout)
        if not entries:
            return tree
        capacity = int(fill_factor * page_size)
        leaves: list[_Leaf] = []
        current = _Leaf()
        for key, record in entries:
            tree._check_record_size(record)
            if current.records and not current.fits(record, capacity):
                leaves.append(current)
                nxt = _Leaf()
                current.next = nxt
                current = nxt
            current.keys.append(key)
            current.records.append(bytes(record))
            current.payload_bytes += len(record)
        leaves.append(current)
        tree._count = len(entries)
        tree._first_leaf = leaves[0]
        tree._root, tree._height = tree._build_internal_levels(leaves)
        return tree

    def _build_internal_levels(self, leaves: list[_Leaf],
                               ) -> tuple[_Leaf | _Internal, int]:
        """Stack internal levels on top of packed leaves."""
        level: list[_Leaf | _Internal] = list(leaves)
        height = 1
        while len(level) > 1:
            groups = _chunk_children(level, self.max_fanout)
            parents: list[_Leaf | _Internal] = []
            for group in groups:
                node = _Internal()
                node.children = group
                node.keys = [_subtree_min_key(child) for child in group[1:]]
                parents.append(node)
            level = parents
            height += 1
        return level[0], height

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: Key, record: bytes) -> None:
        """Insert one entry, splitting nodes as required."""
        self._check_record_size(record)
        split = self._insert_into(self._root, key, bytes(record))
        if split is not None:
            separator, new_node = split
            new_root = _Internal()
            new_root.children = [self._root, new_node]
            new_root.keys = [separator]
            self._root = new_root
            self._height += 1
        self._count += 1

    def _check_record_size(self, record: bytes) -> None:
        smallest_leaf = PAGE_HEADER_SIZE + SLOT_SIZE + len(record)
        if smallest_leaf > self.page_size:
            raise IndexError_(
                f"record of {len(record)} bytes cannot fit a "
                f"{self.page_size}-byte leaf page")

    def _insert_into(self, node: _Leaf | _Internal, key: Key, record: bytes,
                     ) -> tuple[Key, _Leaf | _Internal] | None:
        """Recursive insert; returns ``(separator, new_right)`` on split."""
        if isinstance(node, _Leaf):
            position = bisect_right(node.keys, key)
            node.keys.insert(position, key)
            node.records.insert(position, record)
            node.payload_bytes += len(record)
            if node.used_bytes() <= self.page_size:
                return None
            return self._split_leaf(node)
        child_index = bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_index], key, record)
        if split is None:
            return None
        separator, new_child = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, new_child)
        if len(node.children) <= self.max_fanout:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf) -> tuple[Key, _Leaf]:
        """Split an over-full leaf roughly in half by payload bytes."""
        half = leaf.payload_bytes / 2
        cut = 1
        running = len(leaf.records[0])
        while cut < len(leaf.records) - 1 and running < half:
            running += len(leaf.records[cut])
            cut += 1
        right = _Leaf()
        right.keys = leaf.keys[cut:]
        right.records = leaf.records[cut:]
        right.payload_bytes = sum(len(r) for r in right.records)
        right.next = leaf.next
        leaf.keys = leaf.keys[:cut]
        leaf.records = leaf.records[:cut]
        leaf.payload_bytes -= right.payload_bytes
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> tuple[Key, _Internal]:
        """Split an over-full internal node in half."""
        mid = len(node.children) // 2
        right = _Internal()
        right.children = node.children[mid:]
        right.keys = node.keys[mid:]
        separator = node.keys[mid - 1]
        node.children = node.children[:mid]
        node.keys = node.keys[:mid - 1]
        return separator, right

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _leftmost_leaf_for(self, key: Key) -> _Leaf:
        """The first leaf that could contain ``key``."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[bisect_left(node.keys, key)]
        return node

    def search(self, key: Key) -> list[bytes]:
        """All records stored under exactly ``key`` (duplicates included)."""
        results: list[bytes] = []
        leaf: _Leaf | None = self._leftmost_leaf_for(key)
        while leaf is not None:
            start = bisect_left(leaf.keys, key)
            if start == len(leaf.keys):
                leaf = leaf.next
                if leaf is not None and leaf.keys and leaf.keys[0] > key:
                    break
                continue
            for position in range(start, len(leaf.keys)):
                if leaf.keys[position] != key:
                    return results
                results.append(leaf.records[position])
            leaf = leaf.next
        return results

    def range_scan(self, lo: Key | None = None, hi: Key | None = None,
                   ) -> Iterator[tuple[Key, bytes]]:
        """Iterate entries with ``lo <= key <= hi`` in key order."""
        if lo is None:
            leaf: _Leaf | None = self._first_leaf
            start = 0
        else:
            leaf = self._leftmost_leaf_for(lo)
            start = bisect_left(leaf.keys, lo)
        while leaf is not None:
            for position in range(start, len(leaf.keys)):
                key = leaf.keys[position]
                if hi is not None and key > hi:
                    return
                yield key, leaf.records[position]
            leaf = leaf.next
            start = 0

    def items(self) -> Iterator[tuple[Key, bytes]]:
        """All entries in key order."""
        return self.range_scan()

    # ------------------------------------------------------------------
    # Physical views
    # ------------------------------------------------------------------
    def leaves(self) -> Iterator[_Leaf]:
        """Iterate raw leaves left to right (internal use and tests)."""
        leaf: _Leaf | None = self._first_leaf
        while leaf is not None:
            yield leaf
            leaf = leaf.next

    def leaf_pages(self) -> Iterator[Page]:
        """Materialise each leaf as a slotted :class:`Page`.

        These are the pages the compression algorithms consume. Records
        appear in key order, page by page.
        """
        for page_id, leaf in enumerate(self.leaves()):
            page = Page(self.page_size, page_id=page_id,
                        page_type=PageType.INDEX_LEAF)
            for record in leaf.records:
                page.insert(record)
            yield page

    @property
    def num_entries(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        return self._height

    @property
    def num_leaf_pages(self) -> int:
        return sum(1 for _ in self.leaves())

    @property
    def leaf_payload_bytes(self) -> int:
        """Record bytes across all leaves (paper-model index size)."""
        return sum(leaf.payload_bytes for leaf in self.leaves())

    @property
    def leaf_physical_bytes(self) -> int:
        """Allocated leaf bytes: ``num_leaf_pages * page_size``."""
        return self.num_leaf_pages * self.page_size

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raises :class:`IndexError_`."""
        count = self._validate_node(self._root, depth=1)
        if count != self._count:
            raise IndexError_(
                f"entry count mismatch: counted {count}, "
                f"recorded {self._count}")
        previous: Key | None = None
        chained = 0
        for leaf in self.leaves():
            if leaf.used_bytes() > self.page_size and len(leaf.records) > 1:
                raise IndexError_("leaf exceeds page capacity")
            if len(leaf.records) != len(leaf.keys):
                raise IndexError_("leaf keys/records length mismatch")
            for key in leaf.keys:
                if previous is not None and key < previous:
                    raise IndexError_("leaf chain out of order")
                previous = key
            chained += len(leaf.keys)
        if chained != self._count:
            raise IndexError_(
                f"leaf chain holds {chained} entries, expected {self._count}")

    def _validate_node(self, node: _Leaf | _Internal, depth: int) -> int:
        if isinstance(node, _Leaf):
            if depth != self._height:
                raise IndexError_(
                    f"leaf at depth {depth}, height is {self._height}")
            if node.payload_bytes != sum(len(r) for r in node.records):
                raise IndexError_("leaf payload byte count is stale")
            return len(node.records)
        if len(node.children) < 2:
            raise IndexError_("internal node with fewer than 2 children")
        if len(node.children) > self.max_fanout:
            raise IndexError_("internal node exceeds fanout")
        if len(node.keys) != len(node.children) - 1:
            raise IndexError_("internal separator count mismatch")
        for separator, child in zip(node.keys, node.children[1:]):
            if _subtree_min_key(child) != separator:
                raise IndexError_(
                    f"separator {separator!r} does not match child minimum")
        return sum(self._validate_node(child, depth + 1)
                   for child in node.children)


def _subtree_min_key(node: _Leaf | _Internal) -> Key:
    """Smallest key stored in the subtree rooted at ``node``."""
    while isinstance(node, _Internal):
        node = node.children[0]
    if not node.keys:
        raise IndexError_("empty leaf inside a non-empty tree")
    return node.keys[0]


def _chunk_children(nodes: list, fanout: int) -> list[list]:
    """Partition ``nodes`` into groups of at most ``fanout``, each >= 2.

    If the tail group would have a single node, one node is moved from the
    previous group so every internal node has at least two children.
    """
    groups = [nodes[i:i + fanout] for i in range(0, len(nodes), fanout)]
    if len(groups) > 1 and len(groups[-1]) == 1:
        groups[-1].insert(0, groups[-2].pop())
    return groups


def leaf_pages(index: Index) -> Iterator[Page]:
    """Each leaf of ``index`` as a slotted :class:`Page`, filled record
    by record (what its page images must equal)."""
    bounds = index.bounds.tolist()
    for page_id, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        page = Page(index.page_size, page_id=page_id,
                    page_type=PageType.INDEX_LEAF)
        for record in index.leaf_records(start, stop):
            page.insert(record)
        yield page


def greedy_repack(records: Sequence[bytes], schema: Schema,
                  algorithm: CompressionAlgorithm, page_size: int,
                  ) -> RepackResult:
    """Repacking by its definition, one record at a time.

    A page takes the next record while ``compress`` of the page plus
    that record succeeds and its payload stays within the compressed
    page capacity; a page always takes at least one record. Every
    candidate page is compressed whole, so this costs a
    ``compress`` per record over the whole page so far.
    """
    capacity = compressed_page_capacity(page_size)
    pages = []
    start = 0
    while start < len(records):
        stop = start + 1
        payload = algorithm.compress(records[start:stop],
                                     schema).payload_size
        while stop < len(records):
            try:
                size = algorithm.compress(records[start:stop + 1],
                                          schema).payload_size
            except CompressionError:
                break
            if size > capacity:
                break
            stop, payload = stop + 1, size
        pages.append(RepackedPage(start, stop - start, payload))
        start = stop
    return RepackResult(tuple(pages), page_size)


class RowIndex:
    """An index built row by row into a :class:`BPlusTree`, sized by
    scalar ``compress``: the oracle for ``repro.storage.index.Index``."""

    def __init__(self, name: str, table_schema: Schema,
                 key_columns: Sequence[str],
                 kind: IndexKind = IndexKind.CLUSTERED,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 fill_factor: float = DEFAULT_FILL_FACTOR) -> None:
        self.name = name
        self.table_schema = table_schema
        self.key_columns = tuple(key_columns)
        self.kind = kind
        self.page_size = page_size
        self.fill_factor = fill_factor
        self._key_positions = tuple(
            table_schema.index_of(column) for column in key_columns)
        if kind is IndexKind.CLUSTERED:
            self.leaf_schema = table_schema
        else:
            projected = list(table_schema.project(key_columns).columns)
            projected.append(Column(RID_COLUMN, BigIntType()))
            self.leaf_schema = Schema(projected)
        self._tree = BPlusTree(page_size=page_size)

    def key_of(self, row: Sequence[Any]) -> Key:
        """This index's key tuple of a full table row."""
        return tuple(row[position] for position in self._key_positions)

    def _leaf_record(self, row: Sequence[Any], rid: RID | None) -> bytes:
        if self.kind is IndexKind.CLUSTERED:
            return encode_record(self.table_schema, row)
        if rid is None:
            raise IndexError_(
                "non-clustered index entries need a RID locator")
        return encode_record(self.leaf_schema, list(self.key_of(row))
                             + [(rid.page_id << 32) | rid.slot])

    def build(self, rows_with_rids: Iterable[tuple[Sequence[Any],
                                                   RID | None]],
              ) -> "RowIndex":
        """Bulk-load the tree from validated ``(row, rid)`` pairs."""
        entries = []
        for row, rid in rows_with_rids:
            self.table_schema.validate_row(row)
            entries.append((self.key_of(row), self._leaf_record(row, rid)))
        self._tree = BPlusTree.bulk_load(
            entries, page_size=self.page_size,
            fill_factor=self.fill_factor)
        return self

    def build_from_rows(self, rows: Iterable[Sequence[Any]]) -> "RowIndex":
        """Bulk-load a clustered index from rows alone."""
        return self.build((row, None) for row in rows)

    @property
    def num_entries(self) -> int:
        return self._tree.num_entries

    def leaf_pages(self) -> Iterator[Page]:
        return self._tree.leaf_pages()

    def leaf_records(self) -> Iterator[bytes]:
        for leaf in self._tree.leaves():
            yield from leaf.records

    def compress(self, algorithm: CompressionAlgorithm,
                 accounting: str = "payload",
                 repack_pages: bool = False) -> CompressionResult:
        """Compress every leaf with the codec and report sizes."""
        if self.num_entries == 0:
            raise CompressionError(
                f"index {self.name!r} is empty; nothing to compress")
        if accounting not in ("payload", "physical"):
            raise CompressionError(f"unknown accounting {accounting!r}")
        pages_before = self._tree.num_leaf_pages
        uncompressed = self._tree.leaf_payload_bytes \
            if accounting == "payload" else self._tree.leaf_physical_bytes
        repacked = False
        if algorithm.scope == "index":
            payload = algorithm.compress(list(self.leaf_records()),
                                         self.leaf_schema).payload_size
            pages_after = max(1, -(-payload // compressed_page_capacity(
                self.page_size)))
            physical = pages_after * self.page_size
        elif repack_pages:
            packed = greedy_repack(list(self.leaf_records()),
                                   self.leaf_schema, algorithm,
                                   self.page_size)
            payload, pages_after = packed.payload_size, packed.num_pages
            physical, repacked = packed.physical_bytes, True
        else:
            payload = sum(algorithm.compress(leaf.records,
                                             self.leaf_schema).payload_size
                          for leaf in self._tree.leaves())
            pages_after = pages_before
            physical = pages_before * self.page_size
        return CompressionResult(
            algorithm=algorithm.name, accounting=accounting,
            uncompressed_bytes=uncompressed,
            compressed_bytes=payload if accounting == "payload"
            else physical,
            row_count=self.num_entries, pages_before=pages_before,
            pages_after=pages_after,
            details={"compressed_payload": payload, "repacked": repacked})

    #: The oracle has one sizing path: it compresses.
    estimate_compression = compress
