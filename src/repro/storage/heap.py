"""Heap files: a table's pages as one array of page images.

A :class:`HeapFile` is the primary storage for a table's rows. It holds
its pages as one ``uint8`` array of ``num_pages x page_size`` bytes,
each row the slotted-page image :meth:`Page.to_bytes` writes, plus the
byte position and length of every record, parsed from the slot
directories once. Records keep insertion order, page by page: the
``i``-th record is on page ``p`` where ``starts[p] <= i < starts[p +
1]``, in slot ``i - starts[p]``. ``p`` is the page holding the
record's last byte, so a row's RID is computed from its position,
never stored. A row draw is one gather from the array
(:meth:`gather`), a block draw takes whole pages
(:meth:`page_ordinals`), and a pickled heap is its page size and the
array.

Heaps are built by one packer, :meth:`HeapFile.from_records`, which
cuts encoded records into pages and writes every image at once;
:meth:`HeapFile.insert` is the incremental path and appends into the
same array, grown by doubling.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterator

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE, SLOT_SIZE
from repro.errors import PageFormatError, RecordNotFoundError
from repro.storage.page import (Page, PageType, check_page_size,
                                pack_bounds, parse_images, write_images)
from repro.storage.record import gather_spans, record_offsets
from repro.storage.rid import RID

#: Header fields, as ``Page.to_bytes`` packs them: page id and type at
#: byte 0, slot count and free offset at byte 5.
_ID_STRUCT = struct.Struct(">IB")
_HEADER_SLOTS = 5

_SLOT_STRUCT = struct.Struct(">HH")  # offset, length; also slots, free


def _reserve(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` if it is writable with ``size`` rows, else a grown copy."""
    if array.shape[0] >= size and array.flags.writeable:
        return array
    grown = np.zeros((max(size, 2 * array.shape[0]),) + array.shape[1:],
                     dtype=array.dtype)
    grown[:array.shape[0]] = array
    return grown


class HeapFile:
    """An append-only sequence of slotted data pages, as page images."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.page_size = page_size
        self._fingerprint: tuple[int, str] | None = None
        self._copies: dict[int, Page] = {}
        self._adopt(np.zeros((0, max(page_size, 0)), dtype=np.uint8),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(1, dtype=np.int64))

    def _adopt(self, images: np.ndarray, positions: np.ndarray,
               lengths: np.ndarray, starts: np.ndarray) -> None:
        # Arrays may hold spare rows past the counts (insert's growth).
        self._images = images
        self._positions = positions
        self._lengths = lengths
        self._starts = starts
        self._page_count = images.shape[0]
        self._count = lengths.size

    @classmethod
    def from_records(cls, buffer: np.ndarray, offsets: np.ndarray,
                     page_size: int = DEFAULT_PAGE_SIZE,
                     page_type: PageType = PageType.DATA,
                     bounds: np.ndarray | None = None) -> "HeapFile":
        """A heap holding ``buffer``'s records in order: the packer.

        ``buffer`` holds encoded records back to back and ``offsets``
        their ``n + 1`` fence posts. Pages fill as :meth:`insert`
        fills them, unless ``bounds`` (record positions where each page
        starts, plus ``n``) fixes the page boundaries, as an index's
        leaves do.
        """
        lengths = np.diff(offsets)
        if lengths.size and \
                int(lengths.max()) + SLOT_SIZE + PAGE_HEADER_SIZE > page_size:
            raise PageFormatError(
                f"record of {int(lengths.max())} bytes can never fit a "
                f"{page_size}-byte page")
        bounds = pack_bounds(lengths, page_size - PAGE_HEADER_SIZE) \
            if bounds is None else np.array(bounds, dtype=np.int64)
        images, positions = write_images(buffer, offsets, bounds,
                                         page_size, page_type)
        heap = cls(page_size=page_size)
        heap._adopt(images, positions, lengths, bounds)
        return heap

    @classmethod
    def from_images(cls, images: np.ndarray) -> "HeapFile":
        """A heap over stored ``(pages, page_size)`` page images.

        Every check :meth:`Page.from_bytes` makes is made here, for all
        pages at once (:func:`~repro.storage.page.parse_images`). The
        heap keeps ``images``, and :meth:`insert` writes into it when
        it is writable and has room.
        """
        heap = cls(page_size=images.shape[1])
        heap._adopt(*parse_images(images))
        return heap

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> RID:
        """Append a record, allocating a new page if needed."""
        size, page_size = len(record), self.page_size
        if size + SLOT_SIZE + PAGE_HEADER_SIZE > page_size:
            raise PageFormatError(
                f"record of {size} bytes can never fit a "
                f"{page_size}-byte page")
        page, count = self._page_count - 1, self._count
        slot = count - int(self._starts[page]) if page >= 0 else 0
        free = int(self._positions[count - 1]) - page * page_size \
            if slot else page_size
        new_page = page < 0 or \
            size + SLOT_SIZE > free - PAGE_HEADER_SIZE - SLOT_SIZE * slot
        if new_page:
            check_page_size(page_size)
            page, slot, free = page + 1, 0, page_size
            self._starts = _reserve(self._starts, page + 2)
            self._starts[page + 1] = count
            self._page_count = page + 1
        # Grows by doubling, and copies loaded or unpickled images, which
        # may be read-only.
        self._images = _reserve(self._images, page + 1)
        image = self._images[page]
        if new_page:
            _ID_STRUCT.pack_into(image, 0, page, int(PageType.DATA))
        free -= size
        image[free:free + size] = np.frombuffer(record, dtype=np.uint8)
        _SLOT_STRUCT.pack_into(image, PAGE_HEADER_SIZE + SLOT_SIZE * slot,
                               free, size)
        _SLOT_STRUCT.pack_into(image, _HEADER_SLOTS, slot + 1, free)
        self._positions = _reserve(self._positions, count + 1)
        self._lengths = _reserve(self._lengths, count + 1)
        self._positions[count] = page * page_size + free
        self._lengths[count] = size
        self._count = count + 1
        self._starts[page + 1] = count + 1
        self._copies.pop(page, None)
        return RID(page, slot)

    def insert_many(self, records: Iterator[bytes] | list[bytes],
                    ) -> list[RID]:
        """Append many records; returns their RIDs in order."""
        return [self.insert(record) for record in records]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def images(self) -> np.ndarray:
        """The page images, ``num_pages x page_size`` (read-only view)."""
        view = self._images[:self._page_count]
        view.flags.writeable = False
        return view

    def slot_counts(self) -> np.ndarray:
        """Records on each page (int64, one entry per page)."""
        return np.diff(self._starts[:self._page_count + 1])

    def _locate(self, ordinals: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Position, length and ``(page_id << 32) | slot`` of each ordinal.

        A record's page is the one holding its last byte, ``(position +
        length - 1) // page_size``: an empty record sits at its page's
        end, ``(page + 1) * page_size``, which plain division would put
        on the next page. Its slot is its ordinal less the page's first.
        """
        if ordinals.size and not (
                0 <= ordinals.min() and ordinals.max() < self._count):
            raise RecordNotFoundError(
                f"record ordinals outside [0, {self._count})")
        positions = self._positions[ordinals]
        lengths = self._lengths[ordinals]
        pages = (positions + lengths - 1) // self.page_size
        return positions, lengths, \
            (pages << 32) | (ordinals - self._starts[pages])

    def gather(self, ordinals: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Records at insertion ordinals, in one buffer: the row draw.

        ``ordinals`` (int64, may repeat or arrive unsorted) count
        records in insertion order. Returns the records back to back
        (``uint8``), their ``n + 1`` int64 fence posts, and an int64
        ``(page_id << 32) | slot`` per record, its page found from its
        stored position (:meth:`rid_at` finds it the same way).
        """
        ordinals = np.asarray(ordinals, dtype=np.int64)
        positions, lengths, rids = self._locate(ordinals)
        buffer = gather_spans(self._images.reshape(-1), positions, lengths)
        return buffer, record_offsets(lengths), rids

    def records_at(self, ordinals: np.ndarray,
                   ) -> tuple[list[bytes], np.ndarray]:
        """:meth:`gather`, with the records as byte strings."""
        buffer, offsets, rids = self.gather(ordinals)
        data, cuts = buffer.tobytes(), offsets.tolist()
        return [data[a:b] for a, b in zip(cuts, cuts[1:])], rids

    def page_ordinals(self, page_ids: np.ndarray) -> np.ndarray:
        """Insertion ordinals of every record on the given pages, in order."""
        page_ids = np.asarray(page_ids, dtype=np.int64)
        firsts = self._starts[page_ids]
        return gather_spans(np.arange(self._count, dtype=np.int64), firsts,
                            self._starts[page_ids + 1] - firsts)

    def rid_at(self, ordinal: int) -> RID:
        """RID of the ``ordinal``-th record inserted.

        Its page is the one holding its last byte, as in :meth:`gather`.
        """
        rid = int(self._locate(np.array([ordinal], dtype=np.int64))[2][0])
        return RID(rid >> 32, rid & 0xFFFFFFFF)

    def get(self, rid: RID) -> bytes:
        """Record bytes at ``rid``."""
        if not 0 <= rid.page_id < self._page_count:
            raise RecordNotFoundError(f"no page {rid.page_id} in heap")
        first = int(self._starts[rid.page_id])
        slots = int(self._starts[rid.page_id + 1]) - first
        if not 0 <= rid.slot < slots:
            raise RecordNotFoundError(
                f"slot {rid.slot} not in page {rid.page_id} "
                f"({slots} slots)")
        position = int(self._positions[first + rid.slot])
        return self._images.reshape(-1)[
            position:position + int(self._lengths[first + rid.slot])
        ].tobytes()

    def _page_records(self, page_id: int) -> list[bytes]:
        first, last = self._starts[page_id:page_id + 2].tolist()
        image = self._images[page_id].tobytes()
        base = page_id * self.page_size
        return [image[position - base:position - base + length]
                for position, length in zip(
                    self._positions[first:last].tolist(),
                    self._lengths[first:last].tolist())]

    def scan(self) -> Iterator[tuple[RID, bytes]]:
        """Iterate ``(rid, record)`` over all records in physical order."""
        for page_id in range(self._page_count):
            for slot, record in enumerate(self._page_records(page_id)):
                yield RID(page_id, slot), record

    def records(self) -> Iterator[bytes]:
        """Iterate record payloads in physical order."""
        for page_id in range(self._page_count):
            yield from self._page_records(page_id)

    def pages(self) -> Iterator[Page]:
        """Iterate the pages, as :meth:`page` returns them."""
        return (self.page(page_id) for page_id in range(self._page_count))

    def page(self, page_id: int) -> Page:
        """A :class:`Page` parsed from one page image.

        The copy is kept until the heap writes that page again; treat
        it as read-only, since changing it does not change the heap.
        """
        if not 0 <= page_id < self._page_count:
            raise RecordNotFoundError(f"no page {page_id} in heap")
        copy = self._copies.get(page_id)
        if copy is None:
            copy = self._copies[page_id] = Page.from_bytes(
                self._images[page_id].tobytes())
        return copy

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle as the page images — the heap's canonical on-disk form.

        Record positions, RIDs and the record count all follow from
        the images, so a restored heap is provably consistent with its
        storage.
        """
        return {"page_size": self.page_size, "images": self.images}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["page_size"])
        self._adopt(*parse_images(state["images"]))

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def content_fingerprint(self) -> str:
        """SHA-256 hex digest of the heap's page images.

        This is the content identity the persistent sample store keys
        on: two heaps holding byte-identical pages fingerprint equally
        regardless of process, object identity, or how they were built.
        Memoized per record count — heaps are append-only, so any
        mutation changes ``num_records`` and invalidates the memo.
        """
        cached = self._fingerprint
        if cached is not None and cached[0] == self._count:
            return cached[1]
        digest = hashlib.sha256()
        digest.update(f"heap:{self.page_size}:".encode("ascii"))
        digest.update(self.images)
        fingerprint = digest.hexdigest()
        self._fingerprint = (self._count, fingerprint)
        return fingerprint

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._count

    @property
    def num_pages(self) -> int:
        return self._page_count

    @property
    def payload_bytes(self) -> int:
        """Total record bytes across all pages."""
        return int(self._lengths[:self._count].sum())

    @property
    def physical_bytes(self) -> int:
        """Total allocated bytes: ``num_pages * page_size``."""
        return self._page_count * self.page_size

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HeapFile(pages={self.num_pages}, "
                f"records={self.num_records}, "
                f"page_size={self.page_size})")
