"""Slotted pages with byte-accurate space accounting.

A :class:`Page` models one fixed-size block of storage: a 16-byte header,
a slot directory that grows from the front, and record payloads that grow
from the back — the classic slotted-page organisation. The implementation
keeps records as Python ``bytes`` for convenience but tracks offsets and
free space *exactly* as the on-disk layout would, and it can round-trip
through a full ``page_size``-byte image (:meth:`to_bytes` /
:meth:`from_bytes`), which the tests use to prove the accounting honest.
:func:`write_images` and :func:`parse_images` are the same layout for a
whole stack of pages at once, which is how a heap file stores its pages.

Two size views matter for compression-fraction work:

* ``payload_bytes`` — the record bytes only. Dividing compressed payload
  by uncompressed payload reproduces the paper's analytical model with no
  structural noise.
* ``used_bytes`` — header + slot directory + payload: what the page really
  consumes. This powers the engine's ``physical`` accounting mode.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Iterator

import numpy as np

from repro.constants import (MIN_PAGE_SIZE, PAGE_HEADER_SIZE, SLOT_SIZE)
from repro.errors import PageFormatError, PageFullError, RecordNotFoundError
from repro.storage.record import gather_spans, record_offsets


class PageType(IntEnum):
    """Role a page plays in the engine."""

    DATA = 0
    INDEX_LEAF = 1
    INDEX_INTERNAL = 2
    COMPRESSED = 3


_HEADER_STRUCT = struct.Struct(">IBHHBxxxxxx")  # id, type, slots, free, flags

#: ``_HEADER_STRUCT`` as a numpy record, for headers of many pages.
_HEADER_DTYPE = np.dtype([("page_id", ">u4"), ("page_type", "u1"),
                          ("slots", ">u2"), ("free", ">u2"),
                          ("flags", "u1"), ("pad", "V6")])

#: Byte where the header's flags start; the rest of it must be zero.
_HEADER_FLAGS = 9


def check_page_size(page_size: int) -> None:
    """Raise :class:`PageFormatError` for a size no page can have."""
    if page_size < MIN_PAGE_SIZE:
        raise PageFormatError(
            f"page size {page_size} below minimum {MIN_PAGE_SIZE}")
    if page_size > 0xFFFF:
        raise PageFormatError(
            f"page size {page_size} exceeds 65535 (2-byte slot offsets)")


class Page:
    """One slotted page.

    Parameters
    ----------
    page_size:
        Total size of the page in bytes (header included).
    page_id:
        Identifier recorded in the page header.
    page_type:
        Role marker stored in the header; informational.
    """

    def __init__(self, page_size: int, page_id: int = 0,
                 page_type: PageType = PageType.DATA) -> None:
        check_page_size(page_size)
        self.page_size = page_size
        self.page_id = page_id
        self.page_type = PageType(page_type)
        self._records: list[bytes] = []
        self._payload_bytes = 0

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Number of records stored on this page."""
        return len(self._records)

    @property
    def payload_bytes(self) -> int:
        """Total record bytes (no header, no slot directory)."""
        return self._payload_bytes

    @property
    def used_bytes(self) -> int:
        """Header + slot directory + record payload."""
        return PAGE_HEADER_SIZE + SLOT_SIZE * self.slot_count \
            + self._payload_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes still available for new records (and their slots)."""
        return self.page_size - self.used_bytes

    @staticmethod
    def usable_bytes(page_size: int) -> int:
        """Payload capacity of an empty page of ``page_size`` bytes.

        This is an upper bound that ignores the slot directory; use
        :func:`records_per_page` for the exact fixed-width row count.
        """
        return page_size - PAGE_HEADER_SIZE

    def fits(self, record: bytes) -> bool:
        """Whether ``record`` (plus its slot entry) fits in free space."""
        return len(record) + SLOT_SIZE <= self.free_bytes

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> int:
        """Append a record; returns its slot number.

        Raises :class:`PageFullError` if the record does not fit, and
        :class:`PageFormatError` for records that could never fit on any
        page of this size.
        """
        needed = len(record) + SLOT_SIZE
        if len(record) + SLOT_SIZE + PAGE_HEADER_SIZE > self.page_size:
            raise PageFormatError(
                f"record of {len(record)} bytes can never fit a "
                f"{self.page_size}-byte page")
        if needed > self.free_bytes:
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_bytes} bytes free)",
                record_bytes=len(record), free_bytes=self.free_bytes)
        self._records.append(bytes(record))
        self._payload_bytes += len(record)
        return len(self._records) - 1

    def get(self, slot: int) -> bytes:
        """Record bytes stored at ``slot``."""
        if not 0 <= slot < len(self._records):
            raise RecordNotFoundError(
                f"slot {slot} not in page {self.page_id} "
                f"({len(self._records)} slots)")
        return self._records[slot]

    def records(self) -> Iterator[bytes]:
        """Iterate over record payloads in slot order."""
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Page(id={self.page_id}, type={self.page_type.name}, "
                f"slots={self.slot_count}, used={self.used_bytes}/"
                f"{self.page_size})")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def __reduce__(self) -> tuple:
        """Pickle as the canonical on-disk image.

        Round-tripping through :meth:`to_bytes`/:meth:`from_bytes` keeps
        pickles honest (whatever the image format can't express, pickle
        can't smuggle).
        """
        return (self.from_bytes, (self.to_bytes(),))

    def to_bytes(self) -> bytes:
        """Serialise to a full ``page_size``-byte on-disk image.

        Layout: header, then the slot directory (offset, length per
        record), free space, then record payloads packed at the page tail
        in reverse slot order (the classic layout where payload grows
        backwards toward the directory).
        """
        image = bytearray(self.page_size)
        free_offset = self.page_size
        directory: list[tuple[int, int]] = []
        for record in self._records:
            free_offset -= len(record)
            image[free_offset:free_offset + len(record)] = record
            directory.append((free_offset, len(record)))
        _HEADER_STRUCT.pack_into(
            image, 0, self.page_id, int(self.page_type),
            len(self._records), free_offset, 0)
        cursor = PAGE_HEADER_SIZE
        for offset, length in directory:
            struct.pack_into(">HH", image, cursor, offset, length)
            cursor += SLOT_SIZE
        return bytes(image)

    @classmethod
    def from_bytes(cls, image: bytes) -> "Page":
        """Parse a page image produced by :meth:`to_bytes`."""
        if len(image) < MIN_PAGE_SIZE:
            raise PageFormatError(
                f"page image of {len(image)} bytes is too small")
        page_id, raw_type, slots, free_offset, _flags = \
            _HEADER_STRUCT.unpack_from(image, 0)
        try:
            page_type = PageType(raw_type)
        except ValueError as exc:
            raise PageFormatError(f"unknown page type {raw_type}") from exc
        page = cls(len(image), page_id=page_id, page_type=page_type)
        if PAGE_HEADER_SIZE + SLOT_SIZE * slots > len(image):
            raise PageFormatError("slot directory overruns page")
        directory = np.frombuffer(image, dtype=">u2",
                                  count=2 * slots,
                                  offset=PAGE_HEADER_SIZE)
        offsets = directory[0::2].astype(np.int64)
        lengths = directory[1::2].astype(np.int64)
        bad = (offsets + lengths > len(image)) | (offsets < PAGE_HEADER_SIZE)
        if bad.any():
            first = int(np.argmax(bad))
            raise PageFormatError(
                f"slot points outside page: offset={int(offsets[first])}, "
                f"length={int(lengths[first])}")
        page._records = [bytes(image[offset:offset + length])
                         for offset, length in zip(offsets.tolist(),
                                                   lengths.tolist())]
        page._payload_bytes = int(lengths.sum())
        if page.used_bytes > page.page_size:
            raise PageFormatError("page image overflows its declared size")
        return page


def records_per_page(page_size: int, record_size: int) -> int:
    """Exact number of fixed-width records a page can hold.

    Accounts for the header and one slot entry per record. This is the
    quantity the paged-dictionary model needs to translate a sorted value
    histogram into page runs (the paper's ``Pg(i)``).
    """
    if record_size <= 0:
        raise PageFormatError(f"record size must be positive, got {record_size}")
    capacity = (page_size - PAGE_HEADER_SIZE) // (record_size + SLOT_SIZE)
    if capacity <= 0:
        raise PageFormatError(
            f"a {record_size}-byte record does not fit a "
            f"{page_size}-byte page")
    return capacity


def pack_bounds(lengths: np.ndarray, budget: int) -> np.ndarray:
    """Record positions where each page starts, plus ``n``.

    Records go to pages in order; a page takes records while their
    bytes plus one slot entry each stay within ``budget``, and always
    at least one record. Records of one width fill every page but the
    last with ``max(1, budget // (width + SLOT_SIZE))`` of them, in
    closed form; mixed widths take one ``searchsorted`` per page.
    """
    if lengths.size and (lengths == lengths[0]).all():
        per_page = max(1, budget // (int(lengths[0]) + SLOT_SIZE))
        return np.append(np.arange(0, lengths.size, per_page,
                                   dtype=np.int64), lengths.size)
    used = record_offsets(lengths + SLOT_SIZE)
    bounds = [0]
    while bounds[-1] < lengths.size:
        start = bounds[-1]
        stop = int(np.searchsorted(used, used[start] + budget,
                                   side="right")) - 1
        bounds.append(max(stop, start + 1))
    return np.array(bounds, dtype=np.int64)


def write_images(buffer: np.ndarray, offsets: np.ndarray,
                 bounds: np.ndarray, page_size: int,
                 page_type: PageType = PageType.DATA,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Page images of records, as :meth:`Page.to_bytes` lays them out.

    ``buffer`` holds the records back to back, ``offsets`` their
    ``n + 1`` fence posts, and page ``p`` (``page_id == p``) takes
    records ``bounds[p]`` to ``bounds[p + 1]``. Returns the ``(pages,
    page_size)`` images and each record's byte position in them,
    counted from the first byte of page 0. Payloads go to each page's
    tail in reverse slot order: one reversed row slice per page for
    records of one width, a gather of that page's bytes otherwise.
    """
    pages = bounds.size - 1
    lengths = np.diff(offsets)
    counts = np.diff(bounds)
    payload = offsets[bounds[1:]] - offsets[bounds[:-1]]
    images = np.zeros((pages, page_size), dtype=np.uint8)
    if pages == 0:
        return images, np.zeros(0, dtype=np.int64)
    check_page_size(page_size)
    if (PAGE_HEADER_SIZE + SLOT_SIZE * counts + payload > page_size).any():
        raise PageFormatError("records overflow their page")
    page_of = np.repeat(np.arange(pages, dtype=np.int64), counts)
    # Slot i's payload ends where slot i - 1's begins, from the tail.
    in_page = page_size - (offsets[1:] - offsets[bounds[:-1]][page_of])
    header = np.zeros(pages, dtype=_HEADER_DTYPE)
    header["page_id"] = np.arange(pages)
    header["page_type"] = int(page_type)
    header["slots"] = counts
    header["free"] = page_size - payload
    images[:, :PAGE_HEADER_SIZE] = header.view(np.uint8).reshape(
        pages, PAGE_HEADER_SIZE)
    directory = np.empty((lengths.size, 2), dtype=">u2")
    directory[:, 0] = in_page
    directory[:, 1] = lengths
    entries = directory.view(np.uint8).reshape(-1, SLOT_SIZE)
    width = int(lengths[0]) if lengths.size and \
        (lengths == lengths[0]).all() else 0
    rows = buffer[offsets[0]:offsets[-1]].reshape(-1, width) \
        if width else None
    for page, (first, last) in enumerate(zip(bounds[:-1].tolist(),
                                              bounds[1:].tolist())):
        if first == last:
            continue
        image = images[page]
        image[PAGE_HEADER_SIZE:PAGE_HEADER_SIZE + SLOT_SIZE
              * (last - first)] = entries[first:last].reshape(-1)
        tail = image[page_size - int(payload[page]):]
        if rows is not None:
            tail[:] = rows[first:last][::-1].reshape(-1)
        else:
            tail[:] = gather_spans(buffer, offsets[first:last][::-1],
                                   lengths[first:last][::-1])
    return images, page_of * page_size + in_page


def parse_images(images: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                            np.ndarray]:
    """Where every record sits in a stack of page images.

    The vectorized :meth:`Page.from_bytes` over ``images`` of shape
    ``(pages, page_size)``: the same checks (image size, page type,
    slot directory overrun, slot outside the page, page overflow), each
    made for all pages at once, raising :class:`PageFormatError`. A
    page that passes but is not laid out as :meth:`Page.to_bytes` lays
    it out (payloads elsewhere than packed at the tail, a stale free
    offset, non-zero flags) is rewritten in that layout, as the
    ``from_bytes`` / ``to_bytes`` round trip rewrote it; bytes in a
    page's free gap are kept as read. Returns the images (a copy only
    if a read-only page had to be rewritten), each record's byte
    position in them (from the first byte of page 0), its length, and
    the ``pages + 1`` record fence posts of the pages.
    """
    pages, page_size = images.shape
    if pages == 0:
        return (images, np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64))
    if page_size < MIN_PAGE_SIZE:
        raise PageFormatError(
            f"page image of {page_size} bytes is too small")
    check_page_size(page_size)
    header = np.ascontiguousarray(images[:, :PAGE_HEADER_SIZE]) \
        .view(_HEADER_DTYPE)[:, 0]
    known = np.isin(header["page_type"], [int(kind) for kind in PageType])
    if not known.all():
        raise PageFormatError(
            f"unknown page type {int(header['page_type'][~known][0])}")
    counts = header["slots"].astype(np.int64)
    if (PAGE_HEADER_SIZE + SLOT_SIZE * counts > page_size).any():
        raise PageFormatError("slot directory overruns page")
    starts = record_offsets(counts)
    page_of = np.repeat(np.arange(pages, dtype=np.int64), counts)
    flat = images.reshape(-1)
    at = page_of * page_size + PAGE_HEADER_SIZE \
        + SLOT_SIZE * (np.arange(page_of.size) - starts[page_of])
    stored = (flat[at].astype(np.int64) << 8) | flat[at + 1]
    lengths = (flat[at + 2].astype(np.int64) << 8) | flat[at + 3]
    bad = (stored + lengths > page_size) | (stored < PAGE_HEADER_SIZE)
    if bad.any():
        first = int(np.argmax(bad))
        raise PageFormatError(
            f"slot points outside page: offset={int(stored[first])}, "
            f"length={int(lengths[first])}")
    ends = record_offsets(lengths)
    payload = ends[starts[1:]] - ends[starts[:-1]]
    if (PAGE_HEADER_SIZE + SLOT_SIZE * counts + payload > page_size).any():
        raise PageFormatError("page image overflows its declared size")
    in_page = page_size - (ends[1:] - ends[starts[:-1]][page_of])
    moved = np.bincount(page_of[stored != in_page], minlength=pages) > 0
    moved |= header["free"] != page_size - payload
    moved |= images[:, _HEADER_FLAGS:PAGE_HEADER_SIZE].any(axis=1)
    if moved.any() and not images.flags.writeable:
        images = images.copy()
    for page in np.flatnonzero(moved).tolist():
        images[page] = np.frombuffer(
            Page.from_bytes(images[page].tobytes()).to_bytes(),
            dtype=np.uint8)
    return images, page_of * page_size + in_page, lengths, starts
