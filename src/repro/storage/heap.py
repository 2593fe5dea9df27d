"""Heap files: unordered collections of pages.

A :class:`HeapFile` is the primary storage for a table's rows. Records are
appended to the last page and a new page is allocated when the current one
fills. The heap exposes page-level iteration (needed by block-level
sampling) as well as record-level scans.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE
from repro.errors import PageFullError, RecordNotFoundError
from repro.storage.page import Page, PageType
from repro.storage.rid import RID


class HeapFile:
    """An append-only sequence of slotted data pages."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.page_size = page_size
        self._pages: list[Page] = []
        self._record_count = 0
        self._fingerprint: tuple[int, str] | None = None

    @classmethod
    def from_pages(cls, pages: Sequence[Page], page_size: int,
                   ) -> "HeapFile":
        """A heap over existing slotted pages, kept as they are.

        Page ``i`` must carry ``page_id == i``: RIDs are positional.
        """
        heap = cls(page_size=page_size)
        heap._pages = list(pages)
        heap._record_count = sum(page.slot_count for page in heap._pages)
        return heap

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> RID:
        """Append a record, allocating a new page if needed."""
        if not self._pages or not self._pages[-1].fits(record):
            self._pages.append(
                Page(self.page_size, page_id=len(self._pages),
                     page_type=PageType.DATA))
        page = self._pages[-1]
        try:
            slot = page.insert(record)
        except PageFullError:  # pragma: no cover - fits() guards this
            raise
        self._record_count += 1
        return RID(page.page_id, slot)

    def insert_many(self, records: Iterator[bytes] | list[bytes],
                    ) -> list[RID]:
        """Append many records; returns their RIDs in order."""
        return [self.insert(record) for record in records]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, rid: RID) -> bytes:
        """Record bytes at ``rid``."""
        if not 0 <= rid.page_id < len(self._pages):
            raise RecordNotFoundError(f"no page {rid.page_id} in heap")
        return self._pages[rid.page_id].get(rid.slot)

    def scan(self) -> Iterator[tuple[RID, bytes]]:
        """Iterate ``(rid, record)`` over all records in physical order."""
        for page in self._pages:
            for slot, record in enumerate(page.records()):
                yield RID(page.page_id, slot), record

    def records(self) -> Iterator[bytes]:
        """Iterate record payloads in physical order."""
        for page in self._pages:
            yield from page.records()

    def records_at(self, ordinals: np.ndarray,
                   ) -> tuple[list[bytes], np.ndarray]:
        """Records at insertion ordinals, with their locators.

        The row-sampling access path: ``ordinals`` (int64, may repeat
        or arrive unsorted) count records in insertion order, which is
        page order because the heap is append-only. Returns the
        records and an int64 ``(page_id << 32) | slot`` per record,
        locating every ordinal's page with one ``searchsorted``.
        """
        counts = np.fromiter((page.slot_count for page in self._pages),
                             dtype=np.int64, count=len(self._pages))
        starts = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        ordinals = np.asarray(ordinals, dtype=np.int64)
        if ordinals.size and not (
                0 <= ordinals.min() and ordinals.max() < starts[-1]):
            raise RecordNotFoundError(
                f"record ordinals outside [0, {int(starts[-1])})")
        page_ids = np.searchsorted(starts, ordinals, side="right") - 1
        slots = ordinals - starts[page_ids]
        pages = self._pages
        records = [pages[page_id].get(slot) for page_id, slot
                   in zip(page_ids.tolist(), slots.tolist())]
        return records, (page_ids << 32) | slots

    def pages(self) -> Iterator[Page]:
        """Iterate the underlying pages (for block sampling)."""
        return iter(self._pages)

    def page_view(self) -> list[Page]:
        """Zero-copy random-access view of the pages.

        Block sampling needs ``len()`` and indexed access; this returns
        the heap's own page list so hot callers avoid re-copying it per
        draw. Treat the result as read-only.
        """
        return self._pages

    def page(self, page_id: int) -> Page:
        """The page with the given id."""
        if not 0 <= page_id < len(self._pages):
            raise RecordNotFoundError(f"no page {page_id} in heap")
        return self._pages[page_id]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle as page images — the heap's canonical on-disk form.

        Everything else (record count, RIDs) is derivable from the
        pages, so serializing only the images keeps pickles minimal and
        makes a restored heap provably consistent with its storage.
        """
        return {"page_size": self.page_size,
                "images": [page.to_bytes() for page in self._pages]}

    def __setstate__(self, state: dict) -> None:
        self.page_size = state["page_size"]
        self._pages = [Page.from_bytes(image)
                       for image in state["images"]]
        self._record_count = sum(page.slot_count for page in self._pages)
        self._fingerprint = None

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
        if cached is not None and cached[0] == self._record_count:
            return cached[1]
        digest = hashlib.sha256()
        digest.update(f"heap:{self.page_size}:".encode("ascii"))
        for page in self._pages:
            digest.update(page.to_bytes())
        fingerprint = digest.hexdigest()
        self._fingerprint = (self._record_count, fingerprint)
        return fingerprint

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._record_count

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def payload_bytes(self) -> int:
        """Total record bytes across all pages."""
        return sum(page.payload_bytes for page in self._pages)

    @property
    def physical_bytes(self) -> int:
        """Total allocated bytes: ``num_pages * page_size``."""
        return len(self._pages) * self.page_size

    def __len__(self) -> int:
        return self._record_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HeapFile(pages={self.num_pages}, "
                f"records={self.num_records}, "
                f"page_size={self.page_size})")
