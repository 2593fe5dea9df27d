"""Repacking records into pages *after* compression.

Compressing pages in place does not reduce the number of allocated pages;
real systems rebuild the object so each page is refilled to capacity with
compressed data. This module performs that rebuild: records are taken in
key order, and each page holds as many of them as its codec compresses
within :func:`compressed_page_capacity`.

Appending a record never shrinks a page's payload under any registered
codec, so each page's end is found by search rather than by growing the
page one record at a time: starting where the previous page ended, the
record count doubles and then bisects. A record range is sized by the
codec's size kernel
(:meth:`~repro.compression.base.CompressionAlgorithm.size_of`) as one
range of one split of the joined records, so every probe shares that
split's derived arrays, or by its ``compress`` when the kernels are
off, do not cover it or reject the records. A range the
codec rejects (more dictionary entries than its pointers can address)
does not fit.

The interplay matters for page-scoped dictionary compression: packing
more rows per page lets one dictionary entry cover more occurrences,
which is exactly the paging effect (the ``Pg(i)`` term) the paper isolates
away in its simplified model — and which the `abl-paging` experiment
quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import PAGE_HEADER_SIZE
from repro.errors import CompressionError, EncodingError, KernelUnavailable
from repro.storage.record import join_records
from repro.storage.schema import Schema
from repro.compression import kernels
from repro.compression.base import CompressionAlgorithm

#: Bytes reserved in each compressed page for compression metadata
#: (anchor/prefix info pointers, dictionary offsets) beyond the normal
#: page header; mirrors the "CI structure" of SQL Server page compression.
COMPRESSION_INFO_BYTES: int = 8


@dataclass(frozen=True)
class RepackedPage:
    """One rebuilt page: which records landed on it and its payload size."""

    record_start: int
    record_count: int
    payload_size: int


@dataclass(frozen=True)
class RepackResult:
    """Outcome of repacking an index's records."""

    pages: tuple[RepackedPage, ...]
    page_size: int

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def payload_size(self) -> int:
        return sum(page.payload_size for page in self.pages)

    @property
    def physical_bytes(self) -> int:
        return self.num_pages * self.page_size


def compressed_page_capacity(page_size: int) -> int:
    """Payload budget of one compressed page."""
    capacity = page_size - PAGE_HEADER_SIZE - COMPRESSION_INFO_BYTES
    if capacity <= 0:
        raise CompressionError(
            f"page size {page_size} leaves no room for compressed payload")
    return capacity


def repack(records: Sequence[bytes], schema: Schema,
           algorithm: CompressionAlgorithm, page_size: int,
           ) -> RepackResult:
    """Refill pages with compressed records, in the given order.

    Each page holds as many records as its codec compresses without
    error into at most :func:`compressed_page_capacity` bytes. A record
    whose solo compressed size exceeds the capacity still gets its own
    page (the engine-level analogue of a jumbo record).
    """
    return repack_with_route(records, schema, algorithm, page_size)[0]


def repack_with_route(records: Sequence[bytes], schema: Schema,
                      algorithm: CompressionAlgorithm, page_size: int,
                      ) -> tuple[RepackResult, bool]:
    """:func:`repack`, and whether the size kernels sized every range."""
    if not records:
        raise CompressionError("cannot repack an empty record set")
    capacity = compressed_page_capacity(page_size)
    views: tuple[kernels.ColumnView, ...] | None = None
    if kernels.kernels_enabled():
        try:
            views = kernels.build_column_views(schema,
                                               *join_records(records))
        except EncodingError:
            pass  # malformed records: compress diagnoses them

    def payload(start: int, stop: int) -> int:
        nonlocal views
        if views is not None:
            try:
                return algorithm.size_of(
                    views, schema, np.array([start, stop], dtype=np.int64))
            except KernelUnavailable:
                views = None
        return algorithm.compress(records[start:stop], schema).payload_size

    def fitting_payload(start: int, stop: int) -> int | None:
        try:
            size = payload(start, stop)
        except CompressionError:
            return None
        return size if size <= capacity else None

    pages: list[RepackedPage] = []
    start = 0
    while start < len(records):
        remaining = len(records) - start
        # ``fits`` records are known to fit (the first always goes in),
        # ``over`` are known not to; double until one does not fit,
        # then bisect.
        fits, over = 1, remaining + 1
        size: int | None = None
        while over - fits > 1:
            probe = min(2 * fits, remaining) if over > remaining \
                else (fits + over) // 2
            probed = fitting_payload(start, start + probe)
            if probed is None:
                over = probe
            else:
                fits, size = probe, probed
        if size is None:
            size = payload(start, start + 1)
        pages.append(RepackedPage(start, fits, size))
        start += fits
    return RepackResult(tuple(pages), page_size), views is not None
