"""Dictionary compression — Section II-A / III-B of the paper.

Each column's distinct values are stored once in a dictionary and every
row stores a small pointer instead of the value. Commercial systems apply
this *per page* with the dictionary in-lined in the page (so lookups cost
no extra I/O); the paper additionally analyses a *simplified global
model* where one index-wide dictionary holds each distinct value once::

    CF_D = (d * k + n * p) / (n * k) = d/n + p/k        (simplified model)

This module implements the page-scoped algorithm; the simplified global
model (:mod:`repro.compression.global_dictionary`) is this class at
``scope = "index"``.

Parameters
----------
pointer_bytes:
    The paper's ``p``. ``None`` derives it from the dictionary size
    (``ceil(log2 d) / 8`` bytes, at least one), the "in general" rule the
    paper states; an integer fixes it, which is what the closed-form
    theorems assume. Default: 2 bytes (:data:`DEFAULT_POINTER_BYTES`).
entry_storage:
    ``"fixed"`` stores dictionary entries at full column width (the
    ``d * k`` term of the paper's model); ``"null_suppressed"`` stores
    them NS-compressed, as real systems do (an ablation knob).
"""

from __future__ import annotations

import math
from typing import Literal, Sequence

import numpy as np

from repro.constants import DEFAULT_POINTER_BYTES, PAD_BYTE
from repro.errors import CompressionError
from repro.storage.types import (BigIntType, CharType, DataType, IntegerType,
                                 VarCharType)
from repro.compression.base import CompressedColumn, CompressionAlgorithm
from repro.compression.null_suppression import ns_header_bytes

EntryStorage = Literal["fixed", "null_suppressed"]

#: ``2**(8w)`` for pointer widths ``w`` of 1 to 7 bytes: the most
#: dictionary entries a ``w``-byte pointer addresses.
_POINTER_LIMITS = np.array([1 << (8 * width) for width in range(1, 8)],
                           dtype=np.int64)


def pointer_bytes_for(distinct: int) -> int:
    """Derived pointer width: ``ceil(log2 d)`` bits rounded up to bytes."""
    if distinct <= 0:
        raise CompressionError(
            f"dictionary must have at least one entry, got {distinct}")
    bits = max(1, math.ceil(math.log2(max(distinct, 2))))
    return max(1, math.ceil(bits / 8))


def _entry_stored_size(dtype: DataType, slice_: bytes,
                       entry_storage: EntryStorage) -> int:
    """Bytes one dictionary entry occupies."""
    if entry_storage == "fixed":
        return len(slice_)
    header = ns_header_bytes(dtype)
    if isinstance(dtype, CharType):
        return header + len(slice_.rstrip(PAD_BYTE))
    if isinstance(dtype, VarCharType):
        return len(slice_)
    if isinstance(dtype, (IntegerType, BigIntType)):
        value = dtype.decode(slice_)
        return header + dtype.null_suppressed_length(value)
    raise CompressionError(f"dictionary unsupported for {dtype.name}")


class _DictionaryCodec:
    """Column-level dictionary encode, decode and size.

    The dictionary codec's column hooks (either scope) forward here, and
    PAGE compression uses it for its dictionary pass.
    """

    def __init__(self, pointer_bytes: int | None,
                 entry_storage: EntryStorage) -> None:
        if pointer_bytes is not None and pointer_bytes <= 0:
            raise CompressionError(
                f"pointer width must be positive, got {pointer_bytes}")
        if entry_storage not in ("fixed", "null_suppressed"):
            raise CompressionError(
                f"unknown entry storage {entry_storage!r}")
        self.pointer_bytes = pointer_bytes
        self.entry_storage: EntryStorage = entry_storage

    def pointer_width(self, distinct: int) -> int:
        """Actual pointer width used for a dictionary of ``distinct``."""
        if self.pointer_bytes is not None:
            return self.pointer_bytes
        return pointer_bytes_for(distinct)

    def __repr__(self) -> str:
        # Content-stable on purpose: the engine's canonical algorithm
        # identity (and therefore every persistent store key) reprs
        # instance state, and the default repr's memory address would
        # make equal configurations look distinct across processes.
        return (f"_DictionaryCodec(pointer_bytes={self.pointer_bytes}, "
                f"entry_storage={self.entry_storage!r})")

    def compress_column(self, dtype: DataType, slices: Sequence[bytes],
                        ) -> CompressedColumn:
        entries: dict[bytes, int] = {}
        pointers: list[int] = []
        for slice_ in slices:
            index = entries.setdefault(bytes(slice_), len(entries))
            pointers.append(index)
        distinct = len(entries)
        width = self.pointer_width(distinct)
        if distinct > (1 << (8 * width)):
            raise CompressionError(
                f"{distinct} dictionary entries exceed a "
                f"{width}-byte pointer")
        parts: list[bytes] = [
            distinct.to_bytes(4, "big"),
            width.to_bytes(1, "big"),
            (0 if self.entry_storage == "fixed" else 1).to_bytes(1, "big"),
        ]
        entries_payload = 0
        for value in entries:  # insertion order == pointer order
            stored = self._encode_entry(dtype, value)
            parts.append(len(stored).to_bytes(4, "big"))
            parts.append(stored)
            entries_payload += _entry_stored_size(
                dtype, value, self.entry_storage)
        for pointer in pointers:
            parts.append(pointer.to_bytes(width, "big"))
        payload = entries_payload + len(pointers) * width
        return CompressedColumn(b"".join(parts), payload)

    def pointer_widths(self, distinct: np.ndarray) -> np.ndarray:
        """:meth:`pointer_width` of each dictionary size in ``distinct``.

        Raises :class:`CompressionError` as :meth:`compress_column` does
        when a dictionary has more entries than its pointer addresses
        (only possible with a fixed ``pointer_bytes``).
        """
        if self.pointer_bytes is None:
            # The least w >= 1 with distinct <= 2**(8w): ceil(log2 d)
            # bits rounded up to bytes.
            return np.searchsorted(_POINTER_LIMITS, distinct) + 1
        limit = 1 << (8 * self.pointer_bytes)
        if int(distinct.max()) > limit:
            raise CompressionError(
                f"{int(distinct[distinct > limit][0])} dictionary entries "
                f"exceed a {self.pointer_bytes}-byte pointer")
        return np.full(distinct.size, self.pointer_bytes, dtype=np.int64)

    def size_of_column(self, dtype: DataType, view, bounds) -> int:
        """Vectorized payload of :meth:`compress_column`, per segment.

        Fixed entries of a fixed-width dtype cost the column width
        each, so they need only every segment's distinct count
        (:func:`~repro.compression.kernels.segment_distinct`: runs on
        a grouped view, one sort of value codes otherwise).
        Null-suppressed and VARCHAR entries cost each value's NS size,
        summed with the counts by one sort of value codes
        (:func:`~repro.compression.kernels.segment_entries`). Pointers
        are sized per segment. Bit-identical to the scalar loop,
        including the pointer-overflow failure mode.
        """
        from repro.compression.kernels import (segment_distinct,
                                               segment_entries)

        if self.entry_storage == "fixed" \
                and not isinstance(dtype, VarCharType):
            distinct = segment_distinct(view, bounds)
            entries = int(distinct.sum()) * dtype.fixed_size
        else:
            # Both a VARCHAR slice and an NS entry cost the value's NS
            # size.
            distinct, entry_bytes = segment_entries(view, bounds)
            entries = int(entry_bytes.sum())
        widths = self.pointer_widths(distinct)
        return entries + int((np.diff(bounds) * widths).sum())

    def _encode_entry(self, dtype: DataType, slice_: bytes) -> bytes:
        """Blob representation of one entry (always self-describing)."""
        if self.entry_storage == "fixed":
            return slice_
        if isinstance(dtype, CharType):
            return slice_.rstrip(PAD_BYTE)
        return slice_

    def _decode_entry(self, dtype: DataType, stored: bytes) -> bytes:
        if self.entry_storage == "fixed":
            return stored
        if isinstance(dtype, CharType):
            return stored.ljust(dtype.k, PAD_BYTE)
        return stored

    def decompress_column(self, dtype: DataType, blob: bytes, count: int,
                          ) -> list[bytes]:
        if len(blob) < 6:
            raise CompressionError("truncated dictionary header")
        distinct = int.from_bytes(blob[0:4], "big")
        width = blob[4]
        offset = 6
        entries: list[bytes] = []
        for _ in range(distinct):
            stored_len = int.from_bytes(blob[offset:offset + 4], "big")
            offset += 4
            stored = blob[offset:offset + stored_len]
            if len(stored) != stored_len:
                raise CompressionError("truncated dictionary entry")
            offset += stored_len
            entries.append(self._decode_entry(dtype, stored))
        out: list[bytes] = []
        for _ in range(count):
            chunk = blob[offset:offset + width]
            if len(chunk) != width:
                raise CompressionError("truncated dictionary pointer")
            pointer = int.from_bytes(chunk, "big")
            if pointer >= len(entries):
                raise CompressionError(
                    f"pointer {pointer} outside dictionary of "
                    f"{len(entries)}")
            out.append(entries[pointer])
            offset += width
        if offset != len(blob):
            raise CompressionError(
                f"{len(blob) - offset} trailing bytes in dictionary blob")
        return out


class DictionaryCompression(CompressionAlgorithm):
    """Page-scoped dictionary compression with in-lined dictionaries."""

    scope = "page"

    #: The name before its ``_derived`` suffix (``pointer_bytes=None``).
    name_prefix = "dictionary"

    def __init__(self, pointer_bytes: int | None = DEFAULT_POINTER_BYTES,
                 entry_storage: EntryStorage = "fixed") -> None:
        self._codec = _DictionaryCodec(pointer_bytes, entry_storage)
        suffix = "" if pointer_bytes is not None else "_derived"
        self.name = f"{self.name_prefix}{suffix}"

    @property
    def pointer_bytes(self) -> int | None:
        return self._codec.pointer_bytes

    @property
    def entry_storage(self) -> EntryStorage:
        return self._codec.entry_storage

    def _compress_column(self, dtype: DataType, slices: list[bytes],
                         ) -> CompressedColumn:
        return self._codec.compress_column(dtype, slices)

    def _decompress_column(self, dtype: DataType, blob: bytes, count: int,
                           ) -> list[bytes]:
        return self._codec.decompress_column(dtype, blob, count)

    def _size_column(self, dtype: DataType, view, bounds) -> int:
        """Vectorized dictionary payload, one dictionary per segment."""
        return self._codec.size_of_column(dtype, view, bounds)

    def cf_from_histogram(self, histogram, **layout) -> float:
        """Closed-form paged-dictionary CF on a sorted clustered layout."""
        from repro.core.cf_models import paged_dictionary_cf

        return paged_dictionary_cf(
            histogram, pointer_bytes=self._codec.pointer_bytes,
            entry_storage=self._codec.entry_storage, **layout)
