"""Dictionary compression — Section II-A / III-B of the paper.

Each column's distinct values are stored once in a dictionary and every
row stores a small pointer instead of the value. Commercial systems apply
this *per page* with the dictionary in-lined in the page (so lookups cost
no extra I/O); the paper additionally analyses a *simplified global
model* where one index-wide dictionary holds each distinct value once::

    CF_D = (d * k + n * p) / (n * k) = d/n + p/k        (simplified model)

This module implements the page-scoped algorithm; the simplified global
model lives in :mod:`repro.compression.global_dictionary` and shares the
same codec with ``scope = "index"``.

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

from repro.constants import DEFAULT_POINTER_BYTES, PAD_BYTE
from repro.errors import CompressionError
from repro.storage.schema import Schema
from repro.storage.types import (BigIntType, CharType, DataType, IntegerType,
                                 VarCharType)
from repro.compression.base import (CompressedBlock, CompressedColumn,
                                    CompressionAlgorithm)
from repro.compression.null_suppression import ns_header_bytes

EntryStorage = Literal["fixed", "null_suppressed"]


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
    """Column-level dictionary encode/decode shared by both scopes."""

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

    def size_of_column(self, dtype: DataType, view) -> int:
        """Vectorized payload of :meth:`compress_column`.

        Distinct values come from one ``np.unique`` over the column's
        comparison matrix; entry storage costs are then sized on the
        unique rows only. Bit-identical to the scalar loop, including
        the pointer-overflow failure mode.
        """
        from repro.compression import kernels

        if self.entry_storage == "fixed" \
                and not isinstance(dtype, VarCharType):
            # Entries cost cardinality x fixed width: only the count
            # is needed.
            distinct = kernels.distinct_count(view)
        else:
            uniques = kernels.unique_rows(view)
            distinct = int(uniques.shape[0])
        width = self.pointer_width(distinct)
        if distinct > (1 << (8 * width)):
            raise CompressionError(
                f"{distinct} dictionary entries exceed a "
                f"{width}-byte pointer")
        if isinstance(dtype, VarCharType):
            entries_payload = int(
                kernels.varchar_slice_lengths(uniques).sum())
        elif self.entry_storage == "fixed":
            entries_payload = distinct * dtype.fixed_size
        elif isinstance(dtype, CharType):
            entries_payload = distinct * ns_header_bytes(dtype) \
                + int(kernels.stripped_lengths(uniques).sum())
        elif isinstance(dtype, (IntegerType, BigIntType)):
            entry_view = kernels.ColumnView(dtype, distinct, matrix=uniques)
            entries_payload = distinct + int(
                kernels.minimal_int_widths(entry_view.int_values).sum())
        else:
            from repro.errors import KernelUnavailable

            raise KernelUnavailable(
                f"no dictionary size kernel for {dtype.name}")
        return entries_payload + view.count * width

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

    def __init__(self, pointer_bytes: int | None = DEFAULT_POINTER_BYTES,
                 entry_storage: EntryStorage = "fixed") -> None:
        self._codec = _DictionaryCodec(pointer_bytes, entry_storage)
        suffix = "" if pointer_bytes is not None else "_derived"
        self.name = f"dictionary{suffix}"

    @property
    def pointer_bytes(self) -> int | None:
        return self._codec.pointer_bytes

    @property
    def entry_storage(self) -> EntryStorage:
        return self._codec.entry_storage

    def compress(self, records: Sequence[bytes], schema: Schema,
                 ) -> CompressedBlock:
        if not records:
            raise CompressionError("cannot compress an empty record set")
        columns = self.columnize(records, schema)
        compressed = tuple(
            self._codec.compress_column(col.dtype, slices)
            for col, slices in zip(schema.columns, columns))
        return CompressedBlock(algorithm=self.name, row_count=len(records),
                               columns=compressed)

    def size_of(self, views, schema: Schema) -> int:
        """Vectorized per-page dictionary payload (``np.unique`` based)."""
        return sum(self._codec.size_of_column(col.dtype, view)
                   for col, view in zip(schema.columns, views))

    def decompress(self, block: CompressedBlock, schema: Schema,
                   ) -> list[bytes]:
        if len(block.columns) != len(schema):
            raise CompressionError(
                f"block has {len(block.columns)} columns, schema has "
                f"{len(schema)}")
        columns = [
            self._codec.decompress_column(col.dtype, comp.blob,
                                          block.row_count)
            for col, comp in zip(schema.columns, block.columns)]
        return self.recordize(columns)

    def cf_from_histogram(self, histogram, **layout) -> float:
        """Closed-form paged-dictionary CF on a sorted clustered layout."""
        from repro.core.cf_models import paged_dictionary_cf

        return paged_dictionary_cf(
            histogram, pointer_bytes=self._codec.pointer_bytes,
            entry_storage=self._codec.entry_storage, **layout)
