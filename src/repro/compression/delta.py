"""Delta encoding for integer columns — an extension algorithm.

Clustered indexes on integer keys (order ids, timestamps) hold leaf
records in key order, so consecutive values differ by small amounts.
Delta encoding stores the first value at full width and every subsequent
value as the minimal two's-complement representation of its difference
from the predecessor (with the usual 1-byte length header). On sorted
dense keys this approaches ~2 bytes/row regardless of the declared
width.

Non-integer columns fall back to plain null suppression, mirroring how
real systems pick a per-column encoding.

Stored size per column: ``(1 + width_first) + sum_{i>0} (1 + width(delta_i))``.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CompressionError
from repro.storage.schema import Schema
from repro.storage.types import (BigIntType, DataType, IntegerType,
                                 minimal_int_bytes)
from repro.compression.base import (CompressedBlock, CompressedColumn,
                                    CompressionAlgorithm)
from repro.compression.null_suppression import NullSuppression

_MODE_NS_FALLBACK = 0
_MODE_DELTA = 1


def _is_integer(dtype: DataType) -> bool:
    return isinstance(dtype, (IntegerType, BigIntType))


def delta_stored_size(previous: int | None, value: int) -> int:
    """Bytes one value costs: header + minimal width of (value - prev)."""
    if previous is None:
        return 1 + minimal_int_bytes(value)
    return 1 + minimal_int_bytes(value - previous)


class DeltaEncoding(CompressionAlgorithm):
    """Per-page delta encoding of integer columns."""

    scope = "page"
    name = "delta"

    def __init__(self) -> None:
        self._ns = NullSuppression()

    def compress(self, records: Sequence[bytes], schema: Schema,
                 ) -> CompressedBlock:
        if not records:
            raise CompressionError("cannot compress an empty record set")
        columns = self.columnize(records, schema)
        compressed = tuple(
            self._compress_column(col.dtype, slices)
            for col, slices in zip(schema.columns, columns))
        return CompressedBlock(algorithm=self.name, row_count=len(records),
                               columns=compressed)

    def _compress_column(self, dtype: DataType, slices: list[bytes],
                         ) -> CompressedColumn:
        if not _is_integer(dtype):
            inner = self._ns._compress_column(dtype, slices)
            blob = bytes([_MODE_NS_FALLBACK]) + inner.blob
            return CompressedColumn(blob, inner.payload_size)
        parts: list[bytes] = [bytes([_MODE_DELTA])]
        payload = 0
        previous: int | None = None
        for slice_ in slices:
            value = dtype.decode(slice_)
            stored = value if previous is None else value - previous
            width = minimal_int_bytes(stored)
            parts.append(width.to_bytes(1, "big"))
            parts.append(stored.to_bytes(width, "big", signed=True))
            payload += 1 + width
            previous = value
        return CompressedColumn(b"".join(parts), payload)

    def size_of(self, views, schema: Schema, bounds) -> int:
        """Vectorized delta payload: first values + widths of diffs.

        Each segment's first integer pays its NS size; every later row
        pays a 1-byte header plus the width of its difference from the
        row before, so the differences across segment boundaries drop
        out. Other columns pay their NS sizes, matching the scalar
        fallback.
        """
        low, high = int(bounds[0]), int(bounds[-1])
        firsts = bounds[:-1]
        total = 0
        for col, view in zip(schema.columns, views):
            if not _is_integer(col.dtype):
                total += int(view.ns_sizes[low:high].sum())
                continue
            widths = view.delta_widths
            total += (high - low - firsts.size) \
                + int(widths[low:high].sum()) - int(widths[firsts].sum()) \
                + int(view.ns_sizes[firsts].sum())
        return total

    def decompress(self, block: CompressedBlock, schema: Schema,
                   ) -> list[bytes]:
        if len(block.columns) != len(schema):
            raise CompressionError(
                f"block has {len(block.columns)} columns, schema has "
                f"{len(schema)}")
        columns = [
            self._decompress_column(col.dtype, comp.blob,
                                    block.row_count)
            for col, comp in zip(schema.columns, block.columns)]
        return self.recordize(columns)

    def _decompress_column(self, dtype: DataType, blob: bytes,
                           count: int) -> list[bytes]:
        if not blob:
            raise CompressionError("empty delta blob")
        mode = blob[0]
        body = blob[1:]
        if mode == _MODE_NS_FALLBACK:
            return self._ns._decompress_column(dtype, body, count)
        if mode != _MODE_DELTA or not _is_integer(dtype):
            raise CompressionError(
                f"invalid delta mode {mode} for {dtype.name}")
        out: list[bytes] = []
        offset = 0
        previous: int | None = None
        for _ in range(count):
            if offset >= len(body):
                raise CompressionError("truncated delta stream")
            width = body[offset]
            offset += 1
            chunk = body[offset:offset + width]
            if len(chunk) != width:
                raise CompressionError("truncated delta value")
            offset += width
            stored = int.from_bytes(chunk, "big", signed=True)
            value = stored if previous is None else previous + stored
            out.append(dtype.encode(value))
            previous = value
        if offset != len(body):
            raise CompressionError(
                f"{len(body) - offset} trailing bytes in delta blob")
        return out
