"""Run-length encoding (RLE) — an extension algorithm.

The paper's related-work tutorials ([7], [8]) treat run-length encoding
as a standard database compression technique. On a clustered index the
leaf records arrive in key order, so equal values form contiguous runs;
RLE stores each run once as ``(count, value)`` with the value itself
null-suppressed.

Being order-sensitive, RLE demonstrates that SampleCF generalises beyond
the two techniques the paper analyses: the estimator never looks inside
the algorithm, it just compresses the sampled index (which is also sorted,
so run structure is preserved in distribution).

Stored size per run: 4 bytes of run length + ``c + l`` bytes of
null-suppressed value.
"""

from __future__ import annotations

import numpy as np

from repro.constants import PAD_BYTE
from repro.errors import CompressionError
from repro.storage.types import (BigIntType, CharType, DataType, IntegerType,
                                 VarCharType, minimal_int_bytes)
from repro.compression.base import CompressedColumn, CompressionAlgorithm
from repro.compression.null_suppression import ns_header_bytes

#: Bytes used to store one run's repetition count.
RUN_COUNT_BYTES: int = 4


def _encode_value_body(dtype: DataType, slice_: bytes) -> bytes:
    """Null-suppressed body of one run's value."""
    if isinstance(dtype, CharType):
        return slice_.rstrip(PAD_BYTE)
    if isinstance(dtype, VarCharType):
        return slice_
    if isinstance(dtype, (IntegerType, BigIntType)):
        value = dtype.decode(slice_)
        width = minimal_int_bytes(value)
        return value.to_bytes(width, "big", signed=True)
    raise CompressionError(f"RLE unsupported for {dtype.name}")


def _decode_value_body(dtype: DataType, body: bytes) -> bytes:
    """Invert :func:`_encode_value_body` back to the raw column slice."""
    if isinstance(dtype, CharType):
        return body.ljust(dtype.k, PAD_BYTE)
    if isinstance(dtype, VarCharType):
        return body
    if isinstance(dtype, (IntegerType, BigIntType)):
        value = int.from_bytes(body, "big", signed=True)
        return dtype.encode(value)
    raise CompressionError(f"RLE unsupported for {dtype.name}")


def rle_run_stored_size(dtype: DataType, slice_: bytes) -> int:
    """Payload bytes of one run: count field + NS'd value.

    VARCHAR slices carry their own length prefix, so no extra header is
    charged for them.
    """
    body = _encode_value_body(dtype, slice_)
    if isinstance(dtype, VarCharType):
        return RUN_COUNT_BYTES + len(body)
    return RUN_COUNT_BYTES + ns_header_bytes(dtype) + len(body)


class RunLengthEncoding(CompressionAlgorithm):
    """Run-length encoding of page records, column by column."""

    scope = "page"
    name = "rle"

    def _compress_column(self, dtype: DataType, slices: list[bytes],
                         ) -> CompressedColumn:
        header = ns_header_bytes(dtype)
        runs: list[tuple[bytes, int]] = []
        for slice_ in slices:
            if runs and runs[-1][0] == slice_:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((bytes(slice_), 1))
        parts: list[bytes] = [len(runs).to_bytes(4, "big")]
        payload = 0
        for value, count in runs:
            body = _encode_value_body(dtype, value)
            parts.append(count.to_bytes(RUN_COUNT_BYTES, "big"))
            if not isinstance(dtype, VarCharType):
                parts.append(len(body).to_bytes(header, "big"))
            parts.append(body)
            payload += rle_run_stored_size(dtype, value)
        return CompressedColumn(b"".join(parts), payload)

    def _decompress_column(self, dtype: DataType, blob: bytes, count: int,
                           ) -> list[bytes]:
        header = ns_header_bytes(dtype)
        if len(blob) < 4:
            raise CompressionError("truncated RLE header")
        run_count = int.from_bytes(blob[0:4], "big")
        offset = 4
        out: list[bytes] = []
        for _ in range(run_count):
            repetitions = int.from_bytes(
                blob[offset:offset + RUN_COUNT_BYTES], "big")
            offset += RUN_COUNT_BYTES
            if isinstance(dtype, VarCharType):
                length = int.from_bytes(
                    blob[offset:offset + VarCharType.LENGTH_PREFIX_BYTES],
                    "big")
                end = offset + VarCharType.LENGTH_PREFIX_BYTES + length
                body = blob[offset:end]
                offset = end
            else:
                length = int.from_bytes(blob[offset:offset + header], "big")
                offset += header
                body = blob[offset:offset + length]
                if len(body) != length:
                    raise CompressionError("truncated RLE value")
                offset += length
            slice_ = _decode_value_body(dtype, body)
            out.extend([slice_] * repetitions)
        if len(out) != count:
            raise CompressionError(
                f"RLE expanded to {len(out)} rows, expected {count}")
        if offset != len(blob):
            raise CompressionError(
                f"{len(blob) - offset} trailing bytes in RLE blob")
        return out

    def _size_column(self, dtype: DataType, view, bounds) -> int:
        """Vectorized RLE payload: run starts + NS'd run values.

        A run starts where a value changes and at every segment start;
        each run pays its count field plus its value's NS size.
        """
        from repro.compression.kernels import segment_run_starts

        starts = segment_run_starts(view, bounds)
        values = view.ns_sizes[int(bounds[0]):int(bounds[-1])][starts]
        return int(np.count_nonzero(starts)) * RUN_COUNT_BYTES \
            + int(values.sum())

    def cf_from_histogram(self, histogram, **layout) -> float:
        """Closed-form RLE CF on a sorted clustered page layout."""
        from repro.core.cf_models import paged_rle_cf

        return paged_rle_cf(histogram, **layout)
