"""Per-page prefix compression — an extension algorithm.

SQL Server's PAGE compression begins with a *column prefix* pass: the
longest common prefix of a column's values on the page is stored once in
the page's compression-information area, and each value stores only its
remainder. We implement the same idea for CHAR columns (after pad
stripping); other types fall back to plain null suppression, which is
what real systems effectively do when no useful prefix exists.

Stored size per CHAR column on a page with common prefix ``P``::

    (c + |P|)  +  sum_i (c + l_i - |P|)

where ``c`` is the NS length header and ``l_i`` the null-suppressed
length of value *i*.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro.constants import PAD_BYTE
from repro.errors import CompressionError
from repro.storage.schema import Schema
from repro.storage.types import CharType, DataType
from repro.compression.base import (CompressedBlock, CompressedColumn,
                                    CompressionAlgorithm)
from repro.compression.null_suppression import (NullSuppression,
                                                ns_header_bytes)

_MODE_NS_FALLBACK = 0
_MODE_PREFIX = 1


def common_prefix(values: Sequence[bytes]) -> bytes:
    """Longest common prefix of a non-empty sequence of byte strings."""
    if not values:
        raise CompressionError("no values to take a prefix of")
    prefix = os.path.commonprefix(list(values))
    return bytes(prefix)


class PrefixCompression(CompressionAlgorithm):
    """Per-page longest-common-prefix factoring for CHAR columns."""

    scope = "page"
    name = "prefix"

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
        if not isinstance(dtype, CharType):
            inner = self._ns._compress_column(dtype, slices)
            blob = bytes([_MODE_NS_FALLBACK]) + inner.blob
            return CompressedColumn(blob, inner.payload_size)
        header = ns_header_bytes(dtype)
        stripped = [slice_.rstrip(PAD_BYTE) for slice_ in slices]
        prefix = common_prefix(stripped)
        parts: list[bytes] = [
            bytes([_MODE_PREFIX]),
            len(prefix).to_bytes(header, "big"),
            prefix,
        ]
        payload = header + len(prefix)
        for value in stripped:
            remainder = value[len(prefix):]
            parts.append(len(remainder).to_bytes(header, "big"))
            parts.append(remainder)
            payload += header + len(remainder)
        return CompressedColumn(b"".join(parts), payload)

    def size_of(self, views, schema: Schema, bounds) -> int:
        """Vectorized prefix payload: segment prefixes + NS sizes.

        Per CHAR column and segment the closed form is
        ``(c + |P|) + n*c + sum(l_i) - n*|P|``; other dtypes pay their
        NS sizes (the scalar fallback they compress with).
        """
        from repro.compression.kernels import segment_prefixes

        low, high = int(bounds[0]), int(bounds[-1])
        total = 0
        for col, view in zip(schema.columns, views):
            total += int(view.ns_sizes[low:high].sum())
            if isinstance(col.dtype, CharType):
                prefixes = segment_prefixes(view, bounds)
                total += prefixes.size * ns_header_bytes(col.dtype) \
                    + int((prefixes * (1 - np.diff(bounds))).sum())
        return total

    def decompress(self, block: CompressedBlock, schema: Schema,
                   ) -> list[bytes]:
        if len(block.columns) != len(schema):
            raise CompressionError(
                f"block has {len(block.columns)} columns, schema has "
                f"{len(schema)}")
        columns = [
            self._decompress_column(col.dtype, comp.blob, block.row_count)
            for col, comp in zip(schema.columns, block.columns)]
        return self.recordize(columns)

    def _decompress_column(self, dtype: DataType, blob: bytes, count: int,
                           ) -> list[bytes]:
        if not blob:
            raise CompressionError("empty prefix blob")
        mode = blob[0]
        body = blob[1:]
        if mode == _MODE_NS_FALLBACK:
            return self._ns._decompress_column(dtype, body, count)
        if mode != _MODE_PREFIX or not isinstance(dtype, CharType):
            raise CompressionError(
                f"invalid prefix mode {mode} for {dtype.name}")
        header = ns_header_bytes(dtype)
        prefix_len = int.from_bytes(body[0:header], "big")
        offset = header
        prefix = body[offset:offset + prefix_len]
        if len(prefix) != prefix_len:
            raise CompressionError("truncated common prefix")
        offset += prefix_len
        out: list[bytes] = []
        for _ in range(count):
            rem_len = int.from_bytes(body[offset:offset + header], "big")
            offset += header
            remainder = body[offset:offset + rem_len]
            if len(remainder) != rem_len:
                raise CompressionError("truncated prefix remainder")
            offset += rem_len
            out.append((prefix + remainder).ljust(dtype.k, PAD_BYTE))
        if offset != len(body):
            raise CompressionError(
                f"{len(body) - offset} trailing bytes in prefix blob")
        return out
