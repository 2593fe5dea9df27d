"""Composite PAGE compression — prefix + dictionary + null suppression.

SQL Server's PAGE compression (the setting behind the system the paper's
estimator ships in) stacks three passes per page:

1. row/null suppression — values lose their padding,
2. column prefix — the page-wide common prefix is factored out,
3. page dictionary — repeated remainders are replaced by pointers into an
   in-lined dictionary whose entries are themselves stored
   null-suppressed.

For a CHAR column on one page the stored size is::

    (c + |P|)                 # the common prefix, stored once
  + sum_entries (c + |rem|)   # dictionary of distinct remainders, NS'd
  + n * p                     # one pointer per row

Non-CHAR columns skip the prefix pass and go straight to the dictionary
with null-suppressed entries. This algorithm exists to exercise
SampleCF's algorithm-agnosticism on a realistic composite technique.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import DEFAULT_POINTER_BYTES, PAD_BYTE
from repro.errors import CompressionError
from repro.storage.schema import Schema
from repro.storage.types import CharType, DataType
from repro.compression.base import (CompressedBlock, CompressedColumn,
                                    CompressionAlgorithm)
from repro.compression.dictionary import _DictionaryCodec
from repro.compression.null_suppression import ns_header_bytes
from repro.compression.prefix import common_prefix

_MODE_DICT_ONLY = 0
_MODE_PREFIX_DICT = 1


class PageCompression(CompressionAlgorithm):
    """Prefix + dictionary + NS, applied per page and per column."""

    scope = "page"

    def __init__(self, pointer_bytes: int | None = DEFAULT_POINTER_BYTES,
                 ) -> None:
        self._codec = _DictionaryCodec(pointer_bytes,
                                       entry_storage="null_suppressed")
        self.name = "page"

    @property
    def pointer_bytes(self) -> int | None:
        return self._codec.pointer_bytes

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
            inner = self._codec.compress_column(dtype, slices)
            blob = bytes([_MODE_DICT_ONLY]) + inner.blob
            return CompressedColumn(blob, inner.payload_size)
        header = ns_header_bytes(dtype)
        stripped = [slice_.rstrip(PAD_BYTE) for slice_ in slices]
        prefix = common_prefix(stripped)
        remainders = [value[len(prefix):] for value in stripped]
        entries: dict[bytes, int] = {}
        pointers: list[int] = []
        for remainder in remainders:
            index = entries.setdefault(remainder, len(entries))
            pointers.append(index)
        width = self._codec.pointer_width(max(len(entries), 1))
        if len(entries) > (1 << (8 * width)):
            raise CompressionError(
                f"{len(entries)} dictionary entries exceed a "
                f"{width}-byte pointer")
        parts: list[bytes] = [
            bytes([_MODE_PREFIX_DICT]),
            len(prefix).to_bytes(header, "big"),
            prefix,
            len(entries).to_bytes(4, "big"),
            width.to_bytes(1, "big"),
        ]
        payload = header + len(prefix)
        for entry in entries:
            parts.append(len(entry).to_bytes(header, "big"))
            parts.append(entry)
            payload += header + len(entry)
        for pointer in pointers:
            parts.append(pointer.to_bytes(width, "big"))
        payload += len(pointers) * width
        return CompressedColumn(b"".join(parts), payload)

    def size_of(self, views, schema: Schema, bounds) -> int:
        """Vectorized composite payload: prefix + dictionary + NS.

        For a CHAR column a segment's distinct *remainders* biject onto
        its distinct stripped values (all share the segment's prefix),
        so the value codes give each segment's dictionary size, and the
        entries' NS sizes less one prefix each give its entry bytes.
        Non-CHAR columns take the null-suppressed-entry dictionary
        kernel.
        """
        from repro.compression.kernels import (segment_entries,
                                               segment_prefixes)

        total = 0
        for col, view in zip(schema.columns, views):
            dtype = col.dtype
            if not isinstance(dtype, CharType):
                total += self._codec.size_of_column(dtype, view, bounds)
                continue
            prefixes = segment_prefixes(view, bounds)
            distinct, entry_bytes = segment_entries(view, bounds)
            widths = self._codec.pointer_widths(distinct)
            total += prefixes.size * ns_header_bytes(dtype) \
                + int((prefixes * (1 - distinct)).sum()) \
                + int(entry_bytes.sum()) \
                + int((np.diff(bounds) * widths).sum())
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
            raise CompressionError("empty PAGE compression blob")
        mode = blob[0]
        body = blob[1:]
        if mode == _MODE_DICT_ONLY:
            return self._codec.decompress_column(dtype, body, count)
        if mode != _MODE_PREFIX_DICT or not isinstance(dtype, CharType):
            raise CompressionError(
                f"invalid PAGE mode {mode} for {dtype.name}")
        header = ns_header_bytes(dtype)
        prefix_len = int.from_bytes(body[0:header], "big")
        offset = header
        prefix = body[offset:offset + prefix_len]
        if len(prefix) != prefix_len:
            raise CompressionError("truncated PAGE prefix")
        offset += prefix_len
        entry_count = int.from_bytes(body[offset:offset + 4], "big")
        offset += 4
        width = body[offset]
        offset += 1
        entries: list[bytes] = []
        for _ in range(entry_count):
            entry_len = int.from_bytes(body[offset:offset + header], "big")
            offset += header
            entry = body[offset:offset + entry_len]
            if len(entry) != entry_len:
                raise CompressionError("truncated PAGE dictionary entry")
            offset += entry_len
            entries.append(entry)
        out: list[bytes] = []
        for _ in range(count):
            chunk = body[offset:offset + width]
            if len(chunk) != width:
                raise CompressionError("truncated PAGE pointer")
            pointer = int.from_bytes(chunk, "big")
            if pointer >= len(entries):
                raise CompressionError(
                    f"pointer {pointer} outside dictionary of "
                    f"{len(entries)}")
            offset += width
            value = prefix + entries[pointer]
            out.append(value.ljust(dtype.k, PAD_BYTE))
        if offset != len(body):
            raise CompressionError(
                f"{len(body) - offset} trailing bytes in PAGE blob")
        return out
