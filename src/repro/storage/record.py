"""Row <-> bytes codecs.

Uncompressed records are stored in *row format*: the encodings of the
columns concatenated in schema order. Fixed-width columns occupy their
declared width; variable-width columns carry their own length prefix (see
:class:`repro.storage.types.VarCharType`). This is the representation the
compression algorithms take as input, and the representation whose total
size defines the denominator of the compression fraction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from repro.errors import EncodingError
from repro.storage.schema import Schema
from repro.storage.types import VarCharType


@lru_cache(maxsize=256)
def fixed_column_offsets(schema: Schema) -> tuple[int, ...] | None:
    """Fence-post byte offsets of a fully fixed-width schema's columns.

    Returns ``(0, w0, w0+w1, ..., row_width)`` — one more entry than
    there are columns — or ``None`` when any column is variable-width.
    Schemas hash by their column list, so every page split / columnize
    over the same schema shares one computed layout instead of
    rebuilding it per call.
    """
    offsets = [0]
    for col in schema.columns:
        size = col.dtype.fixed_size
        if size is None:
            return None
        offsets.append(offsets[-1] + size)
    return tuple(offsets)


def record_offsets(lengths: np.ndarray) -> np.ndarray:
    """Fence-post offsets (``n + 1`` int64 entries) of records."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def join_records(records: Sequence[bytes],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``records`` back to back in one ``uint8`` buffer, and offsets."""
    buffer = np.frombuffer(b"".join(records), dtype=np.uint8)
    return buffer, record_offsets(np.fromiter(
        map(len, records), dtype=np.int64, count=len(records)))


def gather_spans(source: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """``source[starts[i]:starts[i] + lengths[i]]`` for all ``i``, joined.

    Spans of one width are copied as rows of a sliding-window view of
    ``source``, indexed once per span. Otherwise the index has one
    int64 entry per gathered byte, eight bytes of index for each byte
    gathered (a whole-table gather for ground truth included).
    """
    if lengths.size and lengths[0] > 0 and (lengths == lengths[0]).all():
        windows = np.lib.stride_tricks.sliding_window_view(
            source, int(lengths[0]))
        return windows[starts].reshape(-1)
    ends = np.cumsum(lengths)
    index = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    index += np.repeat(starts - (ends - lengths), lengths)
    return source[index]


def encode_record(schema: Schema, row: Sequence[Any]) -> bytes:
    """Encode ``row`` to its uncompressed record bytes."""
    schema.validate_row(row)
    parts = [col.dtype.encode(value)
             for col, value in zip(schema.columns, row)]
    return b"".join(parts)


def decode_record(schema: Schema, data: bytes) -> tuple[Any, ...]:
    """Decode record bytes produced by :func:`encode_record`."""
    values: list[Any] = []
    offset = 0
    for col in schema.columns:
        dtype = col.dtype
        if dtype.fixed_size is not None:
            end = offset + dtype.fixed_size
            chunk = data[offset:end]
            if len(chunk) != dtype.fixed_size:
                raise EncodingError(
                    f"record truncated in column {col.name!r}")
            values.append(dtype.decode(chunk))
            offset = end
        elif isinstance(dtype, VarCharType):
            if offset + VarCharType.LENGTH_PREFIX_BYTES > len(data):
                raise EncodingError(
                    f"record truncated in column {col.name!r}")
            length = int.from_bytes(
                data[offset:offset + VarCharType.LENGTH_PREFIX_BYTES], "big")
            end = offset + VarCharType.LENGTH_PREFIX_BYTES + length
            chunk = data[offset:end]
            values.append(dtype.decode(chunk))
            offset = end
        else:  # pragma: no cover - no other variable types exist
            raise EncodingError(
                f"cannot decode variable-width type {dtype.name}")
    if offset != len(data):
        raise EncodingError(
            f"{len(data) - offset} trailing bytes after decoding record")
    return tuple(values)


def split_record(schema: Schema, data: bytes) -> list[bytes]:
    """Split record bytes into per-column byte slices, in schema order.

    Compression algorithms compress each column independently (Section
    II-A: "In the case of multi-column indexes, each column is compressed
    independently"), so they consume records in this split form.
    """
    offsets = fixed_column_offsets(schema)
    if offsets is not None:
        if len(data) != offsets[-1]:
            raise EncodingError(
                f"record of {len(data)} bytes does not match fixed "
                f"schema width {offsets[-1]}")
        return [data[offsets[i]:offsets[i + 1]]
                for i in range(len(offsets) - 1)]
    slices: list[bytes] = []
    offset = 0
    for col in schema.columns:
        dtype = col.dtype
        if dtype.fixed_size is not None:
            end = offset + dtype.fixed_size
        elif isinstance(dtype, VarCharType):
            if offset + VarCharType.LENGTH_PREFIX_BYTES > len(data):
                raise EncodingError(
                    f"record truncated in column {col.name!r}")
            length = int.from_bytes(
                data[offset:offset + VarCharType.LENGTH_PREFIX_BYTES], "big")
            if length > dtype.max_len:
                raise EncodingError(
                    f"value of length {length} exceeds {dtype.name}")
            end = offset + VarCharType.LENGTH_PREFIX_BYTES + length
        else:  # pragma: no cover
            raise EncodingError(
                f"cannot split variable-width type {dtype.name}")
        chunk = data[offset:end]
        if len(chunk) != end - offset:
            raise EncodingError(f"record truncated in column {col.name!r}")
        slices.append(chunk)
        offset = end
    if offset != len(data):
        raise EncodingError(
            f"{len(data) - offset} trailing bytes after splitting record")
    return slices


def split_records(schema: Schema, records: Sequence[bytes],
                  ) -> list[list[bytes]]:
    """Batch form of :func:`split_record`: one slice list per *column*.

    Splitting a whole page at once amortizes the schema walk: fixed
    schemas resolve their memoized offsets once for the entire batch,
    variable schemas pay one :func:`split_record` per record (as
    before) but build the transposed per-column lists directly.
    """
    columns: list[list[bytes]] = [[] for _ in schema.columns]
    offsets = fixed_column_offsets(schema)
    if offsets is not None:
        width = offsets[-1]
        spans = [(offsets[i], offsets[i + 1])
                 for i in range(len(offsets) - 1)]
        for record in records:
            if len(record) != width:
                raise EncodingError(
                    f"record of {len(record)} bytes does not match "
                    f"fixed schema width {width}")
            for position, (start, end) in enumerate(spans):
                columns[position].append(record[start:end])
        return columns
    for record in records:
        for position, chunk in enumerate(split_record(schema, record)):
            columns[position].append(chunk)
    return columns
