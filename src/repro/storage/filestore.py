"""File-backed persistence for heap files and tables.

Serialises a heap file to a single binary file — a fixed header followed
by the raw page images that :meth:`Page.to_bytes` produces — and loads
it back. Tables additionally persist their schema (as SQL-ish type
strings) in a text header so a saved table is self-describing.

Format (heap)::

    magic "RPRHEAP1" | u32 page_size | u32 page_count | u64 record_count
    page image * page_count

Format (table)::

    magic "RPRTBL1\n" | u16 name_len | name | u16 column_count
    per column: u16 len | "name type" utf-8
    heap section (as above)

This exists for engine fidelity (the on-disk layout is the slotted-page
image, byte for byte) and for examples that want to persist generated
workloads between runs.
"""

from __future__ import annotations

import io
import pathlib
import struct
from typing import BinaryIO

import numpy as np

from repro.errors import PageFormatError, SchemaError
from repro.storage.heap import HeapFile
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import parse_type

_HEAP_MAGIC = b"RPRHEAP1"
_TABLE_MAGIC = b"RPRTBL1\n"
_HEAP_HEADER = struct.Struct(">8sIIQ")


def save_heap(heap: HeapFile, target: BinaryIO) -> None:
    """Write a heap file's pages to a binary stream."""
    target.write(_HEAP_HEADER.pack(_HEAP_MAGIC, heap.page_size,
                                   heap.num_pages, heap.num_records))
    target.write(heap.images.data)


def load_heap(source: BinaryIO) -> HeapFile:
    """Read a heap file written by :func:`save_heap`."""
    header = source.read(_HEAP_HEADER.size)
    if len(header) != _HEAP_HEADER.size:
        raise PageFormatError("truncated heap header")
    magic, page_size, page_count, record_count = _HEAP_HEADER.unpack(
        header)
    if magic != _HEAP_MAGIC:
        raise PageFormatError(f"bad heap magic {magic!r}")
    images = []
    for _ in range(page_count):  # a page at a time: the count is unchecked
        image = source.read(page_size)
        if len(image) != page_size:
            raise PageFormatError("truncated page image")
        images.append(image)
    heap = HeapFile.from_images(np.frombuffer(
        b"".join(images), dtype=np.uint8).reshape(page_count, page_size))
    if heap.num_records != record_count:
        raise PageFormatError(
            f"header claims {record_count} records, pages hold "
            f"{heap.num_records}")
    return heap


def save_table(table: Table, path: str | pathlib.Path) -> None:
    """Persist a table (schema + heap) to ``path``."""
    buffer = io.BytesIO()
    name_bytes = table.name.encode("utf-8")
    buffer.write(_TABLE_MAGIC)
    buffer.write(struct.pack(">H", len(name_bytes)))
    buffer.write(name_bytes)
    buffer.write(struct.pack(">H", len(table.schema)))
    for column in table.schema:
        spec = f"{column.name} {column.dtype.name}".encode("utf-8")
        buffer.write(struct.pack(">H", len(spec)))
        buffer.write(spec)
    save_heap(table.heap, buffer)
    pathlib.Path(path).write_bytes(buffer.getvalue())


def load_table(path: str | pathlib.Path) -> Table:
    """Load a table written by :func:`save_table`.

    Indexes are not persisted (they are derived data); build one over
    the loaded table with :meth:`~repro.storage.index.Index.over`.
    """
    source = io.BytesIO(pathlib.Path(path).read_bytes())
    magic = source.read(len(_TABLE_MAGIC))
    if magic != _TABLE_MAGIC:
        raise SchemaError(f"bad table magic {magic!r}")
    (name_len,) = struct.unpack(">H", source.read(2))
    name = source.read(name_len).decode("utf-8")
    (column_count,) = struct.unpack(">H", source.read(2))
    columns = []
    for _ in range(column_count):
        (spec_len,) = struct.unpack(">H", source.read(2))
        spec = source.read(spec_len).decode("utf-8")
        column_name, _, type_spec = spec.partition(" ")
        if not type_spec:
            raise SchemaError(f"malformed column spec {spec!r}")
        columns.append(Column(column_name, parse_type(type_spec)))
    return Table.from_heap(name, Schema(columns), load_heap(source))
