"""Heap-parity property suite: page-image heaps == pages filled one by one.

A :class:`~repro.storage.heap.HeapFile` keeps its pages as one array of
page images, written by one packer (``HeapFile.from_records``) or, one
record at a time, by ``HeapFile.insert``. The oracle fills
:class:`~repro.storage.page.Page` objects with ``Page.insert`` and
serialises them with ``Page.to_bytes``. Over the generators' CHAR
schemas plus VARCHAR, INTEGER and BIGINT columns, page sizes from
``MIN_PAGE_SIZE`` up and records that exactly fill a page,
``Table.from_columns``, ``Table.from_rows`` and one-at-a-time inserts
must all give the oracle's images byte for byte. Pinned fingerprints
hold the content identity store keys hash. Unpickling and loading a
saved table reject every corruption ``Page.from_bytes`` rejects; the
row and RID accessors agree on under-filled pages; and a block draw
over a heap equals the oracle's page-by-page draw over its pages.
"""

from __future__ import annotations

import io
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import MIN_PAGE_SIZE, PAGE_HEADER_SIZE, SLOT_SIZE
from repro.engine import materialize_table_sample
from repro.errors import EncodingError, PageFormatError, SchemaError
from repro.sampling.base import rows_for_fraction
from repro.sampling.block import BlockSampler
from repro.sampling.rng import make_rng
from repro.storage.filestore import load_heap, load_table, save_table
from repro.storage.heap import HeapFile
from repro.storage.index import Index, IndexKind
from repro.storage.page import Page, PageType
from repro.storage.record import decode_record, encode_record
from repro.storage.rid import RID
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.table import Table
from repro.workloads.generators import (histogram_to_table, make_histogram,
                                        make_multicolumn_table)
from tests.btree_oracle import block_draw, leaf_pages


def oracle_images(records: list[bytes], page_size: int,
                  page_type: PageType = PageType.DATA) -> bytes:
    """Pages filled with ``Page.insert`` and serialised, concatenated."""
    pages: list[Page] = []
    for record in records:
        if not pages or not pages[-1].fits(record):
            pages.append(Page(page_size, page_id=len(pages),
                              page_type=page_type))
        pages[-1].insert(record)
    return b"".join(page.to_bytes() for page in pages)


def dictionary_columns(schema: Schema, rows: list[tuple]) -> list[tuple]:
    """``rows`` as ``from_columns`` input: distinct values and codes."""
    columns = []
    for position in range(len(schema)):
        values = list(dict.fromkeys(row[position] for row in rows))
        lookup = {value: code for code, value in enumerate(values)}
        columns.append((values, np.array(
            [lookup[row[position]] for row in rows], dtype=np.int64)))
    return columns


# ----------------------------------------------------------------------
# Strategies: a schema and rows for it
# ----------------------------------------------------------------------
CHARS = st.text(st.characters(min_codepoint=0, max_codepoint=255),
                max_size=12)

COLUMN_TYPES = {
    "char": lambda size: (f"char({size})",
                          CHARS.map(lambda text: text[:size])),
    "varchar": lambda size: (f"varchar({size})",
                             CHARS.map(lambda text: text[:size])),
    "integer": lambda size: ("integer",
                             st.integers(-2**31, 2**31 - 1)),
    "bigint": lambda size: ("bigint", st.integers(-2**63, 2**63 - 1)),
}


@st.composite
def tables(draw, fixed_only: bool = False):
    kinds = ("char", "integer", "bigint") if fixed_only \
        else tuple(COLUMN_TYPES)
    specs = draw(st.lists(st.tuples(st.sampled_from(kinds),
                                    st.integers(1, 12)),
                          min_size=1, max_size=3))
    columns, strategies = [], []
    for position, (kind, size) in enumerate(specs):
        spec, values = COLUMN_TYPES[kind](size)
        columns.append(Column.of(f"c{position}", spec))
        strategies.append(values)
    schema = Schema(columns)
    # Few distinct values per column, so codes repeat as generators'
    # do; the row order still comes from the draw.
    pools = [draw(st.lists(values, min_size=1, max_size=6))
             for values in strategies]
    picks = draw(st.lists(st.tuples(*[st.integers(0, len(pool) - 1)
                                      for pool in pools]),
                          max_size=80))
    rows = [tuple(pool[pick] for pool, pick in zip(pools, row))
            for row in picks]
    widest = max((len(encode_record(schema, row)) for row in rows),
                 default=0)
    page_size = draw(st.integers(
        max(MIN_PAGE_SIZE, PAGE_HEADER_SIZE + SLOT_SIZE + widest), 600))
    return schema, rows, page_size


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=tables())
def test_from_rows_and_inserts_match_the_page_oracle(case):
    schema, rows, page_size = case
    records = [encode_record(schema, row) for row in rows]
    expected = oracle_images(records, page_size)
    table = Table.from_rows("t", schema, rows, page_size=page_size)
    assert table.heap.images.tobytes() == expected
    incremental = Table("t", schema, page_size=page_size)
    incremental.insert_many(rows)
    assert incremental.heap.images.tobytes() == expected
    assert incremental.content_fingerprint() == table.content_fingerprint()
    assert list(table.rows()) == [decode_record(schema, record)
                                  for record in records]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=tables(fixed_only=True))
def test_from_columns_matches_the_page_oracle(case):
    schema, rows, page_size = case
    records = [encode_record(schema, row) for row in rows]
    table = Table.from_columns("t", schema,
                               dictionary_columns(schema, rows),
                               page_size=page_size)
    assert table.heap.images.tobytes() == oracle_images(records, page_size)
    assert table.num_rows == len(rows)


@pytest.mark.parametrize("page_size", [MIN_PAGE_SIZE, 100, 4096, 65535])
def test_records_that_exactly_fill_pages(page_size):
    """Full pages close exactly where the page size says they do."""
    width = 20
    per_page = (page_size - PAGE_HEADER_SIZE) // (width + SLOT_SIZE)
    page_size = PAGE_HEADER_SIZE + per_page * (width + SLOT_SIZE)
    if page_size < MIN_PAGE_SIZE:
        pytest.skip("no exactly-filled page of this size")
    schema = single_char_schema(width)
    rows = [(f"v{i % 7}",) for i in range(3 * per_page)]
    records = [encode_record(schema, row) for row in rows]
    table = Table.from_columns("t", schema,
                               dictionary_columns(schema, rows),
                               page_size=page_size)
    assert table.heap.num_pages == 3
    assert table.heap.images.tobytes() == oracle_images(records, page_size)
    # Variable widths summing to one page exactly, then one byte over.
    lengths = [page_size - PAGE_HEADER_SIZE - 2 * SLOT_SIZE - 7, 7, 1]
    varied = [bytes([i]) * length for i, length in enumerate(lengths)]
    heap = HeapFile(page_size=page_size)
    heap.insert_many(varied)
    assert heap.num_pages == 2
    assert heap.images.tobytes() == oracle_images(varied, page_size)


PINNED = [
    (lambda: histogram_to_table(make_histogram(5000, 100, 16, seed=3),
                                seed=3),
     "53c2a3635a00510ed69fee714c05d3e10a494d45f4c853ab94f55e00b7f0e4b0"),
    (lambda: make_multicolumn_table(
        "orders", 3000, [("status", 10, 6), ("customer", 24, 500)],
        page_size=4096, seed=9),
     "0ae6abeab88251770156a28281601358e744c42ff835214746669f104e92269f"),
    (lambda: Table.from_rows(
        "v", Schema([Column.of("s", "varchar(12)"),
                     Column.of("n", "integer")]),
        [("v%d" % (i % 37) + " " * (i % 3), i * 7919 - 50000)
         for i in range(2000)], page_size=1024),
     "50b7dfef911019f5307b4f904baf7268af776a84ca83ef1a9e5cdb6091ec8ff7"),
]


@pytest.mark.parametrize("build, fingerprint", PINNED)
def test_pinned_fingerprints(build, fingerprint):
    """Content identity (and so every store key) survives the heap."""
    table = build()
    assert table.content_fingerprint() == fingerprint
    restored = pickle.loads(pickle.dumps(table,
                                         protocol=pickle.HIGHEST_PROTOCOL))
    assert restored.content_fingerprint() == fingerprint


def test_from_columns_rejects_what_from_rows_rejects():
    schema = Schema([Column.of("a", "char(3)"), Column.of("n", "integer")])
    ok = [(["x", "y"], np.array([0, 1])), ([1], np.array([0, 0]))]
    with pytest.raises(EncodingError):
        Table.from_columns("t", schema, [(["toolong"], np.array([0])),
                                         ([1], np.array([0]))])
    with pytest.raises(EncodingError):
        Table.from_columns("t", schema, [ok[0], ([2**40], np.array([0, 0]))])
    with pytest.raises(SchemaError):
        Table.from_columns("t", schema, [ok[0], ([1], np.array([0, 1]))])
    with pytest.raises(SchemaError):
        Table.from_columns("t", schema, [ok[0], ([1], np.array([0]))])
    with pytest.raises(SchemaError):
        Table.from_columns("t", schema, ok[:1])
    varchar = Schema([Column.of("s", "varchar(4)")])
    with pytest.raises(SchemaError):
        Table.from_columns("t", varchar, [(["ab"], np.array([0]))])


# ----------------------------------------------------------------------
# Unpickling and loading reject what Page.from_bytes rejects
# ----------------------------------------------------------------------
def _bad_type(image: bytearray) -> None:
    image[4] = 250


def _directory_overrun(image: bytearray) -> None:
    image[5:7] = (0xFFFF).to_bytes(2, "big")


def _slot_outside(image: bytearray) -> None:
    image[PAGE_HEADER_SIZE:PAGE_HEADER_SIZE + 2] = b"\xff\xff"


def _slot_in_header(image: bytearray) -> None:
    image[PAGE_HEADER_SIZE:PAGE_HEADER_SIZE + 2] = (3).to_bytes(2, "big")


def _overflow(image: bytearray) -> None:
    # Every slot claims the whole tail: each fits, together they overflow.
    slots = int.from_bytes(image[5:7], "big")
    for slot in range(slots):
        at = PAGE_HEADER_SIZE + SLOT_SIZE * slot
        image[at:at + 4] = (PAGE_HEADER_SIZE + SLOT_SIZE * slots).to_bytes(
            2, "big") + (len(image) - PAGE_HEADER_SIZE - SLOT_SIZE
                         * slots).to_bytes(2, "big")


def _payload_over_directory(image: bytearray) -> None:
    # Three slots laid out as ``to_bytes`` lays them out, except that
    # the last payload runs into the slot directory.
    size = len(image)
    length = (size - PAGE_HEADER_SIZE - 3 * SLOT_SIZE) // 3 + SLOT_SIZE
    image[5:9] = (3).to_bytes(2, "big") + (size - 3 * length).to_bytes(
        2, "big")
    for slot in range(3):
        at = PAGE_HEADER_SIZE + SLOT_SIZE * slot
        image[at:at + 4] = (size - (slot + 1) * length).to_bytes(
            2, "big") + length.to_bytes(2, "big")


CORRUPTIONS = [_bad_type, _directory_overrun, _slot_outside,
               _slot_in_header, _overflow, _payload_over_directory]


def corrupted_table(corrupt) -> tuple[Table, bytes]:
    """A 3-page table, and its page images with page 1 corrupted."""
    table = make_multicolumn_table("t", 60, [("a", 12, 5), ("b", 8, 9)],
                                   page_size=512, seed=4)
    images = bytearray(table.heap.images.tobytes())
    page = bytearray(images[512:1024])
    corrupt(page)
    with pytest.raises(PageFormatError):
        Page.from_bytes(bytes(page))
    images[512:1024] = page
    return table, bytes(images)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_unpickle_rejects_page_corruption(corrupt):
    table, images = corrupted_table(corrupt)
    assert table.heap.num_pages >= 3
    healthy = table.heap.images.tobytes()
    blob = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
    assert blob.count(healthy) == 1  # the images travel as raw bytes
    with pytest.raises(PageFormatError):
        pickle.loads(blob.replace(healthy, images))


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_load_table_rejects_page_corruption(corrupt, tmp_path):
    table, images = corrupted_table(corrupt)
    path = tmp_path / "t.rpr"
    save_table(table, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - len(images)] + images)
    with pytest.raises(PageFormatError):
        load_table(path)


def test_too_small_page_images_rejected():
    size = MIN_PAGE_SIZE - 1
    with pytest.raises(PageFormatError):
        Page.from_bytes(bytes(size))
    heap = HeapFile.__new__(HeapFile)
    with pytest.raises(PageFormatError):
        heap.__setstate__({"page_size": size,
                           "images": np.zeros((1, size), dtype=np.uint8)})
    header = struct.pack(">8sIIQ", b"RPRHEAP1", size, 1, 0)
    with pytest.raises(PageFormatError):
        load_heap(io.BytesIO(header + bytes(size)))


def test_accepted_non_canonical_pages_load_canonical():
    """What ``from_bytes`` accepts out of layout, the heap re-lays out,
    as the ``from_bytes`` / ``to_bytes`` round trip did."""
    heap = HeapFile(page_size=128)
    heap.insert_many([b"abc", b"defgh", b"ij"])
    canonical = heap.images.tobytes()
    moved = bytearray(canonical)
    moved[9] = 1                                   # flags
    moved[60:63] = b"abc"                          # slot 0, in the gap
    moved[16:18] = (60).to_bytes(2, "big")
    stale = bytearray(canonical)
    stale[7:9] = (64).to_bytes(2, "big")           # free offset
    for image in (moved, stale):
        assert Page.from_bytes(bytes(image)).to_bytes() == canonical
        assert HeapFile.from_images(np.frombuffer(
            bytes(image), dtype=np.uint8).reshape(1, 128)
        ).images.tobytes() == canonical
    loaded = HeapFile.from_images(
        np.frombuffer(bytes(moved), dtype=np.uint8).reshape(1, 128))
    assert list(loaded.records()) == [b"abc", b"defgh", b"ij"]
    assert loaded.content_fingerprint() == heap.content_fingerprint()
    loaded.insert(b"k")
    heap.insert(b"k")
    assert loaded.images.tobytes() == heap.images.tobytes()


# ----------------------------------------------------------------------
# Accessors agree on under-filled pages; block draws match page draws
# ----------------------------------------------------------------------
def leaf_table() -> tuple[Index, Table]:
    """An index's leaf level at fill factor 0.7, and the table over it."""
    source = make_multicolumn_table("t", 700, [("a", 12, 40), ("b", 6, 9)],
                                    page_size=512, seed=2)
    index = Index.over(source, ["b", "a"], kind=IndexKind.NONCLUSTERED,
                       page_size=512, fill_factor=0.7)
    return index, index.leaf_table()


def test_page_copies_follow_inserts():
    heap = HeapFile(page_size=128)
    heap.insert(b"first")
    page = heap.page(0)
    assert heap.page(0) is page
    heap.insert(b"second")
    assert list(heap.page(0).records()) == [b"first", b"second"]
    assert list(page.records()) == [b"first"]  # a copy, not a view


def test_leaf_table_is_the_index_leaf_pages():
    index, table = leaf_table()
    oracle = list(leaf_pages(index))
    assert len(oracle) > 2
    assert any(page.free_bytes > 80 for page in oracle)  # under-filled
    assert table.heap.images.tobytes() == \
        b"".join(page.to_bytes() for page in oracle)
    assert all(page.page_type is PageType.INDEX_LEAF
               for page in table.pages())


def test_accessors_agree_on_under_filled_pages():
    _, table = leaf_table()
    heap = table.heap
    scanned = list(heap.scan())
    assert len(scanned) == table.num_rows
    ordinals = np.arange(table.num_rows)[::-1]
    records, locators = heap.records_at(ordinals)
    for ordinal, record, locator in zip(ordinals.tolist(), records,
                                        locators.tolist()):
        rid, expected = scanned[ordinal]
        assert record == expected == heap.get(rid)
        assert table.rid_at(ordinal) == rid == RID(locator >> 32,
                                                   locator & 0xFFFFFFFF)
        assert table.row_at(ordinal) == decode_record(table.schema,
                                                      expected)
    assert [rid.slot for rid, _ in scanned if rid.page_id == 1] == \
        list(range(table.heap.page(1).slot_count))


@pytest.mark.parametrize("fraction, seed", [(0.05, 1), (0.3, 7), (1.0, 3)])
def test_block_draw_over_heap_equals_draw_over_pages(fraction, seed):
    table = histogram_to_table(make_histogram(3000, 60, 14, seed=5),
                               page_size=256, seed=5)
    sample = materialize_table_sample(table, BlockSampler(), fraction,
                                      seed)
    r = rows_for_fraction(table.num_rows, fraction)
    pages = list(table.pages())
    records, rids, page_ids = block_draw(pages, r, make_rng(seed))
    data, cuts = sample.buffer.tobytes(), sample.offsets.tolist()
    assert [data[a:b] for a, b in zip(cuts, cuts[1:])] == records
    assert sample.rids.tolist() == [(rid.page_id << 32) | rid.slot
                                    for rid in rids]
    assert sample.extra == {"pages_sampled": len(page_ids),
                            "pages_available": len(pages)}
