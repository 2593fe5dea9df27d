"""Fixed-cost parity suite: the sample path's cheap forms == the old ones.

Every SampleCF estimate (the paper's Figure 2) draws rows, sorts them
into an index, packs its leaves and sizes them. Five steps of that path
compute their answer in a cheaper form than they used to, and each is
held here equal to the form it replaced, kept in this module as the
oracle:

* ``key_order``: a stable ``lexsort`` over the sort key's big-endian
  8-byte words == a stable argsort of the key's rows as ``np.void``,
  with a byte-compare distinct count;
* ``stripped_lengths``: one ``max`` down the transposed pad mask ==
  ``len(row.rstrip(b" "))``;
* ``pack_bounds``: a closed form for records of one width == the
  greedy ``searchsorted`` loop, one search per page;
* ``HeapFile.gather`` and ``rid_at``: a record's page from its stored
  position == a binary search of its ordinal among the page starts, on
  heaps built four ways, empty records included;
* ``segment_distinct``: run starts on a grouped view, a sort of value
  codes otherwise == ``segment_entries``' counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression.dictionary import DictionaryCompression
from repro.compression.kernels import (ColumnView, build_column_views,
                                       segment_distinct, segment_entries,
                                       stripped_lengths)
from repro.constants import MIN_PAGE_SIZE, PAGE_HEADER_SIZE, SLOT_SIZE
from repro.errors import CompressionError
from repro.storage.heap import HeapFile
from repro.storage.index import key_order
from repro.storage.page import Page, pack_bounds
from repro.storage.record import encode_record, join_records, record_offsets
from repro.storage.rid import RID
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import (BigIntType, CharType, IntegerType,
                                 VarCharType)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

_PAD = 0x20


# ----------------------------------------------------------------------
# key_order == the stable np.void argsort
# ----------------------------------------------------------------------
def oracle_sort_key(view: ColumnView) -> np.ndarray:
    """The per-column sort key, built with Python's ``rstrip``."""
    if isinstance(view.dtype, CharType):
        if view.matrix.min(initial=_PAD) >= _PAD:
            return view.matrix
        kept = np.array([len(bytes(row).rstrip(b" ")) for row in view.matrix],
                        dtype=np.int64)
        filled = np.where(np.arange(view.dtype.k) < kept[:, None],
                          view.matrix, 0).astype(np.uint8)
        return np.hstack([filled, kept.astype(">u2").view(np.uint8)
                          .reshape(-1, 2)])
    if isinstance(view.dtype, VarCharType):
        payloads = [bytes(view.payload[start + 2:start + length])
                    for start, length in zip(view.offsets.tolist(),
                                             view.lengths.tolist())]
        widest = max(map(len, payloads), default=0)
        return np.array([list(payload.ljust(widest, b"\0"))
                         + list(len(payload).to_bytes(2, "big"))
                         for payload in payloads],
                        dtype=np.uint8).reshape(view.count, widest + 2)
    return view.matrix


def void_key_order(views: list[ColumnView]) -> tuple[np.ndarray, int]:
    """``key_order`` as it was: a stable sort of ``np.void`` rows."""
    key = np.ascontiguousarray(np.hstack([oracle_sort_key(view)
                                          for view in views]))
    order = np.argsort(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                       kind="stable")
    ordered = key[order]
    distinct = int(np.count_nonzero(
        (ordered[1:] != ordered[:-1]).any(axis=1))) + 1 if order.size else 0
    return order, distinct


#: CHAR widths on both sides of a word boundary, and wide ones.
CHAR_WIDTHS = (1, 7, 8, 9, 24, 40, 300)

#: With bytes below the blank (the zero-filled route) and without (the
#: stored-bytes route).
CHAR_ALPHABETS = ("ab \x00\x01\x1f\xff", "ab ~\xff")

VARCHAR_ALPHABET = "ab \x00\xff"


def column_pool(spec: str, alphabet: str | None, size: int,
                rng: np.random.Generator) -> list:
    """``size`` values of one key column, sharing long prefixes.

    Values are cuts of one stem with one byte changed, so rows that
    agree on their first words differ in a later one. CHAR values lose
    their trailing blanks, which CHAR does not store.
    """
    if spec in ("integer", "bigint"):
        bits = 31 if spec == "integer" else 63
        edges = [-2 ** bits, 2 ** bits - 1, -1, 0, 1]
        return [edges[i] if i < len(edges) else
                int(rng.integers(-2 ** bits, 2 ** bits - 1, endpoint=True,
                                 dtype=np.int64))
                for i in rng.permutation(size + len(edges))[:size]]
    width = int(spec.split("(")[1][:-1])
    letters = list(alphabet)
    stem = rng.choice(letters, width)
    values = []
    for _ in range(size):
        value = stem.copy()
        value[rng.integers(width)] = rng.choice(letters)
        text = "".join(value[:rng.integers(width + 1)])
        values.append(text.rstrip(" ") if spec.startswith("char") else text)
    return values


@st.composite
def key_batches(draw):
    """1–3 key columns and their rows: pooled, all equal or distinct."""
    specs = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(CHAR_WIDTHS).map("char({})".format),
                  st.sampled_from(CHAR_ALPHABETS)),
        st.tuples(st.integers(1, 12).map("varchar({})".format),
                  st.just(VARCHAR_ALPHABET)),
        st.tuples(st.sampled_from(["integer", "bigint"]), st.none())),
        min_size=1, max_size=3))
    count = draw(st.sampled_from([0, 1, 2, 17, 200]))
    shape = draw(st.sampled_from(["pooled", "equal", "distinct"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pools = [column_pool(spec, alphabet,
                         {"pooled": max(1, count // 8), "equal": 1,
                          "distinct": count + 1}[shape], rng)
             for spec, alphabet in specs]
    rows = [tuple(pool[int(rng.integers(len(pool)))] for pool in pools)
            for _ in range(count)]
    if shape == "distinct":
        rows = list(dict.fromkeys(rows))
    return specs, rows


def key_views(batch) -> list[ColumnView]:
    specs, rows = batch
    schema = Schema([Column.of(f"c{i}", spec)
                     for i, (spec, _) in enumerate(specs)])
    records = [encode_record(schema, row) for row in rows]
    return list(build_column_views(schema, *join_records(records)))


@SETTINGS
@given(batch=key_batches())
@example(batch=([("char(9)", CHAR_ALPHABETS[0])], []))
@example(batch=([("char(40)", CHAR_ALPHABETS[1]), ("bigint", None)],
                [("ab", 5)]))
@example(batch=([("char(8)", CHAR_ALPHABETS[1])], [("ab ~",)] * 40))
@example(batch=([("char(300)", CHAR_ALPHABETS[0])],
                [("a" * 290 + tail,) for tail in
                 ("\x01", "", "b", "\x00", "", "\x01", " \x1f")]))
def test_key_order_is_the_stable_void_argsort(batch):
    views = key_views(batch)
    order, distinct = key_order(views)
    expected_order, expected_distinct = void_key_order(views)
    assert order.tolist() == expected_order.tolist()
    assert distinct == expected_distinct
    assert distinct == len(set(batch[1]))


# ----------------------------------------------------------------------
# stripped_lengths == rstrip
# ----------------------------------------------------------------------
@SETTINGS
@given(k=st.sampled_from([1, 2, 9, 40, 255, 256, 300]),
       kinds=st.lists(st.sampled_from(["random", "blank", "full", "mark"]),
                      max_size=30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stripped_lengths_is_rstrip(k, kinds, seed):
    """Random rows, all-blank rows, blank-free rows, and blank rows
    with one mark, at its last column included."""
    rng = np.random.default_rng(seed)
    matrix = np.full((len(kinds), k), _PAD, dtype=np.uint8)
    for row, kind in zip(matrix, kinds):
        if kind == "random":
            row[:] = rng.choice(np.array([_PAD, _PAD, 0, 0x1F, 0x21, 0xFF],
                                         dtype=np.uint8), k)
        elif kind == "full":
            row[:] = rng.integers(0x21, 0x100, k)
        elif kind == "mark":
            row[min(k - 1, int(rng.integers(k + 8)))] = 0
    lengths = stripped_lengths(matrix)
    assert lengths.dtype == np.int64
    assert lengths.tolist() == [len(bytes(row).rstrip(b" "))
                                for row in matrix]


# ----------------------------------------------------------------------
# pack_bounds == the greedy searchsorted loop
# ----------------------------------------------------------------------
def greedy_bounds(lengths: np.ndarray, budget: int) -> list[int]:
    """``pack_bounds`` as it was: one ``searchsorted`` per page."""
    used = record_offsets(lengths + SLOT_SIZE)
    bounds = [0]
    while bounds[-1] < lengths.size:
        start = bounds[-1]
        stop = int(np.searchsorted(used, used[start] + budget,
                                   side="right")) - 1
        bounds.append(max(stop, start + 1))
    return bounds


@SETTINGS
@given(count=st.one_of(st.sampled_from([0, 1]), st.integers(0, 400)),
       width=st.one_of(st.just(0), st.integers(0, 120)),
       mixed=st.booleans(),
       budget=st.one_of(st.integers(-20, 40), st.integers(0, 9000)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(count=10, width=48, mixed=False, budget=8176, seed=0)
@example(count=7, width=5, mixed=False, budget=8, seed=0)
@example(count=7, width=5, mixed=False, budget=9, seed=0)
@example(count=5, width=0, mixed=False, budget=3, seed=0)
def test_pack_bounds_is_the_greedy_loop(count, width, mixed, budget, seed):
    """One width (zero included) and mixed widths with zero lengths,
    at budgets below one record, exactly one, and many."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, width + 1, count) if mixed \
        else np.full(count, width, dtype=np.int64)
    bounds = pack_bounds(lengths, budget)
    assert bounds.dtype == np.int64
    assert bounds.tolist() == greedy_bounds(lengths, budget)


# ----------------------------------------------------------------------
# HeapFile.gather / rid_at == a binary search among the page starts
# ----------------------------------------------------------------------
def searched_rids(heap: HeapFile, ordinals: np.ndarray) -> list[int]:
    """RIDs as ``_locate`` found them: the page whose first record
    ordinal is the last at or below each ordinal."""
    starts = record_offsets(heap.slot_counts())
    pages = np.searchsorted(starts, ordinals, side="right") - 1
    return ((pages << 32) | (ordinals - starts[pages])).tolist()


def assert_rids_agree(heap: HeapFile, seed: int) -> None:
    count = heap.num_records
    rng = np.random.default_rng(seed)
    everything = np.arange(count, dtype=np.int64)
    drawn = rng.integers(0, count, 3 * count) if count \
        else np.zeros(0, dtype=np.int64)
    for ordinals in (everything, drawn):
        assert heap.gather(ordinals)[2].tolist() == \
            searched_rids(heap, ordinals)
    assert [heap.rid_at(i) for i in range(count)] == \
        [RID(rid >> 32, rid & 0xFFFFFFFF)
         for rid in searched_rids(heap, everything)]


heap_records = st.lists(st.one_of(st.just(b""), st.binary(max_size=40)),
                        max_size=60)
page_sizes = st.sampled_from([MIN_PAGE_SIZE, 80, 128, 256])


@SETTINGS
@given(records=heap_records, page_size=page_sizes,
       seed=st.integers(0, 2 ** 16))
@example(records=[b"x" * 44, b"", b"", b"y"], page_size=MIN_PAGE_SIZE,
         seed=0)
def test_rids_of_inserted_heaps(records, page_size, seed):
    """Inserts, empty records included (an empty record that opens a
    page sits at that page's end, the next page's first byte)."""
    heap = HeapFile(page_size)
    inserted = [heap.insert(record) for record in records]
    assert [heap.rid_at(i) for i in range(len(records))] == inserted
    assert_rids_agree(heap, seed)


@SETTINGS
@given(records=heap_records, page_size=page_sizes,
       empty_pages=st.lists(st.integers(0, 8), max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_rids_of_packed_and_loaded_heaps(records, page_size, empty_pages,
                                         seed):
    """``from_records``, and ``from_images`` over its pages with empty
    pages put in between."""
    packed = HeapFile.from_records(*join_records(records), page_size)
    assert_rids_agree(packed, seed)
    images = list(packed.images)
    for at in sorted(empty_pages, reverse=True):
        images.insert(min(at, len(images)), np.frombuffer(
            Page(page_size).to_bytes(), dtype=np.uint8))
    loaded = HeapFile.from_images(
        np.array(images, dtype=np.uint8).reshape(-1, page_size))
    assert [record for _, record in loaded.scan()] == records
    assert_rids_agree(loaded, seed)


@SETTINGS
@given(widths=st.lists(st.integers(1, 30), min_size=1, max_size=3),
       count=st.integers(0, 300), page_size=page_sizes,
       seed=st.integers(0, 2 ** 16))
def test_rids_of_column_built_tables(widths, count, page_size, seed):
    """``Table.from_columns`` over CHAR and BIGINT columns."""
    rng = np.random.default_rng(seed)
    columns = [Column(f"c{i}", CharType(width)) for i, width in
               enumerate(widths)] + [Column("n", BigIntType())]
    if sum(column.dtype.fixed_size for column in columns) + SLOT_SIZE \
            + PAGE_HEADER_SIZE > page_size:
        columns = columns[:1]
    schema = Schema(columns)
    values = [[text[:column.dtype.fixed_size] for text in ("", "a", "b c")]
              if isinstance(column.dtype, CharType) else [-1, 0, 2 ** 40]
              for column in schema.columns]
    table = Table.from_columns(
        "t", schema, [(pool, rng.integers(0, len(pool), count))
                      for pool in values], page_size=page_size)
    assert_rids_agree(table.heap, seed)


# ----------------------------------------------------------------------
# segment_distinct == segment_entries' counts
# ----------------------------------------------------------------------
@SETTINGS
@given(count=st.sampled_from([1, 2, 9, 60, 400]),
       distinct=st.sampled_from([1, 2, 7, 50, 500]),
       dtype=st.sampled_from([CharType(1), CharType(9), CharType(24),
                              IntegerType(), BigIntType()]),
       grouped=st.booleans(), cuts=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_segment_distinct_is_segment_entries_count(count, distinct, dtype,
                                                   grouped, cuts, seed):
    """At random bounds, over every row as one segment (an index-scoped
    dictionary), and over one range that does not start at row 0 (a
    repack probe)."""
    rng = np.random.default_rng(seed)
    width = dtype.fixed_size
    pool = np.unique(rng.integers(0x20, 0x24, (distinct, width),
                                  dtype=np.uint8), axis=0)
    picks = rng.integers(0, pool.shape[0], count)
    if grouped:
        picks.sort()  # equal rows adjacent, as a leading key column's
    view = ColumnView(dtype, count, matrix=np.ascontiguousarray(pool[picks]),
                      grouped=grouped)
    inner = np.unique(rng.integers(1, max(count, 2), cuts))
    bounds = np.concatenate([[0], inner[inner < count], [count]])
    low = int(rng.integers(count))
    for fences in (bounds, np.array([0, count], dtype=np.int64),
                   np.array([low, count], dtype=np.int64)):
        assert segment_distinct(view, fences).tolist() == \
            segment_entries(view, fences)[0].tolist()


@pytest.mark.parametrize("grouped", [True, False])
def test_fixed_entry_overflow_message_is_the_scalar_one(grouped):
    """257 distinct values in one leaf overflow a 1-byte pointer with
    the message ``compress`` raises, whichever way they are counted."""
    schema = Schema([Column.of("a", "char(4)")])
    values = [str(v) for v in range(257)] + ["0"] * 5
    if grouped:
        values.sort()
    records = [encode_record(schema, (value,)) for value in values]
    views = build_column_views(schema, *join_records(records))
    views[0].grouped = grouped
    algorithm = DictionaryCompression(pointer_bytes=1)
    with pytest.raises(CompressionError) as scalar:
        algorithm.compress(records, schema)
    with pytest.raises(CompressionError) as kernel:
        algorithm.size_of(views, schema,
                          np.array([0, len(records)], dtype=np.int64))
    assert str(kernel.value) == str(scalar.value)
