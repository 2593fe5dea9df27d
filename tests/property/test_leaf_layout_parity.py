"""Layout-parity property suite: index leaves == B+-tree leaves.

``Index.build`` builds every index straight from record bytes: byte
sort keys, a stable argsort and greedy packing, with no row decoded.
``RowIndex.build`` (validated rows, Python tuple sort,
``BPlusTree.bulk_load``) is the oracle. Over derandomized schemas —
CHAR values with bytes below ``0x20``, interior blanks and ``\\xff``;
VARCHAR values with trailing blanks and NULs; INTEGER/BIGINT extremes;
multi-column keys in an order other than the schema's; heavy duplicate
keys whose other columns differ — under every sampler, both index kinds
and fill factors 0.5–1.0, the sample index must hold the oracle's
leaf pages byte for byte, count the same distinct keys, and size to
exactly ``RowIndex.compress`` for every registered algorithm, with the
size kernels on and off. An empty sample fails as an empty index does.
Existing indexes are one more source: ``SampleCF.estimate_index``
(the table path over the index's leaf pages) must equal the same draw
taken by hand over the leaves, decoded and rebuilt with the oracle.
Ground truth is another: ``true_cf_table`` must equal the oracle built
over every decoded row. The one sort, ``key_order``, must be Python's
stable sort on the decoded keys, over CHAR columns on either sort-key
route. Guard tests prove the sample path and truth
never decode, encode or build through the B+-tree, and that the draw
still rejects a malformed heap record.
"""

from __future__ import annotations

import contextlib
import os
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression.kernels import (DISABLE_KERNELS_ENV,
                                       build_column_views)
from repro.compression.registry import get_algorithm, list_algorithms
from repro.constants import PAGE_HEADER_SIZE, SLOT_SIZE
from repro.core.samplecf import SampleCF, true_cf_table
from repro.engine import (EstimationEngine, EstimationRequest,
                          MaterializedSample, materialize_table_sample)
from repro.errors import CompressionError, EncodingError, IndexError_
from repro.sampling.base import rows_for_fraction
from repro.sampling.block import BlockSampler
from repro.sampling.rng import make_rng
from repro.sampling.row_samplers import (BernoulliSampler,
                                         WithReplacementSampler,
                                         WithoutReplacementSampler)
from repro.storage.index import Index, IndexKind, key_order
from repro.storage.record import decode_record, encode_record, join_records
from repro.storage.rid import RID
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from tests.btree_oracle import BPlusTree, RowIndex, block_draw, leaf_pages

ALGORITHMS = [get_algorithm(name) for name in list_algorithms()]

SAMPLERS = ("with_replacement", "without_replacement", "bernoulli",
            "block")


def make_sampler(name: str, fraction: float):
    return {"with_replacement": WithReplacementSampler,
            "without_replacement": WithoutReplacementSampler,
            "bernoulli": lambda: BernoulliSampler(fraction),
            "block": BlockSampler}[name]()


@contextlib.contextmanager
def kernels(enabled: bool):
    """Force the size kernels on or off for the enclosed block."""
    saved = os.environ.get(DISABLE_KERNELS_ENV)
    os.environ[DISABLE_KERNELS_ENV] = "" if enabled else "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ[DISABLE_KERNELS_ENV]
        else:
            os.environ[DISABLE_KERNELS_ENV] = saved


def sample_records(sample) -> list[bytes]:
    data = sample.buffer.tobytes()
    cuts = sample.offsets.tolist()
    return [data[a:b] for a, b in zip(cuts, cuts[1:])]


def oracle_index(table, sample, columns, kind, page_size, fill_factor):
    """``RowIndex.build`` over the sample's decoded rows, and those rows."""
    rows = [decode_record(table.schema, record)
            for record in sample_records(sample)]
    rids = [RID(value >> 32, value & 0xFFFFFFFF)
            for value in sample.rids.tolist()]
    index = RowIndex("samplecf_sample", table.schema, columns, kind=kind,
                     page_size=page_size, fill_factor=fill_factor)
    index.build(list(zip(rows, rids)))
    return index, rows


def check_layout(table, sampler, fraction, seed, columns, kind,
                 page_size, fill_factor):
    """Assert index == oracle leaves; return the (index, oracle) pair.

    Returns ``None`` when the oracle rejects the layout (a record that
    cannot fit a leaf page), after checking the index rejects it too.
    """
    sample = materialize_table_sample(table, sampler, fraction, seed)
    try:
        oracle, rows = oracle_index(table, sample, columns, kind,
                                    page_size, fill_factor)
    except IndexError_:
        with pytest.raises(IndexError_):
            sample.index_for(table, columns, kind, page_size, fill_factor)
        return None
    entry = sample.index_for(table, columns, kind, page_size, fill_factor)
    bounds = entry.bounds.tolist()
    assert [entry.leaf_records(a, b)
            for a, b in zip(bounds, bounds[1:])] == \
        [list(page.records()) for page in oracle.leaf_pages()]
    assert entry.distinct == len({oracle.key_of(row) for row in rows})
    return entry, oracle


def index_oracle(index, sampler, fraction, seed):
    """Figure 2 by hand over an index's leaves, and the draw's extras.

    The draw ``estimate_index`` makes, taken over ``leaf_records()``
    (``leaf_pages(index)`` for the block sampler) and decoded, then a
    clustered ``RowIndex.build`` on the index key in the index's layout.
    """
    rng = make_rng(seed)
    r = rows_for_fraction(index.num_entries, fraction)
    extra = {}
    if isinstance(sampler, BlockSampler):
        pages = list(leaf_pages(index))
        records, _, page_ids = block_draw(pages, r, rng)
        extra = {"pages_sampled": len(page_ids),
                 "pages_available": len(pages)}
    else:
        leaves = list(index.leaf_records())
        records = [leaves[position] for position in
                   sampler.sample_positions(index.num_entries, r, rng)]
    rows = [decode_record(index.leaf_schema, record)
            for record in records]
    oracle = RowIndex("oracle", index.leaf_schema, index.key_columns,
                      page_size=index.page_size,
                      fill_factor=index.fill_factor).build_from_rows(rows)
    return oracle, rows, extra


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
CHAR_ALPHABET = "ab \x00\x01\x1f\xff0"
VARCHAR_ALPHABET = "ab \x00\x01\xff"

dtypes = st.one_of(
    st.integers(1, 10).map(lambda k: f"char({k})"),
    st.integers(1, 10).map(lambda m: f"varchar({m})"),
    st.just("integer"), st.just("bigint"))


def values_for(spec: str):
    if spec.startswith("char("):
        k = int(spec[5:-1])
        return st.text(alphabet=CHAR_ALPHABET, max_size=k)
    if spec.startswith("varchar("):
        m = int(spec[8:-1])
        return st.text(alphabet=VARCHAR_ALPHABET, max_size=m)
    bits = 31 if spec == "integer" else 63
    return st.one_of(st.sampled_from([-2 ** bits, 2 ** bits - 1, -1, 0, 1]),
                     st.integers(-2 ** bits, 2 ** bits - 1))


@st.composite
def cases(draw):
    """A table, a key, and a sample-index layout over it."""
    specs = draw(st.lists(dtypes, min_size=1, max_size=4))
    schema = Schema([Column.of(f"c{i}", spec)
                     for i, spec in enumerate(specs)])
    # Few distinct values per column make heavy duplicate keys whose
    # other columns still differ.
    pools = [draw(st.lists(values_for(spec), min_size=1,
                           max_size=draw(st.sampled_from([2, 4, 30]))))
             for spec in specs]
    n = draw(st.integers(1, 120))
    rows = [tuple(draw(st.sampled_from(pool)) for pool in pools)
            for _ in range(n)]
    columns = tuple(draw(st.permutations(schema.names))[
        :draw(st.integers(1, len(specs)))])
    return {
        "table": Table.from_rows("t", schema, rows, page_size=512),
        "sampler": draw(st.sampled_from(SAMPLERS)),
        "fraction": draw(st.floats(0.05, 1.0)),
        "seed": draw(st.integers(0, 2 ** 16)),
        "columns": columns,
        "kind": draw(st.sampled_from(list(IndexKind))),
        "page_size": draw(st.sampled_from([96, 128, 256, 1024])),
        "fill_factor": draw(st.floats(0.5, 1.0)),
    }


def run_case(case):
    return check_layout(
        case["table"], make_sampler(case["sampler"], case["fraction"]),
        case["fraction"], case["seed"], case["columns"], case["kind"],
        case["page_size"], case["fill_factor"])


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cases())
def test_leaf_images_match_btree_leaves(case):
    run_case(case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cases())
def test_image_sizes_match_compress(case):
    """Every registered algorithm, kernels on and off, == compress()."""
    outcome = run_case(case)
    if outcome is None:
        return
    entry, oracle = outcome
    for algorithm in ALGORITHMS:
        for accounting, repack in (("payload", False),
                                   ("physical", False),
                                   ("physical", True)):
            want = oracle.compress(algorithm, accounting=accounting,
                                   repack_pages=repack)
            for enabled in (True, False):
                with kernels(enabled):
                    got = entry.estimate_compression(
                        algorithm, accounting=accounting,
                        repack_pages=repack)
                assert got == want, (algorithm.name, accounting, repack,
                                     enabled)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cases())
def test_index_estimates_match_an_oracle_over_the_leaves(case):
    """``estimate_index`` == the oracle, every algorithm and accounting."""
    index = Index.over(case["table"], case["columns"], kind=case["kind"],
                       fill_factor=case["fill_factor"])
    sampler = make_sampler(case["sampler"], case["fraction"])
    oracle, rows, extra = index_oracle(index, sampler, case["fraction"],
                                       case["seed"])
    engine = EstimationEngine(seed=0)
    for algorithm in ALGORITHMS:
        for accounting, repack in (("payload", False),
                                   ("physical", False),
                                   ("physical", True)):
            estimator = SampleCF(algorithm, sampler=sampler,
                                 accounting=accounting, repack=repack,
                                 engine=engine)
            if not rows:
                with pytest.raises(CompressionError):
                    estimator.estimate_index(index, case["fraction"],
                                             seed=case["seed"])
                continue
            got = estimator.estimate_index(index, case["fraction"],
                                           seed=case["seed"])
            want = oracle.compress(algorithm, accounting=accounting,
                                   repack_pages=repack)
            assert (got.estimate, got.sample_rows,
                    got.uncompressed_sample_bytes,
                    got.compressed_sample_bytes, got.sample_distinct,
                    got.details, got.path) == (
                want.compression_fraction, len(rows),
                want.uncompressed_bytes, want.compressed_bytes,
                len({oracle.key_of(row) for row in rows}),
                {"pages_before": want.pages_before,
                 "pages_after": want.pages_after, **extra},
                "index_block" if extra else "index"), (
                algorithm.name, accounting, repack)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cases())
def test_truth_matches_an_oracle_over_every_row(case):
    """``true_cf_table`` == the oracle's truth, both kinds, every codec.

    The oracle's truth decodes every row, bulk-loads the B+-tree and
    compresses each leaf with the codec's scalar ``compress`` (``repack``
    for repacked physical accounting).
    """
    table, columns = case["table"], case["columns"]
    layout = {"page_size": case["page_size"],
              "fill_factor": case["fill_factor"]}
    rows = [(decode_record(table.schema, record), rid)
            for rid, record in table.heap.scan()]
    for kind in IndexKind:
        oracle = RowIndex("truth", table.schema, columns, kind=kind,
                          **layout)
        try:
            oracle.build(rows)
        except IndexError_:
            with pytest.raises(IndexError_):
                true_cf_table(table, columns, ALGORITHMS[0], kind=kind,
                              **layout)
            continue
        for algorithm in ALGORITHMS:
            for accounting, repack in (("payload", False),
                                       ("physical", False),
                                       ("physical", True)):
                want = oracle.compress(algorithm, accounting=accounting,
                                       repack_pages=repack)
                assert true_cf_table(
                    table, columns, algorithm, kind=kind,
                    accounting=accounting, repack=repack, **layout) == \
                    want.compression_fraction, (kind, algorithm.name,
                                                accounting, repack)


# ----------------------------------------------------------------------
# The one sort: key_order is Python's stable sort on the decoded keys
# ----------------------------------------------------------------------
#: CHAR alphabets with and without bytes below the pad byte: a column
#: drawn from the second sorts on its stored bytes, from the first on
#: its zero-filled value and length.
KEY_CHAR_ALPHABETS = ("ab \x00\x01\x1f\xff0", "ab ~\xff0")


@st.composite
def key_batches(draw):
    """A schema of 1–3 key columns and 0–120 rows with duplicate keys."""
    specs = draw(st.lists(st.one_of(
        st.tuples(st.integers(1, 8).map(lambda k: f"char({k})"),
                  st.sampled_from(KEY_CHAR_ALPHABETS)),
        st.tuples(st.integers(1, 8).map(lambda m: f"varchar({m})"),
                  st.just(VARCHAR_ALPHABET)),
        st.tuples(st.sampled_from(["integer", "bigint"]), st.none())),
        min_size=1, max_size=3))
    pools = []
    for spec, alphabet in specs:
        values = values_for(spec) if alphabet is None else st.text(
            alphabet=alphabet, max_size=int(spec.split("(")[1][:-1]))
        pools.append(draw(st.lists(values, min_size=1, max_size=draw(
            st.sampled_from([2, 5, 30])))))
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)),
                         max_size=120))
    return [spec for spec, _ in specs], rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(batch=key_batches())
@example(batch=(["char(4)"],                        # stored bytes
                [("ab",), ("a",), ("ab c",), ("",), ("ab",), ("a~",)]))
@example(batch=(["char(4)"],                        # zero-filled key
                [("ab\x01",), ("ab",), ("ab\x00",), ("a",), ("ab",),
                 ("ab \x1f",)]))
@example(batch=(["char(3)"],                        # 0x1f, just below
                [("ab",), ("ab\x1f",), ("a",), ("ab",)]))
@example(batch=(["char(3)", "char(3)"],             # one route each
                [("b", "x\x01"), ("a", "x"), ("b", "x"), ("a", "x\x00"),
                 ("ab", "x"), ("b", "x")]))
def test_key_order_is_a_stable_sort_on_decoded_keys(batch):
    specs, rows = batch
    schema = Schema([Column.of(f"c{i}", spec)
                     for i, spec in enumerate(specs)])
    records = [encode_record(schema, row) for row in rows]
    keys = [decode_record(schema, record) for record in records]
    order, distinct = key_order(build_column_views(
        schema, *join_records(records)))
    assert order.tolist() == sorted(range(len(keys)),
                                    key=keys.__getitem__)
    assert distinct == len(set(keys))


def test_every_index_on_one_sample_matches_the_oracle():
    """One sample, many keys and layouts: the cached orders and sorted
    views of one key never leak into another's index."""
    schema = Schema([Column.of("a", "char(5)"), Column.of("n", "integer"),
                     Column.of("v", "varchar(6)"), Column.of("b", "char(3)")])
    rows = [(f"k{i % 7}", i % 5 - 2, "x" * (i % 4), ["p", "q\x01", ""][i % 3])
            for i in range(300)]
    table = Table.from_rows("t", schema, rows, page_size=512)
    sample = materialize_table_sample(table, WithoutReplacementSampler(),
                                      0.5, 7)
    for columns in (("a",), ("n", "a"), ("v",), ("b", "v"), ("a", "n")):
        for kind in IndexKind:
            for page_size, fill_factor in ((256, 1.0), (512, 0.7)):
                oracle, decoded = oracle_index(table, sample, columns, kind,
                                               page_size, fill_factor)
                entry = sample.index_for(table, columns, kind, page_size,
                                         fill_factor)
                bounds = entry.bounds.tolist()
                assert [entry.leaf_records(a, b) for a, b in
                        zip(bounds, bounds[1:])] == \
                    [list(page.records()) for page in oracle.leaf_pages()]
                assert entry.distinct == \
                    len({oracle.key_of(row) for row in decoded})
                for algorithm in ALGORITHMS:
                    assert entry.estimate_compression(algorithm) == \
                        oracle.compress(algorithm), (columns, kind,
                                                     algorithm.name)


# ----------------------------------------------------------------------
# The two orderings the byte sort key must get right
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(IndexKind))
def test_char_keys_order_shorter_prefix_first(kind):
    """``"ab"`` < ``"ab\\x00"`` < ``"ab\\x01"``: zero-fill needs the length."""
    schema = Schema([Column.of("a", "char(6)"), Column.of("n", "integer")])
    values = ["ab\x01", "ab \x00", "ab\x00", "ab", "ab\x00\x00", "a",
              "ab \x01", "\xff", "", "ab b"]
    rows = [(values[i % len(values)], i) for i in range(200)]
    table = Table.from_rows("t", schema, rows, page_size=512)
    for sampler in (WithoutReplacementSampler(), BlockSampler()):
        check_layout(table, sampler, 1.0, 3, ("a",), kind, 256, 1.0)


@pytest.mark.parametrize("kind", list(IndexKind))
def test_duplicate_keys_keep_draw_order(kind):
    """Equal keys stay in draw order (stable sort), as ``list.sort`` does."""
    schema = Schema([Column.of("k", "char(4)"), Column.of("v", "bigint"),
                     Column.of("w", "varchar(8)")])
    rows = [(["x", "y", "z"][i % 3], i * 7919 - 10 ** 6, f"w{i % 11}")
            for i in range(600)]
    table = Table.from_rows("t", schema, rows, page_size=1024)
    for seed in (1, 2):
        check_layout(table, WithoutReplacementSampler(), 1.0, seed,
                     ("k",), kind, 512, 0.9)


def test_wide_record_barely_fits():
    """A record exactly filling a leaf page packs one per leaf."""
    page_size = 128
    width = page_size - PAGE_HEADER_SIZE - SLOT_SIZE
    for k, fits in ((width, True), (width + 1, False)):
        schema = Schema([Column.of("a", f"char({k})")])
        table = Table.from_rows(
            "t", schema, [(f"v{i % 5}",) for i in range(40)],
            page_size=1024)
        outcome = check_layout(table, WithReplacementSampler(), 0.5, 9,
                               ("a",), IndexKind.CLUSTERED, page_size, 1.0)
        assert (outcome is not None) == fits
        if fits:
            entry, _ = outcome
            assert entry.num_leaf_pages == entry.num_entries


@pytest.mark.parametrize("kind", list(IndexKind))
def test_empty_sample_fails_like_an_empty_index(kind):
    schema = Schema([Column.of("a", "char(4)"), Column.of("v", "varchar(3)")])
    table = Table.from_rows("t", schema, [("x", "y")], page_size=256)
    entry = MaterializedSample(fraction=0.5, seed=1, path="storage") \
        .index_for(table, ("a",), kind, 256, 1.0)
    oracle = RowIndex("samplecf_sample", schema, ("a",), kind=kind,
                      page_size=256).build([])
    messages = []
    for index in (entry, oracle):
        with pytest.raises(CompressionError) as raised:
            index.estimate_compression(ALGORITHMS[0])
        messages.append(str(raised.value))
    assert entry.distinct == 0
    assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Guards: one path, and the draw still validates
# ----------------------------------------------------------------------
def _forbidden(name):
    def raiser(*args, **kwargs):
        raise AssertionError(f"the sample path called {name}")
    return raiser


def test_sample_path_never_decodes_or_uses_the_btree(monkeypatch):
    schema = Schema([Column.of("a", "char(12)"), Column.of("n", "integer"),
                     Column.of("v", "varchar(10)")])
    rows = [(f"name{i % 23}", i % 7 - 3, "x" * (i % 9)) for i in range(800)]
    table = Table.from_rows("t", schema, rows, page_size=1024)
    requests = [EstimationRequest(table=table, columns=columns,
                                  algorithm=algorithm, fraction=0.2,
                                  trials=2, kind=kind, page_size=1024)
                for columns in (("a",), ("v", "n"))
                for algorithm in ("null_suppression", "dictionary", "page")
                for kind in IndexKind]
    expected = EstimationEngine(seed=4).execute(requests)
    # Two identical indexes over the table: one is built and answers
    # before the patches, the other is built, with its leaf table and
    # sample index, under them. Truth runs on both sides too.
    def index_over_table():
        return Index.over(table, ("v", "n"), kind=IndexKind.NONCLUSTERED)

    def estimate_index(index):
        return SampleCF("dictionary", engine=EstimationEngine(seed=4)) \
            .estimate_index(index, 0.2, seed=3)

    def truths():
        return [true_cf_table(table, request.columns, request.algorithm,
                              kind=request.kind, page_size=1024)
                for request in requests]

    expected_index = estimate_index(index_over_table())
    expected_truths = truths()
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("repro") and m is not None]:
        for name in ("decode_record", "encode_record"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _forbidden(name))
    monkeypatch.setattr(Schema, "validate_row",
                        _forbidden("Schema.validate_row"))
    monkeypatch.setattr(RowIndex, "build", _forbidden("RowIndex.build"))
    monkeypatch.setattr(BPlusTree, "bulk_load",
                        _forbidden("BPlusTree.bulk_load"))
    batch = EstimationEngine(seed=4).execute(requests)
    assert batch.stats["indexes_built"] == \
        expected.stats["indexes_built"] > 0
    assert [result.estimates for result in batch.results] == \
        [result.estimates for result in expected.results]
    assert estimate_index(index_over_table()) == expected_index
    assert truths() == expected_truths


@pytest.mark.parametrize("sampler", [WithoutReplacementSampler(),
                                     BlockSampler()])
@pytest.mark.parametrize("spec, record", [
    ("char(6)", b"short"),                   # narrower than the schema
    ("char(6)", b"too long"),                # wider than the schema
    ("varchar(4)", b"\x00\x05hello"),        # prefix past max_len
    ("varchar(4)", b"\x00\x03ab"),           # prefix past the record
    ("varchar(4)", b"\x00\x01ab"),           # trailing bytes
])
def test_malformed_heap_record_fails_the_draw(sampler, spec, record):
    schema = Schema([Column.of("a", spec)])
    table = Table.from_rows("t", schema, [("ab",)] * 30, page_size=256)
    table.heap.insert(record)
    with pytest.raises(EncodingError):
        materialize_table_sample(table, sampler, 1.0, 5)
