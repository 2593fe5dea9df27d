"""Unit tests for the size-only vectorized compression kernels."""

import pickle
import sys

import numpy as np
import pytest

from repro.compression import kernels
from repro.compression.kernels import (ColumnView, DISABLE_KERNELS_ENV,
                                       build_column_views, build_leaf_views,
                                       kernels_enabled, magnitude_widths,
                                       minimal_int_widths, stripped_lengths,
                                       value_codes)
from repro.compression.registry import get_algorithm, list_algorithms
from repro.core.samplecf import SampleCF, true_cf_table
from repro.engine import EstimationEngine, EstimationRequest
from repro.errors import EncodingError
from repro.storage import index as storage_index
from repro.storage.index import Index, IndexKind
from repro.storage.record import (encode_record, fixed_column_offsets,
                                  join_records, split_record, split_records)
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import minimal_int_bytes
from repro.workloads.generators import make_table
from tests.btree_oracle import RowIndex


@pytest.fixture
def kernels_on(monkeypatch):
    """Force-enable kernels: these tests assert kernel-path behavior.

    The CI matrix runs the whole suite with ``REPRO_DISABLE_KERNELS=1``;
    tests that count kernel hits or inspect the view cache must pin the
    fast path on locally or they would (correctly) observe fallbacks.
    """
    monkeypatch.delenv(DISABLE_KERNELS_ENV, raising=False)


def fixed_schema() -> Schema:
    return Schema([Column.of("name", "char(10)"),
                   Column.of("qty", "integer"),
                   Column.of("big", "bigint")])


def mixed_schema() -> Schema:
    return Schema([Column.of("name", "char(6)"),
                   Column.of("note", "varchar(40)"),
                   Column.of("qty", "integer")])


# ----------------------------------------------------------------------
# Vector primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_minimal_int_widths_boundaries(self):
        values = []
        for width in range(1, 9):
            hi = (1 << (8 * width - 1)) - 1
            lo = -(1 << (8 * width - 1))
            values.extend([hi, hi - 1, lo, lo + 1])
            if width < 8:
                values.extend([hi + 1, lo - 1])
        values.extend([0, 1, -1])
        got = minimal_int_widths(np.array(values, dtype=np.int64))
        want = [minimal_int_bytes(v) for v in values]
        assert got.tolist() == want

    def test_magnitude_widths_beyond_int64(self):
        # a BIGINT delta can need 9 bytes: magnitude up to 2**64 - 1
        magnitudes = np.array([(1 << 63) - 1, 1 << 63, (1 << 64) - 1],
                              dtype=np.uint64)
        assert magnitude_widths(magnitudes).tolist() == [8, 9, 9]
        # cross-check against the scalar on the extreme true delta
        assert minimal_int_bytes((2 ** 63 - 1) - (-2 ** 63)) == 9

    def test_stripped_lengths_matches_rstrip(self):
        raws = [b"abc       ", b"          ", b"a b c d  x", b"xxxxxxxxxx",
                b"\x00         ", b"   mid    "]
        raws = [r[:10].ljust(10, b" ") for r in raws]
        matrix = np.frombuffer(b"".join(raws), np.uint8).reshape(6, 10)
        got = stripped_lengths(matrix)
        assert got.tolist() == [len(r.rstrip(b" ")) for r in raws]

    def test_value_codes_number_distinct_rows(self):
        matrix = np.frombuffer(b"aabbaaccaabb", np.uint8).reshape(6, 2)
        codes = ColumnView(None, 6, matrix=matrix).codes
        assert sorted(set(codes.tolist())) == [0, 1, 2]
        assert codes[0] == codes[2] == codes[4] != codes[1] == codes[5]

    @pytest.mark.parametrize("width", [3, 8, 20])
    def test_value_codes_check_rows_that_hash_equal(self, width,
                                                    monkeypatch):
        rng = np.random.default_rng(5)
        pool = rng.integers(0, 3, size=(7, width), dtype=np.uint8)
        matrix = pool[rng.integers(0, 7, size=200)]
        want = np.unique(matrix, axis=0, return_inverse=True)[1].ravel()

        def exact(codes):
            pairs = set(zip(codes.tolist(), want.tolist()))
            return len(pairs) == len(set(codes.tolist())) \
                == int(want.max()) + 1 == int(codes.max()) + 1

        assert exact(value_codes(matrix))
        # Every row hashing equal must still give one code per value.
        monkeypatch.setattr(kernels, "row_hashes", lambda words: np.zeros(
            words.shape[0], dtype=np.uint64))
        assert exact(value_codes(matrix))


# ----------------------------------------------------------------------
# Columnar views
# ----------------------------------------------------------------------
def split(schema: Schema, records: list[bytes]) -> tuple[ColumnView, ...]:
    """The record splitter over ``records`` joined into one buffer."""
    return build_column_views(schema, *join_records(records))


class TestColumnViews:
    def test_fixed_views_match_slices(self):
        schema = fixed_schema()
        rows = [("ab", 7, -1), ("zzz", -300, 2 ** 40), ("", 0, -2 ** 63)]
        records = [encode_record(schema, row) for row in rows]
        views = split(schema, records)
        assert len(views) == 3
        for position, view in enumerate(views):
            expected = [split_record(schema, r)[position] for r in records]
            assert [view.matrix[i].tobytes()
                    for i in range(view.count)] == expected

    def test_varchar_views_carry_offsets_and_lengths(self):
        schema = mixed_schema()
        rows = [("a", "hello", 1), ("b", "", 2), ("c", "a longer note", 3)]
        records = [encode_record(schema, row) for row in rows]
        views = split(schema, records)
        note = views[1]
        slices = [split_record(schema, r)[1] for r in records]
        assert note.lengths.tolist() == [len(s) for s in slices]
        for i, s in enumerate(slices):
            start = int(note.offsets[i])
            assert note.payload[start:start + len(s)].tobytes() == s

    def test_padded_matrix_equality_is_exact(self):
        schema = Schema([Column.of("v", "varchar(8)")])
        rows = [("a",), ("a\x00",), ("a",), ("",)]
        records = [encode_record(schema, r) for r in rows]
        (view,) = split(schema, records)
        padded = view.padded_matrix
        assert (padded[0] == padded[2]).all()
        assert not (padded[0] == padded[1]).all()
        codes = view.codes
        assert codes[0] == codes[2] and len(set(codes.tolist())) == 3

    def test_rejects_empty_and_misfit_batches(self):
        schema = fixed_schema()
        record = encode_record(schema, ("a", 1, 2))
        assert [view.count for view in split(schema, [])] == [0, 0, 0]
        with pytest.raises(EncodingError):
            split(schema, [record[:-1]])
        with pytest.raises(EncodingError):
            split(schema, [record, record + b"x"])

    def test_grouped_codes_number_runs_like_value_codes(self):
        rng = np.random.default_rng(4)
        matrix = rng.integers(0, 3, size=(7, 9), dtype=np.uint8)[
            rng.integers(0, 7, size=300)]
        view = ColumnView(None, 300, matrix=matrix)
        order = np.argsort(matrix.view(np.dtype((np.void, 9))).ravel(),
                           kind="stable")
        grouped = view.take(order, grouped=True).codes
        hashed = value_codes(matrix[order])
        assert grouped.tolist() == sorted(grouped.tolist())
        assert len(set(zip(grouped.tolist(), hashed.tolist()))) \
            == len(set(grouped.tolist())) == len(set(hashed.tolist())) == 7

    def test_leaf_views_slice_one_parent(self):
        schema = fixed_schema()
        records = [encode_record(schema, (f"r{i}", i, -i))
                   for i in range(10)]
        parents = split(schema, records)
        leaf_views = build_leaf_views(parents, np.array([0, 4, 9, 10]))
        assert [v[0].count for v in leaf_views] == [4, 5, 1]
        # derived arrays come from the shared parent, sliced
        parent = leaf_views[0][1]._parent
        assert parent is leaf_views[2][1]._parent is parents[1]
        ints = np.concatenate([v[1].int_values for v in leaf_views])
        assert ints.tolist() == list(range(10))
        assert "int_values" in parent._derived


# ----------------------------------------------------------------------
# size_of dispatch
# ----------------------------------------------------------------------
class TestSizeOf:
    def test_every_registered_algorithm_is_covered(self):
        schema = Schema([Column.of("a", "char(8)")])
        records = [encode_record(schema, (v,))
                   for v in ("ab", "ab", "x", "", "long one", "a  b0000")]
        views = split(schema, records)
        bounds = np.array([0, len(records)], dtype=np.int64)
        for name in list_algorithms():
            algorithm = get_algorithm(name)
            assert algorithm.size_of(views, schema, bounds) == \
                algorithm.compress(records, schema).payload_size, name


# ----------------------------------------------------------------------
# Satellite: memoized offsets and batch splitting
# ----------------------------------------------------------------------
class TestRecordHelpers:
    def test_fixed_column_offsets_memoized(self):
        first = fixed_column_offsets(fixed_schema())
        second = fixed_column_offsets(fixed_schema())
        assert first == (0, 10, 14, 22)
        assert first is second  # same cached tuple, not a rebuild

    def test_variable_schema_has_no_offsets(self):
        assert fixed_column_offsets(mixed_schema()) is None

    def test_split_records_matches_split_record(self):
        for schema, rows in (
                (fixed_schema(), [("a", 1, 2), ("bb", -3, 4)]),
                (mixed_schema(), [("a", "note", 1), ("b", "", 2)])):
            records = [encode_record(schema, row) for row in rows]
            batch = split_records(schema, records)
            for position in range(len(schema)):
                assert batch[position] == [
                    split_record(schema, r)[position] for r in records]

    def test_split_records_rejects_bad_width(self):
        schema = fixed_schema()
        with pytest.raises(EncodingError):
            split_records(schema, [b"short"])


# ----------------------------------------------------------------------
# Index.estimate_compression
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def char_table():
    return make_table(1200, 60, 18, seed=77)


@pytest.fixture(scope="module")
def char_index(char_table):
    return Index.over(char_table, ["a"], page_size=2048)


@pytest.fixture(scope="module")
def char_oracle(char_table):
    """The same index built row by row and sized by scalar compress."""
    return RowIndex("t", char_table.schema, ["a"], page_size=2048) \
        .build_from_rows(char_table.rows())


class TestEstimateCompression:
    @pytest.mark.parametrize("name", list_algorithms())
    @pytest.mark.parametrize("accounting", ["payload", "physical"])
    @pytest.mark.parametrize("repack", [False, True])
    def test_identical_to_compress(self, char_index, char_oracle, name,
                                   accounting, repack):
        algorithm = get_algorithm(name)
        assert char_index.estimate_compression(
            algorithm, accounting=accounting, repack_pages=repack) == \
            char_oracle.compress(algorithm, accounting=accounting,
                                 repack_pages=repack)

    @pytest.mark.parametrize("name", ["null_suppression", "dictionary",
                                      "prefix", "rle", "delta", "page"])
    def test_one_kernel_call_per_index(self, char_index, kernels_on, name,
                                       monkeypatch):
        algorithm = get_algorithm(name)
        original = type(algorithm).size_of
        calls = []

        def spy(self, views, schema, *bounds):
            calls.append(bounds)
            return original(self, views, schema, *bounds)

        monkeypatch.setattr(type(algorithm), "size_of", spy)
        char_index.estimate_compression(algorithm)
        assert char_index.num_leaf_pages > 1
        assert len(calls) == 1
        assert calls[0][0].tolist() == char_index.bounds.tolist()

    def test_counts_kernel_blocks(self, char_index, kernels_on):
        hits = {"kernel": 0, "fallback": 0}
        char_index.estimate_compression(
            get_algorithm("dictionary"),
            on_kernel=lambda: hits.__setitem__("kernel",
                                               hits["kernel"] + 1),
            on_fallback=lambda: hits.__setitem__("fallback",
                                                 hits["fallback"] + 1))
        assert hits["kernel"] == 1
        assert hits["fallback"] == 0

    def test_counts_scalar_fallbacks_for_uncovered_codec(self, char_index):
        # Every registered codec now has a kernel (NS runs included),
        # so an uncovered one is simulated: a codec whose size_of
        # declares itself unavailable must size the index scalar.
        from repro.compression.null_suppression import NullSuppression
        from repro.errors import KernelUnavailable

        class Uncovered(NullSuppression):
            def size_of(self, views, schema, bounds):
                raise KernelUnavailable("deliberately scalar-only")

        hits = {"kernel": 0, "fallback": 0}
        char_index.estimate_compression(
            Uncovered(),
            on_kernel=lambda: hits.__setitem__("kernel",
                                               hits["kernel"] + 1),
            on_fallback=lambda: hits.__setitem__("fallback",
                                                 hits["fallback"] + 1))
        assert hits["kernel"] == 0
        assert hits["fallback"] == 1

    def test_repack_is_one_kernel_block(self, char_index, kernels_on):
        hits = {"kernel": 0, "fallback": 0}
        char_index.estimate_compression(
            get_algorithm("dictionary"), accounting="physical",
            repack_pages=True,
            on_kernel=lambda: hits.__setitem__("kernel",
                                               hits["kernel"] + 1),
            on_fallback=lambda: hits.__setitem__("fallback",
                                                 hits["fallback"] + 1))
        assert hits == {"kernel": 1, "fallback": 0}

    def test_repack_goes_scalar(self, char_index):
        # A codec without a kernel repacks through compress: the
        # repacked index is then one scalar block.
        from repro.compression.dictionary import DictionaryCompression
        from repro.errors import KernelUnavailable

        class Uncovered(DictionaryCompression):
            def size_of(self, views, schema, bounds):
                raise KernelUnavailable("deliberately scalar-only")

        hits = {"kernel": 0, "fallback": 0}
        result = char_index.estimate_compression(
            Uncovered(), accounting="physical", repack_pages=True,
            on_kernel=lambda: hits.__setitem__("kernel",
                                               hits["kernel"] + 1),
            on_fallback=lambda: hits.__setitem__("fallback",
                                                 hits["fallback"] + 1))
        assert hits == {"kernel": 0, "fallback": 1}
        assert result == char_index.estimate_compression(
            get_algorithm("dictionary"), accounting="physical",
            repack_pages=True)

    def test_index_scope_is_one_block(self, char_index, kernels_on):
        hits = {"kernel": 0}
        char_index.estimate_compression(
            get_algorithm("global_dictionary"),
            on_kernel=lambda: hits.__setitem__("kernel",
                                               hits["kernel"] + 1))
        assert hits["kernel"] == 1

    def test_env_flag_disables_kernels(self, char_index, kernels_on,
                                       monkeypatch):
        enabled = char_index.estimate_compression(
            get_algorithm("null_suppression"))
        monkeypatch.setenv(DISABLE_KERNELS_ENV, "1")
        assert not kernels_enabled()
        hits = {"kernel": 0, "fallback": 0}
        disabled = char_index.estimate_compression(
            get_algorithm("null_suppression"),
            on_kernel=lambda: hits.__setitem__("kernel",
                                               hits["kernel"] + 1),
            on_fallback=lambda: hits.__setitem__("fallback",
                                                 hits["fallback"] + 1))
        assert hits["kernel"] == 0 and hits["fallback"] > 0
        assert disabled == enabled

    def test_view_cache_survives_reuse_but_not_pickle(self, char_index,
                                                      char_oracle,
                                                      kernels_on):
        char_index.estimate_compression(get_algorithm("null_suppression"))
        assert char_index._views is not None
        clone = pickle.loads(pickle.dumps(char_index))
        assert clone._views is None
        assert clone.estimate_compression(get_algorithm("dictionary")) \
            == char_oracle.compress(get_algorithm("dictionary"))

    @pytest.mark.parametrize("kind", list(IndexKind))
    def test_cleared_views_split_the_leaves_once(self, char_table, kind,
                                                 kernels_on, monkeypatch):
        # bench_size_kernels.py times cold sizing by clearing _views.
        index = Index.over(char_table, ["a"], kind=kind, page_size=2048)
        algorithms = [get_algorithm("null_suppression"),
                      get_algorithm("dictionary")]
        warm = [index.estimate_compression(a) for a in algorithms]
        seen = []
        original = kernels.build_column_views

        def spy(schema, *args, **kwargs):
            seen.append(schema)
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(kernels, "build_column_views", spy)
        index._views = None
        assert [index.estimate_compression(a) for a in algorithms] == warm
        assert seen == [index.leaf_schema]

    def test_cache_invalidated_by_rebuild(self, kernels_on):
        table = make_table(300, 20, 12, seed=3)
        index = Index("t", table.schema, ["a"], page_size=1024)
        buffer, offsets, rids = table.heap.gather(np.arange(300))
        index.build(buffer[:offsets[-2]], offsets[:-1], rids[:-1])
        before = index.estimate_compression(get_algorithm("dictionary"))
        stale = index._views
        assert stale is not None
        index.build(buffer, offsets, rids)
        assert isinstance(index._views, tuple)
        assert index._views is not stale
        assert {view.count for view in stale} == {299}
        assert {view.count for view in index._views} == {300}
        after = index.estimate_compression(get_algorithm("dictionary"))
        oracle = RowIndex("t", table.schema, ["a"], page_size=1024) \
            .build_from_rows(table.rows())
        assert after == oracle.compress(get_algorithm("dictionary"))
        assert after != before


# ----------------------------------------------------------------------
# One record splitter on the estimate path
# ----------------------------------------------------------------------
def varchar_table() -> Table:
    schema = Schema([Column.of("v", "varchar(12)"),
                     Column.of("n", "integer"),
                     Column.of("c", "char(4)")])
    rows = [("x" * (i % 11) + str(i % 7), i % 13 - 6, f"c{i % 5}")
            for i in range(600)]
    return Table.from_rows("mixed", schema, rows, page_size=1024)


class TestOneSplitter:
    @pytest.mark.parametrize("make", [
        varchar_table, lambda: make_table(600, 30, 12, seed=9)],
        ids=["varchar", "char"])
    def test_estimate_path_splits_through_build_column_views(
            self, make, kernels_on, monkeypatch):
        table = make()
        key = (table.schema.names[0],)
        seen, forbidden = [], []
        original = kernels.build_column_views

        def spy(schema, *args, **kwargs):
            seen.append(schema)
            return original(schema, *args, **kwargs)

        def raiser(*args, **kwargs):
            forbidden.append(args)
            raise AssertionError("the estimate path called split_records")

        monkeypatch.setattr(kernels, "build_column_views", spy)
        for module in [m for name, m in sys.modules.items()
                       if name.startswith("repro") and m is not None]:
            if hasattr(module, "split_records"):
                monkeypatch.setattr(module, "split_records", raiser)
        requests = [EstimationRequest(table=table, columns=key,
                                      algorithm=name, fraction=0.3,
                                      trials=2, kind=kind, repack=repack,
                                      page_size=1024)
                    for name in ("null_suppression", "dictionary", "page")
                    for kind in IndexKind for repack in (False, True)]
        batch = EstimationEngine(seed=3).execute(requests)
        assert batch.stats["degraded_units"] == 0
        for repack in (False, True):
            true_cf_table(table, key, "dictionary",
                          kind=IndexKind.NONCLUSTERED, repack=repack,
                          page_size=1024)
            SampleCF("dictionary", repack=repack,
                     engine=EstimationEngine(seed=3)).estimate_index(
                Index.over(table, key, kind=IndexKind.NONCLUSTERED,
                           page_size=1024), 0.3, seed=3)
        leaf_schema = Index("t", table.schema, key,
                            kind=IndexKind.NONCLUSTERED).leaf_schema
        assert table.schema in seen  # the draw and Index.over
        assert leaf_schema in seen   # repack and the leaf-table draw
        assert forbidden == []

    def test_one_split_per_draw_and_one_sort_per_sample(
            self, kernels_on, monkeypatch):
        table = make_table(600, 30, 12, seed=9)
        splits, sorts = [], []
        split, sort = kernels.build_column_views, storage_index.key_order

        def split_spy(schema, *args, **kwargs):
            splits.append(schema)
            return split(schema, *args, **kwargs)

        def sort_spy(views):
            sorts.append(views)
            return sort(views)

        monkeypatch.setattr(kernels, "build_column_views", split_spy)
        monkeypatch.setattr(storage_index, "key_order", sort_spy)
        codecs = ("null_suppression", "dictionary", "prefix", "rle", "page")
        requests = [EstimationRequest(table=table, columns=("a",),
                                      algorithm=name, fraction=0.3,
                                      trials=3, kind=kind, page_size=1024)
                    for name in codecs for kind in IndexKind]
        engine = EstimationEngine(seed=3)
        batch = engine.execute(requests)
        assert (batch.stats["samples_materialized"],
                batch.stats["indexes_built"],
                batch.stats["size_kernel_hits"]) == (3, 6, 30)
        # One split per draw and one sort per sample: building and
        # sizing both kinds split and sort nothing again.
        assert splits == [table.schema] * 3
        assert len(sorts) == 3
        samples = list(engine.cache._entries.values())
        assert len(samples) == 3
        for sample in samples:
            kinds = {key[1]: index for key, index in sample.indexes.items()}
            clustered = kinds[IndexKind.CLUSTERED.value]
            nonclustered = kinds[IndexKind.NONCLUSTERED.value]
            assert clustered._views[0] is nonclustered._views[0]
        # An index over a table splits its records once, for the build;
        # sizing it splits nothing.
        del splits[:]
        index = Index.over(table, ("a",), kind=IndexKind.NONCLUSTERED,
                           page_size=1024)
        for name in codecs:
            index.estimate_compression(get_algorithm(name))
        assert splits == [table.schema]
        assert len(sorts) == 4


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
class TestEngineWiring:
    def _run(self, seed=901):
        table = make_table(800, 40, 16, seed=5)
        requests = [
            EstimationRequest(table=table, columns=("a",), algorithm=name,
                              fraction=0.2, trials=2,
                              kind=IndexKind.CLUSTERED)
            for name in ("null_suppression", "dictionary",
                         "null_suppression_runs")]
        engine = EstimationEngine(seed=seed)
        return engine.execute(requests)

    def test_stats_count_kernels_and_fallbacks(self, kernels_on):
        batch = self._run()
        assert batch.stats["size_kernel_hits"] > 0
        # every registered codec (runs mode included) now has a size
        # kernel, so nothing in this batch should fall back to scalar
        assert batch.stats["size_scalar_fallbacks"] == 0

    def test_disabled_kernels_match_bit_for_bit(self, kernels_on,
                                                monkeypatch):
        enabled = self._run()
        assert enabled.stats["size_kernel_hits"] > 0
        monkeypatch.setenv(DISABLE_KERNELS_ENV, "1")
        disabled = self._run()
        assert disabled.stats["size_kernel_hits"] == 0
        assert disabled.stats["size_scalar_fallbacks"] > 0
        for fast, slow in zip(enabled.results, disabled.results):
            assert fast.estimates == slow.estimates
