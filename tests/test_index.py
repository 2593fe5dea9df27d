"""Unit tests for repro.storage.index."""

import numpy as np
import pytest

from repro.constants import PAGE_HEADER_SIZE, SLOT_SIZE
from repro.errors import CompressionError, IndexError_
from repro.storage.index import Index, IndexKind, RID_COLUMN
from repro.storage.record import decode_record
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.table import Table
from repro.compression.null_suppression import NullSuppression
from repro.compression.global_dictionary import GlobalDictionaryCompression
from repro.compression.dictionary import DictionaryCompression
from tests.btree_oracle import leaf_pages

PAGE = 256


def table_of(values: list[str], k: int = 20) -> Table:
    return Table.from_rows("t", single_char_schema(k),
                           [(value,) for value in values], page_size=PAGE)


def build_clustered(values: list[str], k: int = 20) -> Index:
    return Index.over(table_of(values, k), ["a"], kind=IndexKind.CLUSTERED)


def build_nonclustered(values: list[str], k: int = 20) -> Index:
    return Index.over(table_of(values, k), ["a"],
                      kind=IndexKind.NONCLUSTERED)


class TestIndexConstruction:
    def test_requires_key_columns(self):
        with pytest.raises(IndexError_):
            Index("ix", single_char_schema(8), [])

    def test_clustered_leaf_schema_is_table_schema(self):
        index = Index("ix", single_char_schema(8), ["a"])
        assert index.leaf_schema == index.table_schema

    def test_nonclustered_leaf_schema_appends_rid(self):
        index = Index("ix", single_char_schema(8), ["a"],
                      kind=IndexKind.NONCLUSTERED)
        assert index.leaf_schema.names == ("a", RID_COLUMN)

    def test_multi_column_key(self):
        schema = Schema([Column.of("a", "char(6)"),
                         Column.of("b", "integer")])
        table = Table.from_rows("t", schema, [("x", 2), ("y", 1)],
                                page_size=PAGE)
        index = Index.over(table, ["b", "a"])
        assert [decode_record(index.leaf_schema, record)
                for record in index.leaf_records()] == [("y", 1), ("x", 2)]

    @pytest.mark.parametrize("kind", list(IndexKind))
    def test_empty_table_gives_an_empty_index(self, kind):
        schema = Schema([Column.of("v", "varchar(8)"),
                         Column.of("a", "char(6)"),
                         Column.of("b", "integer")])
        table = Table.from_rows("t", schema, [], page_size=PAGE)
        for key in (["v"], ["a"], ["b", "v"]):
            index = Index.over(table, key, kind=kind)
            assert (index.num_entries, index.distinct) == (0, 0)

    def test_nonclustered_requires_rids(self):
        index = Index("ix", single_char_schema(8), ["a"],
                      kind=IndexKind.NONCLUSTERED)
        buffer, offsets, rids = table_of(["x"], k=8).heap.gather(
            np.arange(1))
        with pytest.raises(IndexError_):
            index.build(buffer, offsets, rids[:0])


class TestSizes:
    def test_clustered_payload_is_rows_times_k(self):
        index = build_clustered(["val%d" % i for i in range(100)], k=20)
        assert index.uncompressed_size("payload") == 100 * 20

    def test_nonclustered_payload_adds_rid_bytes(self):
        index = build_nonclustered(["val%d" % i for i in range(100)], k=20)
        assert index.uncompressed_size("payload") == 100 * (20 + 8)

    def test_physical_is_pages_times_size(self):
        index = build_clustered(["v%d" % i for i in range(100)])
        size = index.size()
        assert size.physical_bytes == size.leaf_pages * PAGE
        assert size.entries == 100

    def test_unknown_accounting_rejected(self):
        index = build_clustered(["a"])
        with pytest.raises(CompressionError):
            index.uncompressed_size("weird")


class TestCompress:
    def test_empty_index_rejected(self):
        index = Index("ix", single_char_schema(8), ["a"], page_size=PAGE)
        with pytest.raises(CompressionError):
            index.estimate_compression(NullSuppression())

    def test_payload_cf_below_one_for_padded_values(self):
        index = build_clustered(["ab"] * 50 + ["cdef"] * 50)
        result = index.estimate_compression(NullSuppression())
        assert 0 < result.compression_fraction < 0.5
        assert result.row_count == 100
        assert result.accounting == "payload"

    def test_physical_in_place_keeps_pages(self):
        index = build_clustered(["ab"] * 200)
        result = index.estimate_compression(NullSuppression(), accounting="physical")
        assert result.pages_before == result.pages_after
        assert result.compression_fraction == 1.0

    def test_physical_repack_frees_pages(self):
        index = build_clustered(["ab"] * 200)
        result = index.estimate_compression(NullSuppression(), accounting="physical",
                                repack_pages=True)
        assert result.pages_after < result.pages_before
        assert result.compression_fraction < 1.0

    def test_index_scope_algorithm(self):
        index = build_clustered(["a", "b"] * 100)
        result = index.estimate_compression(GlobalDictionaryCompression())
        # 2 entries * 20 bytes + 200 pointers * 2 bytes over 200*20.
        assert result.compressed_bytes == 2 * 20 + 200 * 2
        assert result.uncompressed_bytes == 200 * 20

    def test_page_scope_payload_sums_leaf_blocks(self):
        index = build_clustered([f"v{i % 7}" for i in range(150)])
        result = index.estimate_compression(DictionaryCompression())
        manual = 0
        for page in leaf_pages(index):
            block = DictionaryCompression().compress(
                list(page.records()), index.leaf_schema)
            manual += block.payload_size
        assert result.compressed_bytes == manual

    def test_repack_payload_matches_tracker(self):
        index = build_clustered([f"v{i % 5}" for i in range(200)])
        inplace = index.estimate_compression(DictionaryCompression(), repack_pages=False)
        repacked = index.estimate_compression(DictionaryCompression(), repack_pages=True)
        # Repacking merges pages, so fewer dictionary copies are stored.
        assert repacked.compressed_bytes <= inplace.compressed_bytes

    def test_leaves_are_ordered_and_within_capacity(self):
        index = build_clustered([f"w{i % 97}" for i in range(300)])
        records = index.leaf_records()
        assert records == sorted(records)
        counts = np.diff(index.bounds)
        assert (counts > 0).all() and counts.sum() == 300
        assert index.num_leaf_pages > 1
        for page in leaf_pages(index):
            assert PAGE_HEADER_SIZE + SLOT_SIZE * len(page) \
                + page.payload_bytes <= PAGE
