"""Unit tests for repro.compression.base and registry and repack."""

import numpy as np
import pytest

from repro.constants import PAGE_HEADER_SIZE
from repro.errors import CompressionError, KernelUnavailable
from repro.storage.record import encode_record, join_records
from repro.storage.schema import Column, Schema, single_char_schema
from repro.compression.base import (CompressedBlock, CompressedColumn,
                                    CompressionAlgorithm, CompressionResult)
from repro.compression.null_suppression import NullSuppression
from repro.compression.dictionary import DictionaryCompression
from repro.compression import kernels
from repro.compression.kernels import build_column_views
from repro.compression.page_compression import PageCompression
from repro.compression.registry import (get_algorithm, list_algorithms,
                                        register_algorithm)
from repro.compression.repack import (COMPRESSION_INFO_BYTES,
                                      compressed_page_capacity, repack)

from tests.btree_oracle import greedy_repack
from tests.conftest import all_algorithms


class TestColumnize:
    def test_fixed_schema_roundtrip(self):
        schema = Schema([Column.of("a", "char(4)"),
                         Column.of("b", "integer")])
        records = [encode_record(schema, ("ab", 7)),
                   encode_record(schema, ("cd", -1))]
        columns = CompressionAlgorithm.columnize(records, schema)
        assert len(columns) == 2
        assert CompressionAlgorithm.recordize(columns) == records

    def test_mixed_schema_roundtrip(self):
        schema = Schema([Column.of("a", "char(4)"),
                         Column.of("v", "varchar(20)")])
        records = [encode_record(schema, ("ab", "hello")),
                   encode_record(schema, ("cd", ""))]
        columns = CompressionAlgorithm.columnize(records, schema)
        assert CompressionAlgorithm.recordize(columns) == records

    def test_wrong_width_rejected(self):
        schema = single_char_schema(4)
        with pytest.raises(CompressionError):
            CompressionAlgorithm.columnize([b"toolongrecord"], schema)

    def test_ragged_recordize_rejected(self):
        with pytest.raises(CompressionError):
            CompressionAlgorithm.recordize([[b"a"], [b"b", b"c"]])

    def test_empty_recordize(self):
        assert CompressionAlgorithm.recordize([]) == []


class Verbatim(CompressionAlgorithm):
    """The least custom codec: fixed-width columns kept as they are."""

    name = "verbatim"

    def _compress_column(self, dtype, slices):
        blob = b"".join(slices)
        return CompressedColumn(blob, len(blob))

    def _decompress_column(self, dtype, blob, count):
        width = dtype.fixed_size
        return [blob[row * width:(row + 1) * width] for row in range(count)]


class TestColumnHooks:
    """The base class owns the column loops; a codec is its hooks."""

    def test_custom_codec_implements_only_the_column_hooks(self):
        schema = Schema([Column.of("a", "char(4)"),
                         Column.of("b", "integer")])
        records = [encode_record(schema, (f"v{i}", i)) for i in range(40)]
        codec = Verbatim()
        block = codec.compress(records, schema)
        assert block.algorithm == "verbatim"
        assert block.payload_size == sum(len(record) for record in records)
        assert codec.decompress(block, schema) == records
        views = build_column_views(schema, *join_records(records))
        with pytest.raises(KernelUnavailable):
            codec.size_of(views, schema, np.array([0, 40]))
        # Without a kernel, repack sizes its pages through compress.
        assert repack(records, schema, codec, 256).payload_size == \
            block.payload_size

    def test_repack_splits_only_for_a_codec_with_a_kernel(
            self, monkeypatch):
        """A codec that keeps the base ``_size_column`` repacks through
        ``compress`` without splitting its records first."""
        monkeypatch.delenv(kernels.DISABLE_KERNELS_ENV, raising=False)
        schema = Schema([Column.of("a", "char(4)"),
                         Column.of("b", "integer")])
        records = [encode_record(schema, (f"v{i % 7}", i))
                   for i in range(300)]
        splits = []
        original = kernels.build_column_views

        def spy(*args, **kwargs):
            splits.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "build_column_views", spy)
        for codec, expected_splits in ((Verbatim(), 0),
                                       (NullSuppression(), 1)):
            splits.clear()
            result = repack(records, schema, codec, 256)
            assert len(splits) == expected_splits, codec.name
            assert result == greedy_repack(records, schema, codec, 256)

    def test_no_codec_redefines_the_column_loops(self):
        for algorithm in all_algorithms():
            for cls in type(algorithm).__mro__:
                if cls is CompressionAlgorithm:
                    break
                assert not {"compress", "decompress", "size_of"} \
                    & set(vars(cls)), cls.__name__


class TestBlockTypes:
    def test_negative_payload_rejected(self):
        with pytest.raises(CompressionError):
            CompressedColumn(b"", -1)

    def test_block_sizes(self):
        block = CompressedBlock(
            algorithm="x", row_count=2,
            columns=(CompressedColumn(b"abcd", 3),
                     CompressedColumn(b"xy", 2)))
        assert block.payload_size == 5
        assert block.serialized_size == 6

    def test_result_cf_and_savings(self):
        result = CompressionResult(
            algorithm="x", accounting="payload", uncompressed_bytes=100,
            compressed_bytes=25, row_count=10)
        assert result.compression_fraction == 0.25
        assert result.space_savings == 0.75

    def test_result_empty_rejected(self):
        result = CompressionResult(
            algorithm="x", accounting="payload", uncompressed_bytes=0,
            compressed_bytes=0, row_count=0)
        with pytest.raises(CompressionError):
            result.compression_fraction


class TestRegistry:
    def test_all_names_construct(self):
        for name in list_algorithms():
            algorithm = get_algorithm(name)
            assert algorithm.name == name

    def test_unknown_rejected(self):
        with pytest.raises(CompressionError):
            get_algorithm("zstd")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CompressionError):
            register_algorithm("null_suppression", NullSuppression)

    def test_custom_registration(self):
        class Custom(NullSuppression):
            def __init__(self):
                super().__init__()
                self.name = "custom_ns_test"

        register_algorithm("custom_ns_test", Custom)
        try:
            assert get_algorithm("custom_ns_test").name == "custom_ns_test"
        finally:
            from repro.compression import registry
            registry._FACTORIES.pop("custom_ns_test")

    def test_every_algorithm_has_scope_and_name(self):
        for algorithm in all_algorithms():
            assert algorithm.scope in ("page", "index")
            assert algorithm.name


class TestRepack:
    def test_capacity(self):
        assert compressed_page_capacity(1024) == \
            1024 - PAGE_HEADER_SIZE - COMPRESSION_INFO_BYTES

    def test_tiny_page_rejected(self):
        with pytest.raises(CompressionError):
            compressed_page_capacity(PAGE_HEADER_SIZE)

    def test_repack_fills_pages(self):
        schema = single_char_schema(20)
        records = [encode_record(schema, (f"v{i % 5}",))
                   for i in range(500)]
        result = repack(records, schema, NullSuppression(), 256)
        assert result.num_pages > 1
        assert sum(page.record_count for page in result.pages) == 500
        capacity = compressed_page_capacity(256)
        for page in result.pages[:-1]:
            assert page.payload_size <= capacity

    def test_repack_payload_matches_recompression(self):
        schema = single_char_schema(20)
        records = [encode_record(schema, (f"v{i % 5}",))
                   for i in range(300)]
        algorithm = DictionaryCompression()
        result = repack(records, schema, algorithm, 256)
        manual = 0
        for page in result.pages:
            group = records[page.record_start:
                            page.record_start + page.record_count]
            manual += algorithm.compress(group, schema).payload_size
        assert result.payload_size == manual

    @pytest.mark.parametrize("algorithm", [
        DictionaryCompression(pointer_bytes=1),
        PageCompression(pointer_bytes=1)], ids=["dictionary", "page"])
    def test_repack_never_packs_a_page_its_codec_rejects(self, algorithm):
        # 400 distinct values overflow a 1-byte pointer long before
        # 8 KiB of payload does: a page may take 256 of them, no more.
        schema = single_char_schema(3)
        records = [encode_record(schema, (f"{i:03d}",)) for i in range(400)]
        result = repack(records, schema, algorithm, 8192)
        assert [page.record_count for page in result.pages] == [256, 144]
        payloads = [
            algorithm.compress(records[page.record_start:
                                       page.record_start + page.record_count],
                               schema).payload_size
            for page in result.pages]
        assert payloads == [page.payload_size for page in result.pages]
        assert sum(payloads) == result.payload_size

    def test_repack_empty_rejected(self):
        with pytest.raises(CompressionError):
            repack([], single_char_schema(8), NullSuppression(), 256)

    def test_physical_bytes(self):
        schema = single_char_schema(20)
        records = [encode_record(schema, ("abc",)) for _ in range(100)]
        result = repack(records, schema, NullSuppression(), 256)
        assert result.physical_bytes == result.num_pages * 256
