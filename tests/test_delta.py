"""Unit tests for repro.compression.delta."""

import pytest

from repro.errors import CompressionError
from repro.storage.record import encode_record
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.types import BigIntType, IntegerType
from repro.compression.delta import DeltaEncoding, delta_stored_size
from repro.compression.registry import get_algorithm


def int_records(values: list[int], big: bool = False) -> tuple:
    dtype = BigIntType() if big else IntegerType()
    schema = Schema([Column("n", dtype)])
    return schema, [encode_record(schema, (v,)) for v in values]


class TestDeltaStoredSize:
    def test_first_value_full_cost(self):
        assert delta_stored_size(None, 7) == 1 + 1
        assert delta_stored_size(None, 70000) == 1 + 3

    def test_small_delta_cheap(self):
        assert delta_stored_size(1_000_000, 1_000_001) == 1 + 1
        assert delta_stored_size(1_000_000, 1_000_000) == 1 + 1

    def test_negative_delta(self):
        assert delta_stored_size(10, 5) == 1 + 1
        assert delta_stored_size(0, -200) == 1 + 2


class TestDeltaEncoding:
    def test_sorted_dense_keys_compress_hard(self):
        schema, records = int_records(list(range(10**6, 10**6 + 500)))
        block = DeltaEncoding().compress(records, schema)
        # First value 3+1 bytes, then 499 single-byte deltas + headers.
        assert block.payload_size == (1 + 3) + 499 * (1 + 1)
        # ~2 bytes/row vs 4 raw: comfortably under 60% of the raw size.
        assert block.payload_size < 500 * 4 * 0.6

    def test_roundtrip_sorted(self):
        schema, records = int_records(sorted([0, 5, 5, 7, 10**9, -3]))
        algorithm = DeltaEncoding()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_roundtrip_unsorted(self):
        schema, records = int_records([100, -100, 2**30, 0, 17])
        algorithm = DeltaEncoding()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_roundtrip_bigint(self):
        schema, records = int_records([2**60, 2**60 + 1, -(2**60)],
                                      big=True)
        algorithm = DeltaEncoding()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_char_column_falls_back_to_ns(self):
        schema = single_char_schema(20)
        records = [encode_record(schema, (v,)) for v in ("abc", "de")]
        algorithm = DeltaEncoding()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records
        assert block.payload_size == (3 + 1) + (2 + 1)

    def test_mixed_schema(self):
        schema = Schema([Column.of("s", "char(8)"),
                         Column.of("n", "integer")])
        rows = [("a", 100), ("b", 101), ("c", 99)]
        records = [encode_record(schema, row) for row in rows]
        algorithm = DeltaEncoding()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            DeltaEncoding().compress([], single_char_schema(4))

    def test_registered(self):
        assert get_algorithm("delta").name == "delta"

    def test_truncated_blob_rejected(self):
        schema, records = int_records([1, 2, 3])
        algorithm = DeltaEncoding()
        block = algorithm.compress(records, schema)
        from repro.compression.base import (CompressedBlock,
                                            CompressedColumn)
        broken = CompressedBlock(
            algorithm=block.algorithm, row_count=3,
            columns=(CompressedColumn(block.columns[0].blob[:-1],
                                      block.columns[0].payload_size),))
        with pytest.raises(CompressionError):
            algorithm.decompress(broken, schema)
