"""Unit tests for repro.compression.prefix."""

import pytest

from repro.errors import CompressionError
from repro.storage.record import encode_record
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.types import IntegerType
from repro.compression.prefix import PrefixCompression, common_prefix


def char_records(values: list[str], k: int = 20) -> tuple:
    schema = single_char_schema(k)
    return schema, [encode_record(schema, (v,)) for v in values]


class TestCommonPrefix:
    def test_shared(self):
        assert common_prefix([b"sku-001", b"sku-002", b"sku-1"]) == b"sku-"

    def test_identical(self):
        assert common_prefix([b"same", b"same"]) == b"same"

    def test_none_shared(self):
        assert common_prefix([b"abc", b"xyz"]) == b""

    def test_single_value(self):
        assert common_prefix([b"only"]) == b"only"

    def test_empty_input_rejected(self):
        with pytest.raises(CompressionError):
            common_prefix([])


class TestPrefixCompression:
    def test_payload_formula(self):
        values = ["SKU-aa", "SKU-bb", "SKU-c"]
        schema, records = char_records(values)
        block = PrefixCompression().compress(records, schema)
        prefix_len = 4
        remainders = [len(v) - prefix_len for v in values]
        expected = (1 + prefix_len) + sum(1 + r for r in remainders)
        assert block.payload_size == expected

    def test_roundtrip(self):
        values = ["pre-a", "pre-bb", "pre-", "pre-ccc x"]
        schema, records = char_records(values)
        algorithm = PrefixCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_no_common_prefix_degrades_to_ns(self):
        values = ["abc", "xyz"]
        schema, records = char_records(values)
        block = PrefixCompression().compress(records, schema)
        # Empty prefix: (c + 0) + sum(c + l) = NS payload + 1.
        assert block.payload_size == 1 + (1 + 3) + (1 + 3)

    def test_value_equal_to_prefix(self):
        values = ["ab", "ab", "abx"]
        schema, records = char_records(values)
        algorithm = PrefixCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_integer_fallback_roundtrip(self):
        schema = Schema([Column("n", IntegerType())])
        records = [encode_record(schema, (v,)) for v in (7, 300, -2)]
        algorithm = PrefixCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_mixed_schema(self):
        schema = Schema([Column.of("s", "char(12)"),
                         Column.of("n", "integer")])
        records = [encode_record(schema, ("pre-x", 1)),
                   encode_record(schema, ("pre-y", 70000))]
        algorithm = PrefixCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            PrefixCompression().compress([], single_char_schema(5))
