"""Unit tests for the composite PAGE compression."""

import pytest

from repro.errors import CompressionError
from repro.storage.record import encode_record
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.types import IntegerType
from repro.compression.page_compression import PageCompression


def char_records(values: list[str], k: int = 24) -> tuple:
    schema = single_char_schema(k)
    return schema, [encode_record(schema, (v,)) for v in values]


class TestPageCompression:
    def test_payload_formula(self):
        values = ["SKU-a", "SKU-b", "SKU-a", "SKU-a"]
        schema, records = char_records(values)
        block = PageCompression().compress(records, schema)
        # Prefix 'SKU-' stored once (1+4); dictionary of remainders
        # {'a','b'} NS'd (1+1 each); 4 pointers of 2 bytes.
        assert block.payload_size == (1 + 4) + 2 * (1 + 1) + 4 * 2

    def test_roundtrip(self):
        values = ["SKU-aa", "SKU-bb", "SKU-aa", "SKU-", "SKU-c c"]
        schema, records = char_records(values)
        algorithm = PageCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_roundtrip_no_shared_prefix(self):
        values = ["alpha", "beta", "alpha", ""]
        schema, records = char_records(values)
        algorithm = PageCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_beats_plain_dictionary_on_prefixed_data(self):
        from repro.compression.dictionary import DictionaryCompression

        values = [f"WAREHOUSE-EU-{i:04d}" for i in range(40)]
        schema, records = char_records(values)
        composite = PageCompression().compress(records, schema)
        plain = DictionaryCompression(
            entry_storage="null_suppressed").compress(records, schema)
        assert composite.payload_size < plain.payload_size

    def test_non_char_column_dict_only(self):
        schema = Schema([Column("n", IntegerType())])
        records = [encode_record(schema, (v,)) for v in (5, 5, 9, -1)]
        algorithm = PageCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_mixed_schema_roundtrip(self):
        schema = Schema([Column.of("s", "char(16)"),
                         Column.of("n", "integer")])
        rows = [("pre-x", 1), ("pre-y", 1), ("pre-x", 2**20)]
        records = [encode_record(schema, row) for row in rows]
        algorithm = PageCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            PageCompression().compress([], single_char_schema(5))

    def test_pointer_overflow_rejected(self):
        values = [f"p{i:04d}" for i in range(300)]
        schema, records = char_records(values)
        with pytest.raises(CompressionError):
            PageCompression(pointer_bytes=1).compress(records, schema)
