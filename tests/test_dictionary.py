"""Unit tests for page-level and global dictionary compression."""

import pytest

from repro.errors import CompressionError
from repro.storage.record import encode_record
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.types import IntegerType
from repro.compression.dictionary import (DictionaryCompression,
                                          pointer_bytes_for)
from repro.compression.global_dictionary import GlobalDictionaryCompression


def char_records(values: list[str], k: int = 20) -> tuple:
    schema = single_char_schema(k)
    return schema, [encode_record(schema, (v,)) for v in values]


class TestPointerBytes:
    def test_small_dictionaries(self):
        assert pointer_bytes_for(1) == 1
        assert pointer_bytes_for(2) == 1
        assert pointer_bytes_for(256) == 1

    def test_larger_dictionaries(self):
        assert pointer_bytes_for(257) == 2
        assert pointer_bytes_for(65536) == 2
        assert pointer_bytes_for(65537) == 3

    def test_invalid(self):
        with pytest.raises(CompressionError):
            pointer_bytes_for(0)


class TestPaperFigure1b:
    """Figure 1.b: repeated 'abcdefghij' stored once + pointers."""

    def test_repeated_value_stored_once(self):
        schema, records = char_records(["abcdefghij"] * 4)
        block = DictionaryCompression().compress(records, schema)
        # One 20-byte entry (fixed storage) + 4 pointers of 2 bytes.
        assert block.payload_size == 20 + 4 * 2

    def test_beats_uncompressed_when_repetitive(self):
        schema, records = char_records(["abcdefghij"] * 100)
        block = DictionaryCompression().compress(records, schema)
        assert block.payload_size < sum(len(r) for r in records)


class TestDictionaryCompression:
    def test_roundtrip(self):
        schema, records = char_records(
            ["aa", "bb", "aa", "cc", "bb", "aa", ""])
        algorithm = DictionaryCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_payload_formula_fixed_entries(self):
        values = ["a", "b", "c", "a", "b", "a"]
        schema, records = char_records(values)
        block = DictionaryCompression().compress(records, schema)
        assert block.payload_size == 3 * 20 + 6 * 2

    def test_payload_formula_ns_entries(self):
        values = ["a", "bb", "ccc", "a"]
        schema, records = char_records(values)
        algorithm = DictionaryCompression(entry_storage="null_suppressed")
        block = algorithm.compress(records, schema)
        assert block.payload_size == ((1 + 1) + (2 + 1) + (3 + 1)) + 4 * 2

    def test_roundtrip_ns_entries(self):
        schema, records = char_records(["xy", "xy", "z  z", ""])
        algorithm = DictionaryCompression(entry_storage="null_suppressed")
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_derived_pointer_width(self):
        values = [f"v{i}" for i in range(300)]
        schema, records = char_records(values)
        algorithm = DictionaryCompression(pointer_bytes=None)
        block = algorithm.compress(records, schema)
        assert block.payload_size == 300 * 20 + 300 * 2  # 300 > 256 -> 2B

    def test_derived_pointer_width_small(self):
        schema, records = char_records(["a", "b"] * 10)
        algorithm = DictionaryCompression(pointer_bytes=None)
        block = algorithm.compress(records, schema)
        assert block.payload_size == 2 * 20 + 20 * 1

    def test_pointer_overflow_rejected(self):
        values = [f"v{i}" for i in range(300)]
        schema, records = char_records(values)
        algorithm = DictionaryCompression(pointer_bytes=1)
        with pytest.raises(CompressionError):
            algorithm.compress(records, schema)

    def test_bad_parameters(self):
        with pytest.raises(CompressionError):
            DictionaryCompression(pointer_bytes=0)
        with pytest.raises(CompressionError):
            DictionaryCompression(entry_storage="weird")

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            DictionaryCompression().compress([], single_char_schema(5))

    def test_integer_column_roundtrip(self):
        schema = Schema([Column("n", IntegerType())])
        records = [encode_record(schema, (v,)) for v in (5, -5, 5, 999)]
        algorithm = DictionaryCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_multi_column_independent_dictionaries(self):
        schema = Schema([Column.of("a", "char(4)"),
                         Column.of("b", "char(4)")])
        records = [encode_record(schema, row)
                   for row in [("x", "p"), ("x", "q"), ("y", "p")]]
        block = DictionaryCompression().compress(records, schema)
        # Column a: 2 entries; column b: 2 entries; 3 pointers each.
        assert block.columns[0].payload_size == 2 * 4 + 3 * 2
        assert block.columns[1].payload_size == 2 * 4 + 3 * 2


class TestGlobalDictionary:
    def test_scope(self):
        assert GlobalDictionaryCompression().scope == "index"
        assert DictionaryCompression().scope == "page"

    def test_simplified_model_formula(self):
        """CF_D = d/n + p/k with fixed entries on char(k)."""
        values = [f"u{i}" for i in range(10)] * 20  # d=10, n=200
        schema, records = char_records(values)
        block = GlobalDictionaryCompression().compress(records, schema)
        n, d, k, p = 200, 10, 20, 2
        assert block.payload_size == d * k + n * p
        cf = block.payload_size / (n * k)
        assert cf == pytest.approx(d / n + p / k)

    def test_roundtrip(self):
        schema, records = char_records(["m", "n", "m", "o"] * 10)
        algorithm = GlobalDictionaryCompression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_names(self):
        assert GlobalDictionaryCompression().name == "global_dictionary"
        assert GlobalDictionaryCompression(pointer_bytes=None).name == \
            "global_dictionary_derived"
