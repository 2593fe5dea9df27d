"""Unit tests for repro.storage.record."""

import pytest

from repro.errors import EncodingError
from repro.storage.record import decode_record, encode_record, split_record
from repro.storage.schema import Column, Schema


def fixed_schema() -> Schema:
    return Schema([Column.of("name", "char(10)"),
                   Column.of("qty", "integer"),
                   Column.of("big", "bigint")])


def mixed_schema() -> Schema:
    return Schema([Column.of("name", "char(6)"),
                   Column.of("note", "varchar(40)"),
                   Column.of("qty", "integer")])


class TestFixedRecords:
    def test_roundtrip(self):
        schema = fixed_schema()
        row = ("widget", 42, -7)
        assert decode_record(schema, encode_record(schema, row)) == row

    def test_width(self):
        schema = fixed_schema()
        assert len(encode_record(schema, ("w", 1, 2))) == 10 + 4 + 8

    def test_truncated_rejected(self):
        schema = fixed_schema()
        record = encode_record(schema, ("w", 1, 2))
        with pytest.raises(EncodingError):
            decode_record(schema, record[:-1])

    def test_trailing_bytes_rejected(self):
        schema = fixed_schema()
        record = encode_record(schema, ("w", 1, 2))
        with pytest.raises(EncodingError):
            decode_record(schema, record + b"x")

    def test_split_matches_columns(self):
        schema = fixed_schema()
        row = ("widget", 42, -7)
        slices = split_record(schema, encode_record(schema, row))
        assert len(slices) == 3
        assert slices[0] == schema[0].dtype.encode("widget")
        assert slices[1] == schema[1].dtype.encode(42)
        assert slices[2] == schema[2].dtype.encode(-7)


class TestMixedRecords:
    def test_roundtrip(self):
        schema = mixed_schema()
        row = ("abc", "a variable note", 9)
        assert decode_record(schema, encode_record(schema, row)) == row

    def test_empty_varchar(self):
        schema = mixed_schema()
        row = ("abc", "", 9)
        assert decode_record(schema, encode_record(schema, row)) == row

    def test_split_sizes(self):
        schema = mixed_schema()
        row = ("abc", "hello", 9)
        slices = split_record(schema, encode_record(schema, row))
        assert [len(s) for s in slices] == [6, 2 + 5, 4]

    def test_truncated_varchar_rejected(self):
        schema = mixed_schema()
        record = encode_record(schema, ("abc", "hello", 9))
        with pytest.raises(EncodingError):
            decode_record(schema, record[:8])

    def test_split_trailing_bytes_rejected(self):
        schema = mixed_schema()
        record = encode_record(schema, ("abc", "hello", 9))
        with pytest.raises(EncodingError):
            split_record(schema, record + b"zz")

