"""Unit tests for repro.compression.null_suppression."""

import pytest

from repro.errors import CompressionError
from repro.storage.record import encode_record
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.types import CharType, IntegerType, VarCharType
from repro.compression.null_suppression import (NullSuppression,
                                                ns_header_bytes,
                                                ns_stored_size)


def char_records(values: list[str], k: int = 20) -> tuple:
    schema = single_char_schema(k)
    return schema, [encode_record(schema, (v,)) for v in values]


class TestPaperFigure1a:
    """The worked example from Figure 1.a / Section II-A."""

    def test_abc_in_char20_stores_3_plus_1_bytes(self):
        schema, records = char_records(["abc"])
        block = NullSuppression().compress(records, schema)
        # "null suppression would only store the value 'abc' along with
        # its length": 3 body bytes + 1 length byte.
        assert block.payload_size == 3 + 1

    def test_uncompressed_would_use_all_20_bytes(self):
        schema, records = char_records(["abc"])
        assert len(records[0]) == 20

    def test_cf_for_single_value(self):
        schema, records = char_records(["abc"])
        block = NullSuppression().compress(records, schema)
        assert block.payload_size / len(records[0]) == pytest.approx(0.2)


class TestTrailingMode:
    def test_roundtrip(self):
        schema, records = char_records(
            ["", "a", "abc", "x" * 20, "mid dle", "trail  mid"])
        algorithm = NullSuppression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_payload_is_sum_of_l_plus_c(self):
        values = ["a", "bb", "ccc", "dddd"]
        schema, records = char_records(values)
        block = NullSuppression().compress(records, schema)
        assert block.payload_size == sum(len(v) + 1 for v in values)

    def test_blob_differs_from_payload_only_by_headers(self):
        schema, records = char_records(["abc", "de"])
        block = NullSuppression().compress(records, schema)
        # Trailing NS blobs carry no extra structure beyond the model.
        assert block.serialized_size == block.payload_size

    def test_empty_record_set_rejected(self):
        schema = single_char_schema(8)
        with pytest.raises(CompressionError):
            NullSuppression().compress([], schema)

    def test_name(self):
        assert NullSuppression().name == "null_suppression"
        assert NullSuppression(mode="runs").name == "null_suppression_runs"

    def test_unknown_mode_rejected(self):
        with pytest.raises(CompressionError):
            NullSuppression(mode="banana")


class TestRunsMode:
    def test_zero_run_compresses(self):
        """Figure 1.a's zero-padded shape: interior zeros collapse."""
        schema, records = char_records(["00000000000000000abc"])
        trailing = NullSuppression().compress(records, schema)
        runs = NullSuppression(mode="runs").compress(records, schema)
        assert runs.payload_size < trailing.payload_size
        # 17 zeros -> 3-byte token; 'abc' literal; 1 length byte.
        assert runs.payload_size == 1 + 3 + 3

    def test_roundtrip_with_runs(self):
        values = ["0000000123", "a    b", "0" * 20, " leading",
                  "no runs here", "\x1b escape \x1b"]
        schema, records = char_records(values)
        algorithm = NullSuppression(mode="runs")
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_short_runs_left_alone(self):
        schema, records = char_records(["a00b"])
        block = NullSuppression(mode="runs").compress(records, schema)
        assert block.payload_size == 1 + 4  # no token for a 2-run

    def test_escape_byte_roundtrip(self):
        schema, records = char_records(["\x1b\x1b\x1b"])
        algorithm = NullSuppression(mode="runs")
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records
        # Each ESC costs 2 bytes: expansion is allowed but reversible.
        assert block.payload_size == 1 + 6


class TestOtherTypes:
    def test_integer_column(self):
        schema = Schema([Column("n", IntegerType())])
        records = [encode_record(schema, (v,))
                   for v in (0, 7, 300, -1, 2**30)]
        algorithm = NullSuppression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records
        # 0 and 7 and -1 need 1 byte, 300 needs 2, 2**30 needs 4.
        assert block.payload_size == (1 + 1) * 3 + (1 + 2) + (1 + 4)

    def test_varchar_column_identity(self):
        schema = Schema([Column("v", VarCharType(30))])
        records = [encode_record(schema, (v,)) for v in ("ab", "", "xyz ")]
        algorithm = NullSuppression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records
        assert block.payload_size == sum(len(r) for r in records)

    def test_multi_column_compressed_independently(self):
        schema = Schema([Column.of("a", "char(10)"),
                         Column.of("n", "integer")])
        records = [encode_record(schema, ("hi", 5)),
                   encode_record(schema, ("there", 70000))]
        algorithm = NullSuppression()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records
        assert len(block.columns) == 2
        assert block.columns[0].payload_size == (2 + 1) + (5 + 1)
        assert block.columns[1].payload_size == (1 + 1) + (1 + 3)


class TestHelpers:
    def test_ns_header_bytes(self):
        assert ns_header_bytes(CharType(20)) == 1
        assert ns_header_bytes(CharType(300)) == 2
        assert ns_header_bytes(VarCharType(10)) == 2
        assert ns_header_bytes(IntegerType()) == 1

    def test_ns_header_bytes_runs_mode_wider(self):
        assert ns_header_bytes(CharType(200), "runs") == 2
        assert ns_header_bytes(CharType(100), "runs") == 1

    def test_ns_stored_size(self):
        assert ns_stored_size(CharType(20), "abc") == 4
        assert ns_stored_size(IntegerType(), 7) == 2
        assert ns_stored_size(VarCharType(9), "abc") == 5
