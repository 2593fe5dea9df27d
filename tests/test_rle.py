"""Unit tests for repro.compression.rle."""

import pytest

from repro.errors import CompressionError
from repro.storage.record import encode_record
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.types import CharType, IntegerType, VarCharType
from repro.compression.rle import (RunLengthEncoding, RUN_COUNT_BYTES,
                                   rle_run_stored_size)


def char_records(values: list[str], k: int = 20) -> tuple:
    schema = single_char_schema(k)
    return schema, [encode_record(schema, (v,)) for v in values]


class TestRunLengthEncoding:
    def test_single_run(self):
        schema, records = char_records(["abc"] * 50)
        block = RunLengthEncoding().compress(records, schema)
        assert block.payload_size == RUN_COUNT_BYTES + 1 + 3

    def test_sorted_runs_counted(self):
        schema, records = char_records(["a"] * 5 + ["bb"] * 3 + ["c"] * 2)
        block = RunLengthEncoding().compress(records, schema)
        expected = (RUN_COUNT_BYTES + 1 + 1) + (RUN_COUNT_BYTES + 1 + 2) \
            + (RUN_COUNT_BYTES + 1 + 1)
        assert block.payload_size == expected

    def test_alternating_values_make_many_runs(self):
        schema, records = char_records(["a", "b"] * 10)
        block = RunLengthEncoding().compress(records, schema)
        assert block.payload_size == 20 * (RUN_COUNT_BYTES + 1 + 1)

    def test_roundtrip(self):
        schema, records = char_records(
            ["aa"] * 3 + [""] * 2 + ["aa"] + ["zz z"] * 4)
        algorithm = RunLengthEncoding()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_roundtrip_integers(self):
        schema = Schema([Column("n", IntegerType())])
        records = [encode_record(schema, (v,))
                   for v in (1, 1, 1, -5, -5, 70000)]
        algorithm = RunLengthEncoding()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_roundtrip_varchar(self):
        schema = Schema([Column("v", VarCharType(20))])
        records = [encode_record(schema, (v,))
                   for v in ("aa", "aa", "b  ", "b  ", "")]
        algorithm = RunLengthEncoding()
        block = algorithm.compress(records, schema)
        assert algorithm.decompress(block, schema) == records

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            RunLengthEncoding().compress([], single_char_schema(5))

    def test_row_count_mismatch_detected(self):
        schema, records = char_records(["a", "a", "b"])
        block = RunLengthEncoding().compress(records, schema)
        from repro.compression.base import CompressedBlock
        wrong = CompressedBlock(algorithm=block.algorithm, row_count=5,
                                columns=block.columns)
        with pytest.raises(CompressionError):
            RunLengthEncoding().decompress(wrong, schema)

    def test_run_stored_size_helper(self):
        dtype = CharType(20)
        assert rle_run_stored_size(dtype, dtype.encode("abc")) == \
            RUN_COUNT_BYTES + 1 + 3
        vdtype = VarCharType(9)
        assert rle_run_stored_size(vdtype, vdtype.encode("abc")) == \
            RUN_COUNT_BYTES + 2 + 3

    def test_multi_column_runs_independent(self):
        schema = Schema([Column.of("a", "char(4)"),
                         Column.of("b", "char(4)")])
        rows = [("x", "p"), ("x", "q"), ("x", "q")]
        records = [encode_record(schema, row) for row in rows]
        block = RunLengthEncoding().compress(records, schema)
        # Column a: 1 run; column b: 2 runs.
        assert block.columns[0].payload_size == RUN_COUNT_BYTES + 1 + 1
        assert block.columns[1].payload_size == 2 * (RUN_COUNT_BYTES + 1 + 1)
