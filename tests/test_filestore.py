"""Unit tests for repro.storage.filestore."""

import io

import pytest

from repro.errors import PageFormatError, SchemaError
from repro.storage.filestore import (load_heap, load_table, save_heap,
                                     save_table)
from repro.storage.heap import HeapFile
from repro.storage.index import Index, IndexKind
from repro.workloads.generators import make_multicolumn_table, make_table


class TestHeapPersistence:
    def test_roundtrip(self):
        heap = HeapFile(page_size=256)
        records = [f"record-{i:04d}".encode() for i in range(100)]
        heap.insert_many(records)
        buffer = io.BytesIO()
        save_heap(heap, buffer)
        buffer.seek(0)
        loaded = load_heap(buffer)
        assert loaded.page_size == 256
        assert loaded.num_records == 100
        assert list(loaded.records()) == records

    def test_empty_heap(self):
        heap = HeapFile(page_size=128)
        buffer = io.BytesIO()
        save_heap(heap, buffer)
        buffer.seek(0)
        loaded = load_heap(buffer)
        assert loaded.num_records == 0
        assert loaded.num_pages == 0

    def test_bad_magic_rejected(self):
        with pytest.raises(PageFormatError):
            load_heap(io.BytesIO(b"NOTAHEAP" + b"\x00" * 16))

    def test_truncated_rejected(self):
        heap = HeapFile(page_size=128)
        heap.insert(b"data")
        buffer = io.BytesIO()
        save_heap(heap, buffer)
        truncated = io.BytesIO(buffer.getvalue()[:-10])
        with pytest.raises(PageFormatError):
            load_heap(truncated)

    def test_record_count_mismatch_rejected(self):
        heap = HeapFile(page_size=128)
        heap.insert(b"data")
        buffer = io.BytesIO()
        save_heap(heap, buffer)
        image = bytearray(buffer.getvalue())
        image[16:24] = (99).to_bytes(8, "big")  # corrupt record count
        with pytest.raises(PageFormatError):
            load_heap(io.BytesIO(bytes(image)))


class TestTablePersistence:
    def test_roundtrip_single_column(self, tmp_path):
        table = make_table(n=500, d=30, k=16, page_size=512, seed=5)
        path = tmp_path / "t.rpr"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.name == table.name
        assert loaded.schema == table.schema
        assert loaded.num_rows == table.num_rows
        assert list(loaded.rows()) == list(table.rows())

    def test_roundtrip_multicolumn(self, tmp_path):
        table = make_multicolumn_table(
            "orders", 300, [("status", 10, 4), ("qty_code", 8, 20)],
            page_size=512, seed=6)
        path = tmp_path / "orders.rpr"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.schema.names == ("status", "qty_code")
        assert list(loaded.rows()) == list(table.rows())

    def test_positional_access_restored(self, tmp_path):
        table = make_table(n=200, d=10, k=12, page_size=512, seed=7)
        path = tmp_path / "t.rpr"
        save_table(table, path)
        loaded = load_table(path)
        for position in (0, 57, 199):
            assert loaded.row_at(position) == table.row_at(position)

    def test_indexes_rebuildable_after_load(self, tmp_path):
        table = make_table(n=400, d=25, k=12, page_size=512, seed=8)
        path = tmp_path / "t.rpr"
        save_table(table, path)
        loaded = load_table(path)
        index = Index.over(loaded, ["a"], kind=IndexKind.CLUSTERED)
        assert index.leaf_records() == Index.over(
            table, ["a"], kind=IndexKind.CLUSTERED).leaf_records()
        assert index.num_entries == 400

    def test_estimator_runs_on_loaded_table(self, tmp_path):
        from repro.compression.null_suppression import NullSuppression
        from repro.core.samplecf import SampleCF, true_cf_table

        table = make_table(n=1000, d=50, k=16, page_size=512, seed=9)
        path = tmp_path / "t.rpr"
        save_table(table, path)
        loaded = load_table(path)
        original = true_cf_table(table, ["a"], NullSuppression(),
                                 page_size=512)
        restored = true_cf_table(loaded, ["a"], NullSuppression(),
                                 page_size=512)
        assert original == restored
        estimate = SampleCF(NullSuppression(), page_size=512) \
            .estimate_table(loaded, 0.1, ["a"], seed=1)
        assert abs(estimate.estimate - original) < 0.1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rpr"
        path.write_bytes(b"garbage!" + b"\x00" * 64)
        with pytest.raises(SchemaError):
            load_table(path)
