"""Unit tests for repro.storage.heap."""

import numpy as np
import pytest

from repro.errors import RecordNotFoundError
from repro.storage.heap import HeapFile
from repro.storage.rid import RID


class TestHeapFile:
    def test_insert_returns_sequential_rids(self):
        heap = HeapFile(page_size=128)
        rids = [heap.insert(f"r{i}".encode().ljust(20)) for i in range(20)]
        assert rids[0] == RID(0, 0)
        assert len(set(rids)) == 20
        assert heap.num_records == 20
        assert heap.num_pages > 1

    def test_get_by_rid(self):
        heap = HeapFile(page_size=128)
        rid = heap.insert(b"hello")
        assert heap.get(rid) == b"hello"

    def test_get_missing_page(self):
        heap = HeapFile(page_size=128)
        with pytest.raises(RecordNotFoundError):
            heap.get(RID(5, 0))

    def test_scan_order_matches_insert_order(self):
        heap = HeapFile(page_size=128)
        records = [f"rec-{i:03d}".encode() for i in range(30)]
        inserted = heap.insert_many(records)
        scanned = list(heap.scan())
        assert [record for _, record in scanned] == records
        assert [rid for rid, _ in scanned] == inserted

    def test_records_at_ordinals(self):
        """Insertion ordinals map to records and packed RID locators."""
        heap = HeapFile(page_size=128)
        inserted = heap.insert_many([f"rec-{i:03d}".encode()
                                     for i in range(30)])
        ordinals = np.array([29, 0, 7, 7, 15])
        records, locators = heap.records_at(ordinals)
        rids = [inserted[i] for i in ordinals.tolist()]
        assert records == [heap.get(rid) for rid in rids]
        assert locators.tolist() == [(rid.page_id << 32) | rid.slot
                                     for rid in rids]
        with pytest.raises(RecordNotFoundError):
            heap.records_at(np.array([30]))

    def test_records_iterator(self):
        heap = HeapFile(page_size=128)
        heap.insert_many([b"a", b"b", b"c"])
        assert list(heap.records()) == [b"a", b"b", b"c"]

    def test_pages_and_page_access(self):
        heap = HeapFile(page_size=128)
        heap.insert_many([b"x" * 30 for _ in range(10)])
        pages = list(heap.pages())
        assert len(pages) == heap.num_pages
        assert heap.page(0) is pages[0]
        with pytest.raises(RecordNotFoundError):
            heap.page(heap.num_pages)

    def test_byte_accounting(self):
        heap = HeapFile(page_size=128)
        heap.insert_many([b"x" * 10 for _ in range(12)])
        assert heap.payload_bytes == 120
        assert heap.physical_bytes == heap.num_pages * 128

    def test_len(self):
        heap = HeapFile(page_size=128)
        assert len(heap) == 0
        heap.insert(b"a")
        assert len(heap) == 1

    def test_records_spanning_many_pages_stay_ordered(self):
        heap = HeapFile(page_size=128)
        records = [bytes([i % 251]) * 40 for i in range(50)]
        heap.insert_many(records)
        assert list(heap.records()) == records
        assert heap.num_pages >= 25  # 2 records of 40B + slots per page


class TestHeapPickling:
    def test_pickle_roundtrips_via_page_images(self):
        import pickle

        heap = HeapFile(page_size=128)
        records = [f"rec-{i:03d}".encode() for i in range(30)]
        rids = heap.insert_many(records)
        restored = pickle.loads(pickle.dumps(heap))
        assert restored.num_records == heap.num_records
        assert restored.num_pages == heap.num_pages
        assert list(restored.records()) == records
        assert [rid for rid, _ in restored.scan()] == rids
        assert restored.payload_bytes == heap.payload_bytes

    def test_restored_heap_keeps_appending(self):
        import pickle

        heap = HeapFile(page_size=128)
        heap.insert_many([b"x" * 30 for _ in range(5)])
        restored = pickle.loads(pickle.dumps(heap))
        rid = restored.insert(b"y" * 30)
        assert restored.get(rid) == b"y" * 30
        assert restored.num_records == 6
