"""Unit tests for the B+-tree oracle (tests/btree_oracle.py)."""

import numpy as np
import pytest

from repro.errors import IndexError_
from tests.btree_oracle import BPlusTree


def entries_for(keys: list) -> list:
    return [((key,), f"payload-{key}".encode()) for key in keys]


class TestBulkLoad:
    def test_empty(self):
        tree = BPlusTree.bulk_load([], page_size=256)
        assert len(tree) == 0
        assert list(tree.items()) == []
        tree.validate()

    def test_single_entry(self):
        tree = BPlusTree.bulk_load(entries_for([5]), page_size=256)
        assert len(tree) == 1
        assert tree.search((5,)) == [b"payload-5"]
        tree.validate()

    def test_sorts_unsorted_input(self):
        keys = [9, 3, 7, 1, 5]
        tree = BPlusTree.bulk_load(entries_for(keys), page_size=256)
        assert [k for k, _ in tree.items()] == [(1,), (3,), (5,), (7,), (9,)]
        tree.validate()

    def test_presorted_flag_accepts_sorted(self):
        tree = BPlusTree.bulk_load(entries_for([1, 2, 3]), page_size=256,
                                   presorted=True)
        tree.validate()

    def test_presorted_flag_rejects_unsorted(self):
        with pytest.raises(IndexError_):
            BPlusTree.bulk_load(entries_for([2, 1]), page_size=256,
                                presorted=True)

    def test_many_entries_multiple_levels(self):
        keys = list(range(2000))
        tree = BPlusTree.bulk_load(entries_for(keys), page_size=256,
                                   max_fanout=8)
        assert len(tree) == 2000
        assert tree.height >= 3
        assert [k for k, _ in tree.items()] == [(k,) for k in keys]
        tree.validate()

    def test_fill_factor_spreads_leaves(self):
        keys = list(range(500))
        full = BPlusTree.bulk_load(entries_for(keys), page_size=512)
        half = BPlusTree.bulk_load(entries_for(keys), page_size=512,
                                   fill_factor=0.5)
        assert half.num_leaf_pages > full.num_leaf_pages
        half.validate()

    def test_bad_fill_factor(self):
        with pytest.raises(IndexError_):
            BPlusTree.bulk_load([], fill_factor=0.0)
        with pytest.raises(IndexError_):
            BPlusTree.bulk_load([], fill_factor=1.5)

    def test_duplicates_preserved(self):
        keys = [1, 2, 2, 2, 3]
        tree = BPlusTree.bulk_load(entries_for(keys), page_size=256)
        assert len(tree.search((2,))) == 3
        tree.validate()


class TestInsert:
    def test_sequential_inserts(self):
        tree = BPlusTree(page_size=256, max_fanout=4)
        for key in range(300):
            tree.insert((key,), f"v{key}".encode())
        assert len(tree) == 300
        assert [k for k, _ in tree.items()] == [(k,) for k in range(300)]
        tree.validate()

    def test_reverse_inserts(self):
        tree = BPlusTree(page_size=256, max_fanout=4)
        for key in reversed(range(300)):
            tree.insert((key,), f"v{key}".encode())
        assert [k for k, _ in tree.items()] == [(k,) for k in range(300)]
        tree.validate()

    def test_random_inserts_match_sorted(self, rng: np.random.Generator):
        keys = [int(k) for k in rng.integers(0, 10_000, size=1500)]
        tree = BPlusTree(page_size=256, max_fanout=6)
        for key in keys:
            tree.insert((key,), b"x")
        assert [k for k, _ in tree.items()] == [(k,) for k in sorted(keys)]
        tree.validate()

    def test_insert_into_bulk_loaded(self):
        tree = BPlusTree.bulk_load(entries_for(range(0, 100, 2)),
                                   page_size=256, max_fanout=4)
        for key in range(1, 100, 2):
            tree.insert((key,), b"odd")
        assert [k for k, _ in tree.items()] == [(k,) for k in range(100)]
        tree.validate()

    def test_heavy_duplicates(self):
        tree = BPlusTree(page_size=256, max_fanout=4)
        for _ in range(500):
            tree.insert((42,), b"same")
        assert len(tree.search((42,))) == 500
        tree.validate()

    def test_record_too_large(self):
        tree = BPlusTree(page_size=128)
        with pytest.raises(IndexError_):
            tree.insert((1,), b"z" * 200)

    def test_variable_size_records(self, rng: np.random.Generator):
        tree = BPlusTree(page_size=256, max_fanout=5)
        for i in range(400):
            size = int(rng.integers(1, 100))
            tree.insert((int(rng.integers(0, 50)),), bytes(size))
        tree.validate()


class TestSearch:
    def test_point_lookup(self):
        tree = BPlusTree.bulk_load(entries_for(range(100)), page_size=256,
                                   max_fanout=4)
        assert tree.search((37,)) == [b"payload-37"]
        assert tree.search((1000,)) == []

    def test_duplicates_spanning_leaves(self):
        keys = [1] * 5 + [2] * 200 + [3] * 5
        tree = BPlusTree.bulk_load(entries_for(keys), page_size=128,
                                   max_fanout=4)
        assert len(tree.search((2,))) == 200
        assert len(tree.search((1,))) == 5
        assert len(tree.search((3,))) == 5

    def test_empty_tree_search(self):
        tree = BPlusTree(page_size=256)
        assert tree.search((1,)) == []


class TestRangeScan:
    def test_full_scan(self):
        tree = BPlusTree.bulk_load(entries_for(range(50)), page_size=256,
                                   max_fanout=4)
        assert len(list(tree.range_scan())) == 50

    def test_bounded_scan(self):
        tree = BPlusTree.bulk_load(entries_for(range(100)), page_size=256,
                                   max_fanout=4)
        result = [k[0] for k, _ in tree.range_scan((10,), (20,))]
        assert result == list(range(10, 21))

    def test_open_ended_scans(self):
        tree = BPlusTree.bulk_load(entries_for(range(20)), page_size=256)
        low = [k[0] for k, _ in tree.range_scan(lo=(15,))]
        assert low == list(range(15, 20))
        high = [k[0] for k, _ in tree.range_scan(hi=(4,))]
        assert high == list(range(5))

    def test_scan_missing_bounds(self):
        tree = BPlusTree.bulk_load(entries_for([1, 5, 9]), page_size=256)
        assert [k[0] for k, _ in tree.range_scan((2,), (8,))] == [5]


class TestPhysicalViews:
    def test_leaf_pages_hold_all_records(self):
        keys = list(range(300))
        tree = BPlusTree.bulk_load(entries_for(keys), page_size=256,
                                   max_fanout=4)
        from_pages = []
        for page in tree.leaf_pages():
            from_pages.extend(page.records())
        assert from_pages == [record for _, record in tree.items()]

    def test_leaf_byte_accounting(self):
        keys = list(range(100))
        tree = BPlusTree.bulk_load(entries_for(keys), page_size=256)
        expected = sum(len(record) for _, record in tree.items())
        assert tree.leaf_payload_bytes == expected
        assert tree.leaf_physical_bytes == tree.num_leaf_pages * 256

    def test_leaf_pages_within_capacity(self):
        tree = BPlusTree.bulk_load(entries_for(range(500)), page_size=128,
                                   max_fanout=4)
        for page in tree.leaf_pages():
            assert page.used_bytes <= 128

    def test_fanout_bounds(self):
        with pytest.raises(IndexError_):
            BPlusTree(max_fanout=2)
