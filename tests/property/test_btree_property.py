"""Property tests: B+-tree structural invariants under arbitrary
workloads."""

from hypothesis import given, settings, strategies as st

from tests.btree_oracle import BPlusTree

keys = st.integers(0, 500)
key_lists = st.lists(keys, min_size=0, max_size=300)


@settings(max_examples=50, deadline=None)
@given(data=key_lists)
def test_bulk_load_iterates_sorted(data):
    entries = [((key,), f"r{key}".encode()) for key in data]
    tree = BPlusTree.bulk_load(entries, page_size=128, max_fanout=4)
    tree.validate()
    assert [k[0] for k, _ in tree.items()] == sorted(data)


@settings(max_examples=50, deadline=None)
@given(data=key_lists)
def test_inserts_match_sorted(data):
    tree = BPlusTree(page_size=128, max_fanout=4)
    for key in data:
        tree.insert((key,), b"x" * (key % 17 + 1))
    tree.validate()
    assert [k[0] for k, _ in tree.items()] == sorted(data)


@settings(max_examples=50, deadline=None)
@given(initial=key_lists, extra=key_lists)
def test_bulk_then_insert(initial, extra):
    entries = [((key,), b"bulk") for key in initial]
    tree = BPlusTree.bulk_load(entries, page_size=128, max_fanout=4)
    for key in extra:
        tree.insert((key,), b"ins")
    tree.validate()
    assert [k[0] for k, _ in tree.items()] == sorted(initial + extra)


@settings(max_examples=50, deadline=None)
@given(data=key_lists, probe=keys)
def test_search_finds_all_duplicates(data, probe):
    tree = BPlusTree.bulk_load([((key,), b"v") for key in data],
                               page_size=128, max_fanout=4)
    assert len(tree.search((probe,))) == data.count(probe)


@settings(max_examples=50, deadline=None)
@given(data=key_lists, lo=keys, hi=keys)
def test_range_scan_matches_filter(data, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    tree = BPlusTree.bulk_load([((key,), b"v") for key in data],
                               page_size=128, max_fanout=4)
    scanned = [k[0] for k, _ in tree.range_scan((lo,), (hi,))]
    assert scanned == sorted(key for key in data if lo <= key <= hi)


@settings(max_examples=30, deadline=None)
@given(data=key_lists)
def test_leaf_pages_conserve_records(data):
    tree = BPlusTree.bulk_load([((key,), f"{key}".encode())
                                for key in data],
                               page_size=128, max_fanout=4)
    from_pages = []
    for page in tree.leaf_pages():
        from_pages.extend(page.records())
        assert page.used_bytes <= 128
    assert from_pages == [record for _, record in tree.items()]
