"""Unit tests for repro.storage.table."""

import pytest

from repro.errors import SchemaError
from repro.storage.index import Index, IndexKind
from repro.storage.record import decode_record
from repro.storage.rid import RID
from repro.storage.schema import Column, Schema, single_char_schema
from repro.storage.table import Table

PAGE = 256


def sample_table() -> Table:
    schema = Schema([Column.of("name", "char(10)"),
                     Column.of("qty", "integer")])
    rows = [("apple", 3), ("banana", 5), ("cherry", 2), ("apple", 9)]
    return Table.from_rows("fruit", schema, rows, page_size=PAGE)


class TestTableBasics:
    def test_from_rows(self):
        table = sample_table()
        assert table.num_rows == 4
        assert len(table) == 4
        assert list(table.rows())[1] == ("banana", 5)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Table("", single_char_schema(5))

    def test_row_at_positions(self):
        table = sample_table()
        assert table.row_at(0) == ("apple", 3)
        assert table.row_at(3) == ("apple", 9)
        assert table.rows_at([2, 0]) == [("cherry", 2), ("apple", 3)]

    def test_rid_at_resolves(self):
        table = sample_table()
        rid = table.rid_at(2)
        assert table.heap.get(rid) is not None

    def test_column_values(self):
        table = sample_table()
        assert table.column_values("qty") == [3, 5, 2, 9]
        with pytest.raises(SchemaError):
            table.column_values("missing")

    def test_pages_iterates_heap(self):
        table = sample_table()
        assert sum(len(p) for p in table.pages()) == 4

    def test_invalid_row_rejected(self):
        from repro.errors import EncodingError
        table = sample_table()
        with pytest.raises(EncodingError):
            table.insert(("toolongname", "not an int"))


def leaf_entries(index: Index) -> list[tuple]:
    return [decode_record(index.leaf_schema, record)
            for record in index.leaf_records()]


class TestTableIndexes:
    def test_create_index_and_lookup(self):
        table = sample_table()
        index = Index.over(table, ["name"], kind=IndexKind.NONCLUSTERED)
        rids = [RID(locator >> 32, locator & 0xFFFFFFFF)
                for name, locator in leaf_entries(index) if name == "apple"]
        assert sorted(table.heap.get(rid)[:5] for rid in rids) == \
            [b"apple", b"apple"]

    def test_create_clustered_index(self):
        table = sample_table()
        index = Index.over(table, ["name"], kind=IndexKind.CLUSTERED)
        assert [row[0] for row in leaf_entries(index)] == \
            ["apple", "apple", "banana", "cherry"]

    def test_index_sees_only_current_rows(self):
        table = sample_table()
        index = Index.over(table, ["qty"], kind=IndexKind.NONCLUSTERED)
        assert index.num_entries == 4
        table.insert(("fig", 1))
        assert index.num_entries == 4


class TestTablePickling:
    def test_pickle_roundtrips_via_heap(self):
        import pickle

        table = sample_table()
        restored = pickle.loads(pickle.dumps(table))
        assert restored.name == table.name
        assert restored.num_rows == table.num_rows
        assert list(restored.rows()) == list(table.rows())
        # RIDs replay from the heap scan, not from a serialized list.
        assert [restored.rid_at(i) for i in range(4)] == \
            [table.rid_at(i) for i in range(4)]
        assert restored.row_at(2) == table.row_at(2)

    def test_restored_table_accepts_inserts(self):
        import pickle

        table = sample_table()
        restored = pickle.loads(pickle.dumps(table))
        restored.insert(("durian", 1))
        assert restored.num_rows == 5
        assert restored.row_at(4) == ("durian", 1)
