"""Tests for the in-memory relational table."""

import pytest

from repro.persistence.table import Table
from repro.util.errors import (
    InvalidRequestError,
    ObjectExistsError,
    ObjectNotFoundError,
)


@pytest.fixture
def table() -> Table:
    return Table(
        "NodeState",
        ["HOST", "LOAD", "MEMORY", "SWAPMEMORY", "UPDATED"],
        primary_key="HOST",
    )


class TestSchema:
    def test_primary_key_must_be_a_column(self):
        with pytest.raises(InvalidRequestError):
            Table("t", ["a"], primary_key="b")

    def test_unknown_column_rejected_on_insert(self, table):
        with pytest.raises(InvalidRequestError):
            table.insert({"HOST": "h", "BOGUS": 1})

    def test_missing_primary_key_rejected(self, table):
        with pytest.raises(InvalidRequestError):
            table.insert({"LOAD": 1.0})

    def test_absent_columns_become_none(self, table):
        table.insert({"HOST": "h"})
        assert table.get("h")["LOAD"] is None


class TestCrud:
    def test_insert_get(self, table):
        table.insert({"HOST": "h", "LOAD": 0.5})
        assert table.get("h")["LOAD"] == 0.5

    def test_duplicate_insert_rejected(self, table):
        table.insert({"HOST": "h"})
        with pytest.raises(ObjectExistsError):
            table.insert({"HOST": "h"})

    def test_upsert_replaces(self, table):
        assert table.upsert({"HOST": "h", "LOAD": 1.0}) is False
        assert table.upsert({"HOST": "h", "LOAD": 2.0}) is True
        assert table.get("h")["LOAD"] == 2.0
        assert len(table) == 1

    def test_update_partial(self, table):
        table.insert({"HOST": "h", "LOAD": 1.0, "MEMORY": 42})
        table.update("h", {"LOAD": 9.0})
        row = table.get("h")
        assert row["LOAD"] == 9.0
        assert row["MEMORY"] == 42

    def test_update_missing_row(self, table):
        with pytest.raises(ObjectNotFoundError):
            table.update("nope", {"LOAD": 1.0})

    def test_update_cannot_change_pk(self, table):
        table.insert({"HOST": "h"})
        with pytest.raises(InvalidRequestError):
            table.update("h", {"HOST": "h2"})

    def test_delete(self, table):
        table.insert({"HOST": "h"})
        table.delete("h")
        assert "h" not in table
        with pytest.raises(ObjectNotFoundError):
            table.delete("h")

    def test_returned_rows_are_copies(self, table):
        table.insert({"HOST": "h", "LOAD": 1.0})
        row = table.get("h")
        row["LOAD"] = 99.0
        assert table.get("h")["LOAD"] == 1.0


class TestSelect:
    def test_predicate_select(self, table):
        for i in range(5):
            table.insert({"HOST": f"h{i}", "LOAD": float(i)})
        hot = table.select(lambda r: r["LOAD"] >= 3)
        assert {r["HOST"] for r in hot} == {"h3", "h4"}

    def test_select_all(self, table):
        table.insert({"HOST": "h"})
        assert len(table.select()) == 1

    def test_select_eq_without_index(self, table):
        table.insert({"HOST": "a", "LOAD": 1.0})
        table.insert({"HOST": "b", "LOAD": 1.0})
        assert len(table.select_eq("LOAD", 1.0)) == 2


class TestIndexes:
    def test_index_built_lazily_over_existing_rows(self, table):
        table.insert({"HOST": "a", "LOAD": 1.0})
        table.add_index("LOAD")
        assert len(table.select_eq("LOAD", 1.0)) == 1

    def test_index_maintained_on_update(self, table):
        table.add_index("LOAD")
        table.insert({"HOST": "a", "LOAD": 1.0})
        table.update("a", {"LOAD": 2.0})
        assert table.select_eq("LOAD", 1.0) == []
        assert len(table.select_eq("LOAD", 2.0)) == 1

    def test_index_maintained_on_delete(self, table):
        table.add_index("LOAD")
        table.insert({"HOST": "a", "LOAD": 1.0})
        table.delete("a")
        assert table.select_eq("LOAD", 1.0) == []

    def test_index_on_unknown_column(self, table):
        with pytest.raises(InvalidRequestError):
            table.add_index("BOGUS")


class TestUpsertMany:
    def test_one_write_one_version_indexes_kept(self, table):
        table.add_index("LOAD")
        table.insert({"HOST": "a", "LOAD": 1.0})
        table.insert({"HOST": "b", "LOAD": 1.0})
        before = table.mutations
        table.upsert_many([{"HOST": "b", "LOAD": 2.0}, {"HOST": "c", "LOAD": 2.0}])
        assert table.mutations == before + 1
        assert table.keys() == ["a", "b", "c"]  # a replaced row keeps its place
        assert [r["HOST"] for r in table.select_eq("LOAD", 1.0)] == ["a"]
        assert [r["HOST"] for r in table.select_eq("LOAD", 2.0)] == ["b", "c"]
        assert table.get("c")["MEMORY"] is None  # normalized like any other row

    def test_a_reader_holding_the_old_rows_sees_none_of_the_write(self, table):
        """The row map is swapped: a capture taken before the write is the
        table before the write, whole."""
        table.insert({"HOST": "a", "LOAD": 1.0})
        captured = table.views()
        table.upsert_many([{"HOST": "a", "LOAD": 9.0}, {"HOST": "b", "LOAD": 9.0}])
        assert [(r["HOST"], r["LOAD"]) for r in captured] == [("a", 1.0)]
        assert [(r["HOST"], r["LOAD"]) for r in table.views()] == [("a", 9.0), ("b", 9.0)]

    def test_a_bad_row_leaves_the_table_untouched(self, table):
        table.insert({"HOST": "a", "LOAD": 1.0})
        before = table.mutations
        with pytest.raises(InvalidRequestError):
            table.upsert_many([{"HOST": "b", "LOAD": 2.0}, {"LOAD": 3.0}])
        assert table.keys() == ["a"] and table.mutations == before

    def test_rolled_back_with_the_transaction(self):
        from repro.persistence import DataStore

        store = DataStore()
        table = store.create_table("T", ["K", "V"], primary_key="K")
        table.upsert_many([{"K": 1, "V": "one"}])
        with pytest.raises(RuntimeError):
            with store.transaction():
                table.upsert_many([{"K": 1, "V": "uno"}, {"K": 2, "V": "dos"}])
                raise RuntimeError("abort")
        assert table.select() == [{"K": 1, "V": "one"}]


class TestSnapshot:
    def test_restore_round_trip(self, table):
        table.insert({"HOST": "a", "LOAD": 1.0})
        snap = table.snapshot()
        table.insert({"HOST": "b"})
        table.update("a", {"LOAD": 5.0})
        table.restore(snap)
        assert len(table) == 1
        assert table.get("a")["LOAD"] == 1.0

    def test_restore_rebuilds_indexes(self, table):
        table.add_index("LOAD")
        table.insert({"HOST": "a", "LOAD": 1.0})
        snap = table.snapshot()
        table.delete("a")
        table.restore(snap)
        assert len(table.select_eq("LOAD", 1.0)) == 1
