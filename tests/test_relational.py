"""Tests for the relational substrate: schemas, tables, fragmentation, data gen."""

import pytest

from repro.ontology import demo_ontology, healthcare_ontology
from repro.relational import (
    Column,
    Schema,
    SchemaError,
    Table,
    TableError,
    generate_healthcare_table,
    generate_table,
    horizontal_fragments,
    join_on_key,
    union_all,
    vertical_fragments,
)


def keyed_table():
    schema = Schema(
        (Column("id", "number"), Column("a", "number"), Column("b", "string"),
         Column("c", "number")),
        key="id",
    )
    table = Table("t", schema)
    table.insert_many(
        {"id": i, "a": i * 10, "b": f"s{i}", "c": i % 3} for i in range(1, 7)
    )
    return table


class TestSchema:
    def test_column_validation(self):
        with pytest.raises(SchemaError):
            Column("")
        with pytest.raises(SchemaError):
            Column("x", "blob")

    def test_column_accepts(self):
        assert Column("n", "number").accepts(3)
        assert Column("n", "number").accepts(3.5)
        assert not Column("n", "number").accepts(True)  # bools are not numbers
        assert not Column("n", "number").accepts("3")
        assert Column("s", "string").accepts("x")
        assert Column("b", "bool").accepts(False)
        assert Column("n", "number").accepts(None)  # nullable

    def test_schema_validation(self):
        with pytest.raises(SchemaError):
            Schema(())
        with pytest.raises(SchemaError):
            Schema((Column("a"), Column("a")))
        with pytest.raises(SchemaError):
            Schema((Column("a"),), key="ghost")

    def test_from_class(self):
        schema = Schema.from_class(healthcare_ontology(), "patient")
        assert schema.key == "patient_id"
        assert "patient_age" in schema

    def test_from_class_inherits(self):
        schema = Schema.from_class(healthcare_ontology(), "podiatrist")
        assert schema.key == "provider_id"
        assert "specialty" in schema

    def test_project(self):
        schema = keyed_table().schema.project(["id", "a"])
        assert schema.column_names() == ["id", "a"]
        assert schema.key == "id"
        dropped = keyed_table().schema.project(["a"])
        assert dropped.key is None

    def test_validate_row_rejects_unknown_columns(self):
        with pytest.raises(SchemaError):
            keyed_table().schema.validate_row({"ghost": 1})


class TestTable:
    def test_insert_and_count(self):
        assert keyed_table().row_count == 6

    def test_insert_type_checked(self):
        table = keyed_table()
        with pytest.raises(SchemaError):
            table.insert({"id": 7, "a": "not a number"})

    def test_duplicate_key_rejected(self):
        table = keyed_table()
        with pytest.raises(TableError):
            table.insert({"id": 1, "a": 0, "b": "x", "c": 0})

    def test_missing_key_rejected(self):
        table = keyed_table()
        with pytest.raises(TableError):
            table.insert({"a": 0, "b": "x", "c": 0})

    def test_lookup(self):
        table = keyed_table()
        assert table.lookup(3)["a"] == 30
        assert table.lookup(99) is None

    def test_rows_are_copies(self):
        table = keyed_table()
        next(table.rows())["a"] = 12345
        assert table.lookup(1)["a"] == 10

    def test_scan_with_predicate(self):
        table = keyed_table()
        rows = table.scan(lambda r: r["c"] == 0)
        assert {r["id"] for r in rows} == {3, 6}

    def test_missing_columns_stored_as_none(self):
        schema = Schema((Column("id", "number"), Column("x", "number")), key="id")
        table = Table("t", schema, [{"id": 1}])
        assert table.lookup(1)["x"] is None

    def test_size_bytes_scales_with_rows(self):
        small, big = keyed_table(), keyed_table()
        big.insert({"id": 7, "a": 70, "b": "s7", "c": 1})
        assert big.size_bytes() > small.size_bytes()


class TestVerticalFragmentation:
    def test_fragments_keep_key(self):
        fragments = vertical_fragments(keyed_table(), [["a"], ["b", "c"]])
        assert [f.schema.column_names() for f in fragments] == [
            ["id", "a"],
            ["id", "b", "c"],
        ]

    def test_groups_must_partition(self):
        with pytest.raises(TableError):
            vertical_fragments(keyed_table(), [["a"], ["b"]])  # c missing
        with pytest.raises(TableError):
            vertical_fragments(keyed_table(), [["a", "b"], ["b", "c"]])  # b twice

    def test_requires_key(self):
        schema = Schema((Column("a", "number"), Column("b", "number")))
        with pytest.raises(TableError):
            vertical_fragments(Table("t", schema), [["a"], ["b"]])

    def test_join_reassembles_exactly(self):
        original = keyed_table()
        fragments = vertical_fragments(original, [["a"], ["b", "c"]])
        rejoined = join_on_key(fragments)
        assert sorted(rejoined.rows(), key=lambda r: r["id"]) == sorted(
            original.rows(), key=lambda r: r["id"]
        )

    def test_join_outer_semantics(self):
        schema1 = Schema((Column("id", "number"), Column("a", "number")), key="id")
        schema2 = Schema((Column("id", "number"), Column("b", "number")), key="id")
        t1 = Table("t1", schema1, [{"id": 1, "a": 10}, {"id": 2, "a": 20}])
        t2 = Table("t2", schema2, [{"id": 1, "b": 100}])
        joined = join_on_key([t1, t2])
        assert joined.lookup(2) == {"id": 2, "a": 20, "b": None}

    def test_join_requires_shared_key(self):
        schema1 = Schema((Column("id", "number"),), key="id")
        schema2 = Schema((Column("other", "number"),), key="other")
        with pytest.raises(TableError):
            join_on_key([Table("a", schema1), Table("b", schema2)])

    def test_join_with_disagreeing_types_still_validates(self):
        left = Table("a", Schema((Column("id", "number"), Column("v", "number")),
                                 key="id"), [{"id": 1, "v": 1}])
        right = Table("b", Schema((Column("id", "number"), Column("v", "string")),
                                  key="id"), [{"id": 1, "v": "x"}])
        with pytest.raises(SchemaError):
            join_on_key([left, right])


class TestHorizontalFragmentationAndUnion:
    def test_round_robin_split(self):
        fragments = horizontal_fragments(keyed_table(), 3)
        assert [f.row_count for f in fragments] == [2, 2, 2]

    def test_union_restores_rows(self):
        original = keyed_table()
        fragments = horizontal_fragments(original, 2)
        merged = union_all(fragments)
        assert merged.row_count == original.row_count
        assert sorted(r["id"] for r in merged.rows()) == [1, 2, 3, 4, 5, 6]

    def test_union_shared_columns_only(self):
        s1 = Schema((Column("id", "number"), Column("x", "number")))
        s2 = Schema((Column("id", "number"), Column("y", "number")))
        t1 = Table("t1", s1, [{"id": 1, "x": 1}])
        t2 = Table("t2", s2, [{"id": 2, "y": 2}])
        merged = union_all([t1, t2])
        assert merged.schema.column_names() == ["id"]
        assert merged.row_count == 2

    def test_union_no_shared_columns(self):
        s1 = Schema((Column("x", "number"),))
        s2 = Schema((Column("y", "number"),))
        with pytest.raises(TableError):
            union_all([Table("a", s1), Table("b", s2)])

    def test_union_with_disagreeing_types_still_validates(self):
        numbers = Table("a", Schema((Column("id", "number"), Column("v", "number"))),
                        [{"id": 1, "v": 1}])
        strings = Table("b", Schema((Column("id", "number"), Column("v", "string"))),
                        [{"id": 2, "v": "x"}])
        with pytest.raises(SchemaError):
            union_all([numbers, strings])
        with pytest.raises(SchemaError):
            union_all([strings, numbers])


class TestGeneration:
    def test_deterministic(self):
        onto = demo_ontology(2)
        a = generate_table(onto, "C1", 50, seed=7)
        b = generate_table(onto, "C1", 50, seed=7)
        assert list(a.rows()) == list(b.rows())

    def test_seed_changes_data(self):
        onto = demo_ontology(2)
        a = generate_table(onto, "C1", 50, seed=1)
        b = generate_table(onto, "C1", 50, seed=2)
        assert list(a.rows()) != list(b.rows())

    def test_keys_are_sequential(self):
        onto = demo_ontology(1)
        table = generate_table(onto, "C1", 10)
        assert sorted(r["c1_id"] for r in table.rows()) == list(range(1, 11))

    def test_healthcare_values_typed(self):
        table = generate_healthcare_table("patient", 30)
        for row in table.rows():
            assert 0 <= row["patient_age"] <= 99
            assert isinstance(row["city"], str)

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            generate_table(demo_ontology(1), "C1", -1)
