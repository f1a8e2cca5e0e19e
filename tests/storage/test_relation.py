"""Relation: columnar operations."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.relation import Relation


@pytest.fixture()
def rel():
    return Relation.from_rows(
        "r", ("a", "b"), [(1, 10), (2, 20), (1, 30), (2, 20)]
    )


def test_from_rows_and_iter(rel):
    assert rel.num_rows == 4
    assert list(rel.iter_rows())[0] == (1, 10)


def test_arity_and_len(rel):
    assert rel.arity == 2
    assert len(rel) == 4


def test_empty_relation():
    r = Relation.empty("e", ("x",))
    assert r.num_rows == 0
    assert list(r.iter_rows()) == []


def test_schema_validation():
    with pytest.raises(StorageError):
        Relation("bad", ("a",), [np.zeros(1, np.uint32), np.zeros(1, np.uint32)])
    with pytest.raises(StorageError):
        Relation("bad", ("a", "a"), [np.zeros(1, np.uint32)] * 2)
    with pytest.raises(StorageError):
        Relation(
            "bad",
            ("a", "b"),
            [np.zeros(1, np.uint32), np.zeros(2, np.uint32)],
        )


def test_from_rows_arity_mismatch():
    with pytest.raises(StorageError):
        Relation.from_rows("bad", ("a", "b"), [(1,)])


def test_column_access(rel):
    assert list(rel.column("b")) == [10, 20, 30, 20]
    with pytest.raises(StorageError):
        rel.column("nope")


def test_project(rel):
    p = rel.project(["b"])
    assert p.attributes == ("b",)
    assert list(p.column("b")) == [10, 20, 30, 20]


def test_select_equals(rel):
    s = rel.select_equals("a", 2)
    assert s.to_set() == {(2, 20)}
    assert s.num_rows == 2  # selection does not dedup


def test_distinct(rel):
    d = rel.distinct()
    assert list(d.iter_rows()) == [(1, 10), (1, 30), (2, 20)]
    assert d.distinct() is d


def test_distinct_empty():
    r = Relation.empty("e", ("a", "b"))
    assert r.distinct().num_rows == 0


def test_take_and_filter(rel):
    taken = rel.take(np.array([0, 0, 3]))
    assert taken.num_rows == 3
    mask = np.array([True, False, False, True])
    assert rel.filter(mask).to_set() == {(1, 10), (2, 20)}


def test_rename(rel):
    renamed = rel.rename(name="s", attributes=("x", "y"))
    assert renamed.name == "s"
    assert renamed.attributes == ("x", "y")
    # Shares column data with the original.
    assert renamed.columns[0] is rel.columns[0]


def test_concat(rel):
    other = Relation.from_rows("r2", ("a", "b"), [(9, 9)])
    merged = rel.concat(other.rename(attributes=("a", "b")))
    assert merged.num_rows == 5
    with pytest.raises(StorageError):
        rel.concat(Relation.from_rows("bad", ("x", "y"), [(1, 2)]))


def test_equals_content(rel):
    same = Relation.from_rows("other", ("x", "y"), [(2, 20), (1, 30), (1, 10)])
    assert rel.equals_content(same)
    different = Relation.from_rows("d", ("x", "y"), [(1, 10)])
    assert not rel.equals_content(different)
    narrower = Relation.from_rows("n", ("x",), [(1,)])
    assert not rel.equals_content(narrower)
