"""Relation: columnar operations."""

import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.nputil import sorted_distinct_rows
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


@st.composite
def _relations(draw):
    """1–3 columns of small values: empty, duplicate and unsorted rows."""
    arity = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.tuples(*[st.integers(0, 4)] * arity), max_size=30)
    )
    return Relation.from_rows("r", ("a", "b", "c")[:arity], rows)


@given(_relations())
def test_sorted_columns_is_a_memo_of_sorted_distinct_rows(relation):
    for order in itertools.permutations(relation.attributes):
        columns = relation.sorted_columns(order)
        expected = sorted_distinct_rows([relation.column(a) for a in order])
        assert len(columns) == len(expected) == len(order)
        for ours, reference in zip(columns, expected):
            assert ours.dtype == reference.dtype
            assert np.array_equal(ours, reference)
        rows = sorted({tuple(int(v) for v in row) for row in zip(*expected)})
        assert list(zip(*(c.tolist() for c in columns))) == rows
        assert relation.sorted_columns(order) is columns
    stored = relation.distinct()
    own = stored.sorted_columns(stored.attributes)
    assert all(ours is column for ours, column in zip(own, stored.columns))


def test_pickle_leaves_the_memo_behind(rel):
    rel.sorted_columns(("b", "a"))
    fresh = Relation(rel.name, rel.attributes, rel.columns)
    assert pickle.dumps(rel) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(rel))
    assert copy.attributes == rel.attributes
    assert copy.to_set() == rel.to_set()
    assert copy._sorted is None


def test_concurrent_first_calls_agree():
    """Racing first calls may each sort, but every caller gets the
    sorted rows and the memo settles on one tuple."""
    rows = np.arange(20_000, dtype=np.uint32)
    relation = Relation("r", ("s", "o"), (rows // 3, (rows * 7919) % 4001))
    expected = sorted_distinct_rows([relation.column("o"), relation.column("s")])
    results = []
    start = threading.Barrier(8)

    def call():
        start.wait(timeout=10)
        results.append(relation.sorted_columns(("o", "s")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    for columns in results:
        assert all(np.array_equal(a, b) for a, b in zip(columns, expected))
    settled = relation.sorted_columns(("o", "s"))
    assert relation.sorted_columns(("o", "s")) is settled
