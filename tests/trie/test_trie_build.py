"""Trie construction: sorting, dedup, CSR structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.sets.base import SetLayout
from repro.storage.relation import NULL_KEY, Relation
from repro.storage.vertical import DeltaConfig, vertically_partition
from repro.trie.trie import Trie


def _trie(rows, attrs=("a", "b")):
    cols = (
        [np.array([r[i] for r in rows], dtype=np.uint32) for i in range(len(attrs))]
        if rows
        else [np.empty(0, dtype=np.uint32) for _ in attrs]
    )
    return Trie.build(cols, attrs)


def test_tuples_roundtrip_sorted():
    rows = [(3, 1), (1, 2), (1, 1), (2, 9)]
    t = _trie(rows)
    assert list(t.iter_tuples()) == sorted(rows)


def test_duplicates_removed():
    t = _trie([(1, 1), (1, 1), (2, 2)])
    assert t.num_tuples == 2
    assert list(t.iter_tuples()) == [(1, 1), (2, 2)]


def test_single_level_trie():
    t = Trie.build([np.array([3, 1, 3], dtype=np.uint32)], ("x",))
    assert t.num_levels == 1
    assert list(t.iter_tuples()) == [(1,), (3,)]


def test_three_level_trie():
    rows = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]
    cols = [np.array([r[i] for r in rows], dtype=np.uint32) for i in range(3)]
    t = Trie.build(cols, ("a", "b", "c"))
    assert t.num_levels == 3
    assert list(t.iter_tuples()) == rows


def test_empty_trie():
    t = _trie([])
    assert t.num_tuples == 0
    assert list(t.iter_tuples()) == []
    assert t.child_values(t.root).size == 0


def test_build_rejects_mismatched_columns():
    with pytest.raises(StorageError):
        Trie.build([np.array([1], dtype=np.uint32)], ("a", "b"))


def test_build_rejects_zero_attributes():
    with pytest.raises(StorageError):
        Trie.build([], ())


def test_build_rejects_ragged_columns():
    with pytest.raises(StorageError):
        Trie.build(
            [
                np.array([1, 2], dtype=np.uint32),
                np.array([1], dtype=np.uint32),
            ],
            ("a", "b"),
        )


def test_from_relation_permutes_columns():
    rel = Relation.from_rows("r", ("s", "o"), [(1, 10), (2, 20)])
    t = Trie.from_relation(rel, ("o", "s"))
    assert list(t.iter_tuples()) == [(10, 1), (20, 2)]
    assert t.attributes == ("o", "s")


def test_from_relation_rejects_non_permutation():
    rel = Relation.from_rows("r", ("s", "o"), [(1, 10)])
    with pytest.raises(StorageError):
        Trie.from_relation(rel, ("s", "x"))


def test_iter_tuples_expands_back():
    rows = [(1, 1), (1, 2), (3, 1), (3, 9), (3, 12)]
    t = _trie(rows)
    assert list(t.iter_tuples()) == sorted(rows)


def test_forced_layout_propagates_to_sets():
    rows = [(1, i) for i in range(100)]
    dense = _trie(rows)
    # Dense child set: the optimizer would pick a bitset.
    assert dense.child_set(dense.descend(dense.root, 1)).layout is SetLayout.BITSET
    cols = [
        np.array([r[i] for r in rows], dtype=np.uint32) for i in range(2)
    ]
    forced = Trie.build(cols, ("a", "b"), force_layout=SetLayout.UINT_ARRAY)
    node = forced.descend(forced.root, 1)
    assert forced.child_set(node).layout is SetLayout.UINT_ARRAY


def _reference_levels(columns):
    """Trie levels the slow way: a lexsort, then a Python walk that
    starts a node wherever a row's prefix differs from the previous
    row's (shares no code with the builder)."""
    order = np.lexsort(tuple(reversed(columns)))
    rows = list(dict.fromkeys(zip(*(c[order].tolist() for c in columns))))
    values, offsets = [], []
    for depth in range(len(columns)):
        nodes = list(dict.fromkeys(row[: depth + 1] for row in rows))
        values.append(np.array([node[-1] for node in nodes], dtype=np.uint32))
        if depth:
            first_child = {}
            for index, node in enumerate(nodes):
                first_child.setdefault(node[:-1], index)
            parents = list(dict.fromkeys(row[:depth] for row in rows))
            offsets.append(
                np.array(
                    [first_child[p] for p in parents] + [len(nodes)],
                    dtype=np.int64,
                )
            )
    return values, offsets


@st.composite
def _column_sets(draw):
    arity = draw(st.integers(1, 3))
    value = st.one_of(st.integers(0, 5), st.just(NULL_KEY))
    rows = draw(st.lists(st.tuples(*[value] * arity), max_size=40))
    if draw(st.booleans()):
        rows = sorted(set(rows))
    return [
        np.array([row[i] for row in rows], dtype=np.uint32)
        for i in range(arity)
    ]


@settings(max_examples=200)
@given(_column_sets())
def test_build_is_byte_identical_to_reference(columns):
    trie = Trie.build(columns, [f"a{i}" for i in range(len(columns))])
    values, offsets = _reference_levels(columns)
    for level, expected in enumerate(values):
        got = trie.level_values(level)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    assert len(trie._offsets) == len(offsets)
    for got, expected in zip(trie._offsets, offsets):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


_TRIPLE = st.tuples(st.integers(0, 7), st.integers(0, 1), st.integers(0, 7))


def _iri_triple(triple):
    s, p, o = triple
    return (f"<http://ex/s{s}>", f"<http://ex/p{p}>", f"<http://ex/o{o}>")


@settings(max_examples=60)
@given(
    initial=st.lists(_TRIPLE, max_size=20),
    batches=st.lists(
        st.tuples(st.booleans(), st.lists(_TRIPLE, min_size=1, max_size=6)),
        max_size=8,
    ),
    compact_fraction=st.sampled_from([0.25, 100.0]),
)
def test_store_tables_stay_sorted_distinct(initial, batches, compact_fraction):
    """Every table a trie is built from (and a snapshot carries) is
    sorted-distinct by (subject, object) at every epoch: after each add
    or remove batch, whether or not the batch compacted the table."""
    store = vertically_partition([_iri_triple(t) for t in initial])
    store.delta_config = DeltaConfig(compact_fraction=compact_fraction)
    live = {_iri_triple(t) for t in initial}
    for is_add, triples in batches:
        batch = [_iri_triple(t) for t in triples]
        if is_add:
            store.add_triples(batch)
            live |= set(batch)
        else:
            store.remove_triples(batch)
            live -= set(batch)
        for name, table in store.tables.items():
            rows = list(zip(table.columns[0].tolist(), table.columns[1].tolist()))
            assert rows == sorted(set(rows)), name
        assert store.num_triples == len(live)


@pytest.fixture(scope="module")
def sorted_relation():
    """100 000 rows sorted-distinct by (s, o), like every store table."""
    rows = 100_000
    return Relation(
        "r",
        ("s", "o"),
        (
            np.arange(rows, dtype=np.uint32) // 4,
            (np.arange(rows, dtype=np.uint32) * 7919) % 5003,
        ),
    ).distinct()


def test_subject_object_trie_over_sorted_table_sorts_nothing(
    sorted_relation, sort_calls
):
    """Clock-free guard: the store's own order is reused, not re-sorted."""
    trie = Trie.from_relation(sorted_relation, ("s", "o"))
    assert sort_calls == []
    assert trie.num_tuples == sorted_relation.num_rows


def test_object_subject_trie_sorts_packed_keys_once(sorted_relation, sort_calls):
    relation = Relation("r", sorted_relation.attributes, sorted_relation.columns)
    trie = Trie.from_relation(relation, ("o", "s"))
    assert [name for name, _ in sort_calls] == ["sort"]
    assert sort_calls[0][1] <= relation.num_rows
    assert trie.num_tuples == relation.num_rows
    sort_calls.clear()
    again = Trie.from_relation(relation, ("o", "s"))
    assert sort_calls == []
    assert again.level_values(1) is trie.level_values(1)


def test_distinct_of_sorted_relation_sorts_nothing(sorted_relation, sort_calls):
    assert sorted_relation.distinct() is sorted_relation
    assert sort_calls == []
