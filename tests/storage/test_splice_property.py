"""Sorted splices equal from-scratch builds, byte for byte.

Random sorted-distinct tables take random sequences of add/remove
batches: removes of absent rows, adds of present rows, rows both
removed and added, batches that empty a parent or create a root, and
batches that empty a table and fill it again. After every batch

* the spliced relation (``splice_rows``) equals the sorted-distinct rows,
* every spliced trie, for arity 1–3 and every attribute order, equals
  ``Trie.build`` level for level,
* every merged sketch equals ``FrequencySketch.from_column``, and
* the store's refreshed tables, ``__triples__`` view and sketches equal
  the ones built from scratch over the same rows, and the whole history
  netted into one batch (``coalesce``) patches the first epoch's tables
  into the last's.
"""

from itertools import permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import FrequencySketch
from repro.nputil import pack_pairs, sorted_distinct_rows, splice_rows
from repro.storage.relation import NULL_KEY, Relation
from repro.storage.vertical import (
    OBJECT,
    SUBJECT,
    DeltaConfig,
    VerticallyPartitionedStore,
    build_table_sketches,
    build_triples_view,
    coalesce,
    patch_relation,
)
from repro.trie.trie import Trie

# A small domain makes hits, shared prefixes and emptied parents
# common; the two large values cross the byte and packing boundaries.
_VALUE = st.one_of(st.integers(0, 4), st.sampled_from([1 << 20, NULL_KEY]))


def _columns(rows, arity):
    return [
        np.array([row[i] for row in rows], dtype=np.uint32)
        for i in range(arity)
    ]


@st.composite
def _batch(draw, arity, current):
    """One batch over ``current``: random rows, plus some present ones
    removed or added back, or the whole table removed."""
    row = st.tuples(*[_VALUE] * arity)
    present = sorted(current)
    added = draw(st.lists(row, max_size=6))
    removed = draw(st.lists(row, max_size=6))
    if present:
        removed += draw(st.lists(st.sampled_from(present), max_size=6))
        added += draw(st.lists(st.sampled_from(present), max_size=2))
        if draw(st.integers(0, 9)) == 0:
            removed += present  # empty the table (the next batch refills)
    return added, removed


@st.composite
def _history(draw):
    arity = draw(st.integers(1, 3))
    current = set(draw(st.lists(st.tuples(*[_VALUE] * arity), max_size=25)))
    start = sorted(current)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        added, removed = draw(_batch(arity, current))
        batches.append((added, removed))
        current = (current - set(removed)) | set(added)
    return arity, start, batches


def _assert_same_trie(patched: Trie, built: Trie) -> None:
    assert patched.num_tuples == built.num_tuples
    assert len(patched._values) == len(built._values)
    for ours, theirs in zip(patched._values, built._values):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    for ours, theirs in zip(patched._offsets, built._offsets):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


def _assert_same_columns(ours, theirs) -> None:
    assert len(ours) == len(theirs)
    for mine, reference in zip(ours, theirs):
        assert mine.dtype == reference.dtype
        assert mine.tobytes() == reference.tobytes()


@settings(max_examples=200)
@given(_history())
def test_relation_trie_and_sketch_splices_equal_rebuilds(history):
    arity, start, batches = history
    current = set(start)
    columns = sorted_distinct_rows(_columns(start, arity))
    orders = list(permutations(range(arity)))
    tries = {
        order: Trie.build(
            [columns[i] for i in order], [f"a{i}" for i in order]
        )
        for order in orders
    }
    sketches = [FrequencySketch.from_column(c) for c in columns]
    for added, removed in batches:
        after = (current - set(removed)) | set(added)
        add_columns = _columns(added, arity)
        remove_columns = _columns(removed, arity)
        expected = sorted_distinct_rows(_columns(sorted(after), arity))

        columns = splice_rows(columns, add_columns, remove_columns)
        _assert_same_columns(columns, expected)

        for order in orders:
            tries[order] = tries[order].apply_delta(
                [add_columns[i] for i in order],
                [remove_columns[i] for i in order],
            )
            _assert_same_trie(
                tries[order],
                Trie.build(
                    [expected[i] for i in order], [f"a{i}" for i in order]
                ),
            )

        # A sketch merges the rows the batch actually changed.
        inserted = _columns(sorted(after - current), arity)
        deleted = _columns(sorted(current - after), arity)
        for index in range(arity):
            sketches[index] = sketches[index].merge(
                inserted[index], deleted[index]
            )
            rebuilt = FrequencySketch.from_column(expected[index])
            assert sketches[index].to_bytes() == rebuilt.to_bytes()
            assert sketches[index].total == rebuilt.total
        current = after


_TABLES = ("p", "q")


@st.composite
def _store_history(draw):
    pair = st.tuples(st.sampled_from(_TABLES), _VALUE, _VALUE)
    current = set(draw(st.lists(pair, max_size=25)))
    start = sorted(current)
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        added, removed = draw(_batch(3, current))
        added = [row for row in added if row[0] in _TABLES]
        removed = [row for row in removed if row[0] in _TABLES]
        added += draw(st.lists(pair, max_size=5))
        removed += draw(st.lists(pair, max_size=3))
        batches.append((added, removed))
        current = (current - set(removed)) | set(added)
    compact_fraction = draw(st.sampled_from([0.0, 0.25, 100.0]))
    return start, batches, compact_fraction


def _packed(rows):
    keys = {}
    for table in _TABLES:
        pairs = [(s, o) for name, s, o in rows if name == table]
        if pairs:
            subjects, objects = _columns(pairs, 2)
            keys[table] = pack_pairs(subjects, objects)
    return keys


@settings(max_examples=150)
@given(_store_history())
def test_store_refresh_equals_rebuild(history):
    start, batches, compact_fraction = history
    store = VerticallyPartitionedStore(
        delta_config=DeltaConfig(compact_fraction=compact_fraction)
    )
    iris = {name: f"<http://ex/{name}>" for name in _TABLES}
    for iri in iris.values():
        store.dictionary.encode(iri)
    store.apply_pairs(_packed(start), {}, iris)
    store.column_sketches()
    store.triples_relation()
    first_version, first_tables = store.data_version, dict(store.tables)
    current = set(start)
    for added, removed in batches:
        store.apply_pairs(_packed(added), _packed(removed), iris)
        current = (current - set(removed)) | set(added)
        expected = {}
        for name in _TABLES:
            pairs = sorted((s, o) for table, s, o in current if table == name)
            if pairs:
                expected[name] = sorted_distinct_rows(_columns(pairs, 2))
        assert sorted(store.tables) == sorted(expected)
        for name, columns in expected.items():
            table = store.tables[name]
            assert table.attributes == (SUBJECT, OBJECT)
            _assert_same_columns(table.columns, columns)
        view = build_triples_view(store.tables, store.predicate_key)
        _assert_same_columns(store.triples_relation().columns, view.columns)
        sketches = store.column_sketches()
        assert sorted(sketches) == sorted(expected)
        for name, columns in expected.items():
            rebuilt = build_table_sketches([SUBJECT, OBJECT], list(columns))
            for attribute, sketch in sketches[name].items():
                assert sketch.to_bytes() == rebuilt[attribute].to_bytes()
                assert sketch.total == rebuilt[attribute].total
    # The batches netted into one patch walk the same epochs in a step.
    log = store.changes_since(first_version)
    if not log:
        return  # no batch changed anything
    net = coalesce(log)
    assert net.created_tables == set(store.tables) - set(first_tables)
    assert net.dropped_tables == set(first_tables) - set(store.tables)
    for name, table in store.tables.items():
        before = first_tables.get(name, Relation.empty(name, (SUBJECT, OBJECT)))
        patched = patch_relation(
            before, net.added.get(name), net.removed.get(name)
        )
        _assert_same_columns(patched.columns, table.columns)
