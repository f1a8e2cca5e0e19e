"""Property-based trie tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets.base import SetLayout
from repro.trie.trie import Trie

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)
    ),
    max_size=120,
)


def _build(rows, arity, force_layout=None):
    trimmed = [r[:arity] for r in rows]
    cols = [
        np.array([r[i] for r in trimmed], dtype=np.uint32)
        for i in range(arity)
    ]
    attrs = tuple(f"a{i}" for i in range(arity))
    return Trie.build(cols, attrs, force_layout=force_layout), trimmed


@given(rows_strategy, st.integers(1, 3))
def test_roundtrip_is_sorted_distinct(rows, arity):
    trie, trimmed = _build(rows, arity)
    assert list(trie.iter_tuples()) == sorted(set(trimmed))
    assert trie.num_tuples == len(set(trimmed))


@given(rows_strategy)
@settings(max_examples=50)
def test_contains_prefix_matches_data(rows):
    trie, trimmed = _build(rows, 2)
    tuples = set(trimmed)
    prefixes = {(a,) for a, _ in tuples}
    for a in range(0, 31, 7):
        assert trie.contains_prefix([a]) == ((a,) in prefixes)
    for t in list(tuples)[:10]:
        assert trie.contains_prefix(t)


@given(rows_strategy)
@settings(max_examples=30)
def test_layouts_do_not_change_content(rows):
    t1, trimmed = _build(rows, 2, force_layout=SetLayout.UINT_ARRAY)
    t2, _ = _build(rows, 2, force_layout=SetLayout.BITSET)
    assert list(t1.iter_tuples()) == list(t2.iter_tuples())


@given(rows_strategy)
@settings(max_examples=30)
def test_descend_rows_agrees_with_descend(rows):
    trie, trimmed = _build(rows, 2)
    if trie.num_tuples == 0:
        return
    roots = trie.child_values(trie.root)
    parents = trie.root_positions(roots)
    probe = np.full(len(parents), 7, dtype=np.uint32)
    found, _ = trie.descend_rows(0, parents, probe)
    for value, hit in zip(roots, found):
        node = trie.descend(trie.root, int(value))
        expected = trie.descend(node, 7) is not None
        assert bool(hit) == expected
