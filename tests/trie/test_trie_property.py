"""Property-based trie tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nputil import probe_filter
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


def _reference_level(trie, level):
    """Level ``level``'s sorted ``(parent << 32) | value`` keys, built in
    Python from the public child counts and level values."""
    parents = trie.level_values(level - 1).shape[0]
    counts = trie.child_counts(level - 1, np.arange(parents))
    values = trie.level_values(level)
    keys, at = [], 0
    for parent, count in enumerate(counts.tolist()):
        keys.extend((parent << 32) | int(v) for v in values[at : at + count])
        at += count
    return np.array(keys, dtype=np.uint64)


def _probe_rows(rng, reference, parents, size):
    """``size`` (parent, value) rows under the given parent positions:
    about half are present pairs of ``reference`` (the first always),
    the rest a random value under a random parent, mostly absent."""
    own = np.isin(reference >> np.uint64(32), parents)
    present = reference[own][rng.integers(0, int(own.sum()), size)]
    parent = rng.choice(parents, size).astype(np.uint64)
    value = rng.integers(0, 41, size).astype(np.uint64)
    take = rng.random(size) < 0.5
    take[:1] = True
    parent = np.where(take, present >> np.uint64(32), parent)
    value = np.where(take, present & np.uint64(0xFFFFFFFF), value)
    return parent.astype(np.int64), value.astype(np.uint32)


def test_descend_rows_matches_packed_search():
    """Every probe — below the level's entry count (plain search), at
    or above it (builds the bytemap) and below it again (uses the kept
    bytemap) — finds exactly what a binary search of the packed level
    finds, at the same positions; a 3-level trie feeds the found
    positions into a probe of the level below. Over the run some
    filtered probe lets a miss through, so the exact recheck runs."""
    false_positives = []

    @given(rows_strategy, st.integers(2, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def check(rows, arity, seed):
        trie, _ = _build(rows, arity)
        if trie.num_tuples == 0:
            return
        rng = np.random.default_rng(seed)
        parents = np.arange(trie.level_values(0).shape[0])
        for level in range(1, arity):
            reference = _reference_level(trie, level)
            entries = reference.shape[0]
            sizes = (
                int(rng.integers(0, entries)),
                entries + int(rng.integers(0, 2 * entries + 1)),
                int(rng.integers(0, entries)),
            )
            for step, size in enumerate(sizes):
                parent, value = _probe_rows(rng, reference, parents, size)
                found, positions = trie.descend_rows(level - 1, parent, value)
                keys = (parent.astype(np.uint64) << np.uint64(32)) | value
                expected = np.minimum(
                    np.searchsorted(reference, keys), entries - 1
                )
                hit = reference[expected] == keys
                assert np.array_equal(found, hit)
                assert np.array_equal(positions[found], expected[hit])
                assert (level in trie._filter_cache) == (step > 0)
                if step > 0:
                    passed = probe_filter(trie._filter_cache[level], keys)
                    assert not (hit & ~passed).any()
                    false_positives.append(int((passed & ~hit).sum()))
                if step == 1:
                    deeper = np.unique(positions[found])
            parents = deeper

    check()
    assert sum(false_positives) > 0
