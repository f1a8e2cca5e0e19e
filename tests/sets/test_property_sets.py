"""Property-based tests: set layouts agree with Python set semantics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets import SetLayout, build_set, intersect_many
from repro.sets.layout import choose_layout

values_strategy = st.lists(
    st.integers(min_value=0, max_value=5000), max_size=300
)
layouts = st.sampled_from([SetLayout.UINT_ARRAY, SetLayout.BITSET, None])


@given(values_strategy, layouts)
def test_roundtrip_matches_python_set(values, layout):
    s = build_set(values, force_layout=layout)
    assert list(s.to_array()) == sorted(set(values))
    assert s.cardinality == len(set(values))


@given(values_strategy, layouts)
def test_membership_matches_python_set(values, layout):
    s = build_set(values, force_layout=layout)
    universe = set(values)
    for probe in list(universe)[:20]:
        assert s.contains(probe)
    for probe in range(0, 5001, 503):
        assert s.contains(probe) == (probe in universe)


@given(values_strategy, values_strategy, layouts, layouts)
def test_intersection_matches_python_set(a_vals, b_vals, la, lb):
    a = build_set(a_vals, force_layout=la)
    b = build_set(b_vals, force_layout=lb)
    expected = sorted(set(a_vals) & set(b_vals))
    assert list(intersect_many([a, b])) == expected


@given(st.lists(values_strategy, min_size=1, max_size=4), layouts)
@settings(max_examples=50)
def test_multiway_intersection_matches_python_set(lists, layout):
    sets = [build_set(vals, force_layout=layout) for vals in lists]
    expected = set(lists[0])
    for vals in lists[1:]:
        expected &= set(vals)
    assert list(intersect_many(sets)) == sorted(expected)


@given(values_strategy)
def test_layout_rule_consistency(values):
    """The optimizer picks bitset iff density strictly exceeds 1/256."""
    arr = np.unique(np.asarray(values, dtype=np.uint32))
    if arr.size == 0:
        return
    span = int(arr[-1]) - int(arr[0]) + 1
    expected = (
        SetLayout.BITSET
        if arr.size / span > 1 / 256
        else SetLayout.UINT_ARRAY
    )
    assert choose_layout(arr) is expected


@given(values_strategy, layouts)
def test_contains_many_matches_scalar_contains(values, layout):
    s = build_set(values, force_layout=layout)
    probes = np.arange(0, 5001, 97, dtype=np.uint32)
    mask = s.contains_many(probes)
    for probe, hit in zip(probes[:30], mask[:30]):
        assert bool(hit) == s.contains(int(probe))
