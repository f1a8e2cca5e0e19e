"""Intersection kernels across all layout pairings."""

import numpy as np
import pytest

from repro.sets import (
    EMPTY_SET,
    SetLayout,
    build_set,
    intersect_arrays,
    intersect_many,
)

LAYOUTS = (SetLayout.UINT_ARRAY, SetLayout.BITSET)


def _arr(*values):
    return np.array(values, dtype=np.uint32)


@pytest.mark.parametrize("layout_a", LAYOUTS)
@pytest.mark.parametrize("layout_b", LAYOUTS)
def test_pairwise_intersection_all_layouts(layout_a, layout_b):
    a = build_set(_arr(1, 3, 5, 7, 9, 100), force_layout=layout_a)
    b = build_set(_arr(3, 4, 7, 100, 200), force_layout=layout_b)
    assert list(intersect_many([a, b])) == [3, 7, 100]


@pytest.mark.parametrize("layout_a", LAYOUTS)
@pytest.mark.parametrize("layout_b", LAYOUTS)
def test_disjoint_ranges_shortcut(layout_a, layout_b):
    a = build_set(_arr(1, 2, 3), force_layout=layout_a)
    b = build_set(_arr(1000, 1001), force_layout=layout_b)
    assert intersect_many([a, b]).size == 0


def test_intersect_with_empty():
    a = build_set(_arr(1, 2))
    assert intersect_many([a, EMPTY_SET]).size == 0
    assert intersect_many([EMPTY_SET, a]).size == 0


def test_intersect_arrays_galloping_path():
    small = _arr(5, 500, 50_000)
    large = np.arange(0, 100_000, 5, dtype=np.uint32)
    # large is >32x bigger, triggering the searchsorted probe path.
    assert list(intersect_arrays(small, large)) == [5, 500, 50_000]
    assert list(intersect_arrays(large, small)) == [5, 500, 50_000]


def test_intersect_arrays_merge_path():
    a = _arr(1, 2, 3, 4)
    b = _arr(2, 4, 6)
    assert list(intersect_arrays(a, b)) == [2, 4]


def test_intersect_many_orders_by_cardinality():
    sets = [
        build_set(np.arange(0, 1000, dtype=np.uint32)),
        build_set(_arr(10, 20, 30)),
        build_set(np.arange(0, 1000, 2, dtype=np.uint32)),
    ]
    assert list(intersect_many(sets)) == [10, 20, 30]


def test_intersect_many_empty_input():
    assert intersect_many([]).size == 0


def test_intersect_many_single_set():
    s = build_set(_arr(4, 2))
    assert list(intersect_many([s])) == [2, 4]


def test_intersect_many_early_exit_on_empty():
    sets = [EMPTY_SET, build_set(_arr(1, 2, 3))]
    assert intersect_many(sets).size == 0


def test_bitset_word_boundary_intersection():
    # Sets crossing word boundaries with different bases.
    a = build_set(_arr(60, 61, 62, 63, 64, 65), force_layout=SetLayout.BITSET)
    b = build_set(_arr(63, 64, 200), force_layout=SetLayout.BITSET)
    assert list(intersect_many([a, b])) == [63, 64]
