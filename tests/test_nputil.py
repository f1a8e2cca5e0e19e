"""``sorted_distinct_rows``: the one row-sorting kernel.

Checked against plain Python (``sorted(set(rows))``) for one to three
columns, on the shapes each branch of the kernel exists for: rows that
arrive sorted-distinct (returned untouched), reversed and duplicated
rows (sorted), and the edges — no rows, one row, ``NULL_KEY``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nputil import merge_sorted_unique, pack_pairs, sorted_distinct_rows
from repro.storage.relation import NULL_KEY

_VALUES = st.one_of(
    st.integers(0, 6), st.sampled_from([NULL_KEY - 1, NULL_KEY])
)
_SHAPES = ("as_drawn", "sorted", "sorted_distinct", "reversed", "all_duplicates")


def _shaped(rows, shape):
    if shape == "sorted":
        return sorted(rows)
    if shape == "sorted_distinct":
        return sorted(set(rows))
    if shape == "reversed":
        return sorted(rows, reverse=True)
    if shape == "all_duplicates":
        return rows[:1] * len(rows)
    return rows


def _columns(rows, arity):
    return [
        np.array([row[i] for row in rows], dtype=np.uint32)
        for i in range(arity)
    ]


def _rows(columns):
    return list(zip(*(column.tolist() for column in columns)))


@st.composite
def _row_lists(draw):
    arity = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.tuples(*[_VALUES] * arity), min_size=0, max_size=40)
    )
    return arity, _shaped(rows, draw(st.sampled_from(_SHAPES)))


@settings(max_examples=300)
@given(_row_lists())
@example((1, []))
@example((2, []))
@example((3, [(NULL_KEY, 0, NULL_KEY)]))
@example((2, [(NULL_KEY, NULL_KEY)] * 5))
def test_matches_sorted_set(case):
    arity, rows = case
    result = sorted_distinct_rows(_columns(rows, arity))
    assert len(result) == arity
    assert all(column.dtype == np.uint32 for column in result)
    assert _rows(result) == sorted(set(rows))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sorted_distinct_input_is_returned_uncopied(arity):
    rows = sorted({(i // 9, (i // 3) % 3, i % 3)[:arity] for i in range(50)})
    columns = _columns(rows, arity)
    result = sorted_distinct_rows(columns)
    assert all(out is column for out, column in zip(result, columns))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_a_tie_is_not_strictly_increasing(arity):
    columns = _columns([(1, 2, 3)[:arity]] * 2, arity)
    result = sorted_distinct_rows(columns)
    assert _rows(result) == [(1, 2, 3)[:arity]]


def test_one_column_keeps_packed_key_dtype():
    keys = pack_pairs(
        np.array([3, 1, 3, NULL_KEY], dtype=np.uint32),
        np.array([0, 5, 0, NULL_KEY], dtype=np.uint32),
    )
    (result,) = sorted_distinct_rows([keys])
    assert result.dtype == np.uint64
    assert result.tolist() == sorted(set(keys.tolist()))


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, 2**40), unique=True).map(sorted),
    st.lists(st.integers(0, 2**40)),
)
def test_merge_sorted_unique_is_set_union(main, new):
    merged = merge_sorted_unique(
        np.array(main, dtype=np.uint64), np.array(new, dtype=np.uint64)
    )
    assert merged.dtype == np.uint64
    assert merged.tolist() == sorted(set(main) | set(new))
