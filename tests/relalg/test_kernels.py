"""Vectorized join kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.relalg.kernels import cross_product, join_in_order, natural_join
from repro.storage.relation import Relation
from tests.util import spy_pairwise_kernels


def _rel(name, attrs, rows):
    return Relation.from_rows(name, attrs, rows)


def test_one_to_one_join():
    r = _rel("r", ("x", "y"), [(1, 10), (2, 20)])
    s = _rel("s", ("y", "z"), [(10, 100), (30, 300)])
    joined = natural_join(r, s)
    assert joined.attributes == ("x", "y", "z")
    assert joined.to_set() == {(1, 10, 100)}


def test_many_to_many_join():
    r = _rel("r", ("x", "k"), [(1, 5), (2, 5), (3, 6)])
    s = _rel("s", ("k", "y"), [(5, 7), (5, 8), (6, 9)])
    joined = natural_join(r, s)
    assert joined.to_set() == {
        (1, 5, 7), (1, 5, 8), (2, 5, 7), (2, 5, 8), (3, 6, 9),
    }


def test_multi_key_join():
    r = _rel("r", ("a", "b", "x"), [(1, 2, 9), (1, 3, 8)])
    s = _rel("s", ("a", "b", "y"), [(1, 2, 7), (1, 9, 6)])
    joined = natural_join(r, s)
    assert joined.to_set() == {(1, 2, 9, 7)}


def test_join_empty_side():
    r = _rel("r", ("x", "y"), [])
    s = _rel("s", ("y", "z"), [(1, 2)])
    assert natural_join(r, s).num_rows == 0


def test_join_no_shared_attrs_raises():
    r = _rel("r", ("x",), [(1,)])
    s = _rel("s", ("y",), [(2,)])
    with pytest.raises(ExecutionError):
        natural_join(r, s)


def test_asymmetric_join_prefilter_path():
    big = _rel(
        "big", ("k", "x"), [(i, i) for i in range(2000)]
    )
    small = _rel("small", ("k", "y"), [(5, 50), (100, 51), (9999, 52)])
    joined = natural_join(big, small)
    assert joined.to_set() == {(5, 5, 50), (100, 100, 51)}
    # Order reversed exercises the other prefilter branch.
    joined2 = natural_join(small, big)
    assert joined2.to_set() == {(5, 50, 5), (100, 51, 100)}


def test_cross_product():
    r = _rel("r", ("x",), [(1,), (2,)])
    s = _rel("s", ("y",), [(8,), (9,)])
    cp = cross_product(r, s)
    assert cp.to_set() == {(1, 8), (1, 9), (2, 8), (2, 9)}


def test_cross_product_overlap_raises():
    r = _rel("r", ("x",), [(1,)])
    with pytest.raises(ExecutionError):
        cross_product(r, r)


rows = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=60
)


@given(rows, rows)
@settings(max_examples=60, deadline=None)
def test_join_matches_python_sets(left_rows, right_rows):
    r = _rel("r", ("x", "k"), left_rows)
    s = _rel("s", ("k", "y"), right_rows)
    joined = natural_join(r, s)
    expected = {
        (x, k, y)
        for (x, k) in left_rows
        for (k2, y) in right_rows
        if k == k2
    }
    # natural_join keeps duplicates; compare sets and multiplicity count.
    assert joined.to_set() == expected
    expected_count = sum(
        1
        for (x, k) in left_rows
        for (k2, y) in right_rows
        if k == k2
    )
    assert joined.num_rows == expected_count


def test_join_in_order_joins_or_multiplies_per_leaf():
    r = _rel("r", ("x", "k"), [(1, 5), (2, 6)])
    s = _rel("s", ("k", "y"), [(5, 7), (6, 8)])
    t = _rel("t", ("z",), [(0,), (9,)])
    joined = join_in_order([r, s, t], [2, 0, 1])
    assert joined.attributes == ("z", "x", "k", "y")
    assert joined.to_set() == {
        (z, x, k, y)
        for (z,) in [(0,), (9,)]
        for (x, k, y) in [(1, 5, 7), (2, 6, 8)]
    }


def test_join_in_order_widens_an_empty_result():
    r = _rel("r", ("x", "k"), [(1, 5)])
    s = _rel("s", ("k", "y"), [(6, 8)])
    t = _rel("t", ("y", "z"), [(8, 1)])
    joined = join_in_order([r, s, t], [0, 1, 2])
    assert joined.num_rows == 0
    assert joined.attributes == ("x", "k", "y", "z")


def test_join_in_order_calls_the_module_kernels(monkeypatch):
    """The kernels are looked up through ``repro.relalg.kernels`` at
    call time, so a spy set there sees every pairwise step."""
    calls = spy_pairwise_kernels(monkeypatch)
    r = _rel("r", ("x", "k"), [(1, 5)])
    s = _rel("s", ("k", "y"), [(5, 8)])
    t = _rel("t", ("z",), [(3,)])
    assert join_in_order([r, s, t], [0, 1, 2]).to_set() == {(1, 5, 8, 3)}
    assert calls == ["natural_join", "cross_product"]
