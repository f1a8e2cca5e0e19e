"""Generic worst-case optimal join: unit tests on known instances."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.generic_join import (
    Participant,
    generic_join,
    generic_join_recursive,
    plan_attribute_list,
)
from repro.core.query import Variable
from repro.trie.trie import Trie
from tests.util import drained_stream

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def _participant(rows, attrs, label="p"):
    arity = len(attrs)
    cols = [
        np.array([r[i] for r in rows], dtype=np.uint32)
        for i in range(arity)
    ] if rows else [np.empty(0, dtype=np.uint32) for _ in range(arity)]
    trie = Trie.build(cols, tuple(v.name for v in attrs))
    return Participant(trie=trie, attrs=tuple(attrs), label=label)


def _triangle_parts(r, s, t):
    return [
        _participant(r, (X, Y), "r"),
        _participant(s, (Y, Z), "s"),
        _participant(t, (X, Z), "t"),
    ]


JOINS = [
    generic_join,
    generic_join_recursive,
    drained_stream(1),
    drained_stream(3),
]


@pytest.mark.parametrize("join", JOINS)
def test_triangle_join(join):
    r = [(0, 1), (1, 2), (0, 3)]
    s = [(1, 2), (2, 0), (3, 0)]
    t = [(0, 2), (1, 0), (5, 5)]
    parts = _triangle_parts(r, s, t)
    result = join([X, Y, Z], parts, {}, [X, Y, Z])
    assert result.to_set() == {(0, 1, 2), (1, 2, 0)}


@pytest.mark.parametrize("join", JOINS)
def test_two_way_join(join):
    r = [(1, 10), (2, 20)]
    s = [(10, 100), (20, 200), (30, 300)]
    parts = [_participant(r, (X, Y), "r"), _participant(s, (Y, Z), "s")]
    result = join([X, Y, Z], parts, {}, [X, Y, Z])
    assert result.to_set() == {(1, 10, 100), (2, 20, 200)}


@pytest.mark.parametrize("join", JOINS)
def test_selection_first_order(join):
    rows = [(5, 1), (5, 2), (6, 3)]
    a = Variable("a")
    parts = [_participant(rows, (a, X), "r")]
    result = join([a, X], parts, {a: 5}, [X])
    assert result.to_set() == {(1,), (2,)}


@pytest.mark.parametrize("join", JOINS)
def test_selection_last_order(join):
    rows = [(1, 5), (2, 5), (3, 6)]
    a = Variable("a")
    parts = [_participant(rows, (X, a), "r")]
    result = join([X, a], parts, {a: 5}, [X])
    assert result.to_set() == {(1,), (2,)}


@pytest.mark.parametrize("join", JOINS)
def test_failed_selection_empty(join):
    parts = [_participant([(1, 2)], (X, Variable("a")), "r")]
    result = join([X, Variable("a")], parts, {Variable("a"): 99}, [X])
    assert result.num_rows == 0


@pytest.mark.parametrize("join", JOINS)
def test_empty_participant_empty_result(join):
    parts = [
        _participant([(1, 2)], (X, Y), "r"),
        _participant([], (Y, Z), "s"),
    ]
    result = join([X, Y, Z], parts, {}, [X, Y, Z])
    assert result.num_rows == 0


@pytest.mark.parametrize("join", JOINS)
def test_cross_product_of_unary_participants(join):
    parts = [
        _participant([(1,), (2,)], (X,), "r"),
        _participant([(7,), (8,)], (Y,), "s"),
    ]
    result = join([X, Y], parts, {}, [X, Y])
    assert result.to_set() == {(1, 7), (1, 8), (2, 7), (2, 8)}


@pytest.mark.parametrize("join", JOINS)
def test_boolean_query_sentinel(join):
    a, b = Variable("a"), Variable("b")
    parts = [_participant([(1, 2)], (a, b), "r")]
    satisfied = join([a, b], parts, {a: 1, b: 2}, [])
    assert satisfied.num_rows == 1
    assert satisfied.attributes == ("__exists__",)
    missing = join([a, b], parts, {a: 1, b: 3}, [])
    assert missing.num_rows == 0


def test_plan_attribute_list_truncates_free_tail():
    parts = [
        _participant([(1, 2)], (X, Y), "r"),
        _participant([(1, 3)], (X, Z), "s"),
    ]
    kept = plan_attribute_list([X, Y, Z], parts, {}, [X])
    assert kept == [X]


def test_plan_attribute_list_keeps_shared_attrs():
    parts = [
        _participant([(1, 2)], (X, Y), "r"),
        _participant([(2, 3)], (Y, Z), "s"),
    ]
    kept = plan_attribute_list([X, Y, Z], parts, {}, [X])
    # Y is shared by two participants, so it cannot be dropped; Z can.
    assert kept == [X, Y]


def test_truncated_participant_still_guards_emptiness():
    parts = [
        _participant([(1,)], (X,), "r"),
        _participant([], (Y,), "empty"),
    ]
    result = generic_join([X, Y], parts, {}, [X])
    assert result.num_rows == 0


@pytest.mark.parametrize("join", JOINS)
def test_three_started_participants(join):
    """Three relations all constraining the same second attribute."""
    r = [(1, 5), (1, 6), (2, 5)]
    s = [(1, 5), (1, 7), (2, 5)]
    t = [(1, 5), (1, 6), (2, 9)]
    parts = [
        _participant(r, (X, Y), "r"),
        _participant(s, (X, Y), "s"),
        _participant(t, (X, Y), "t"),
    ]
    result = join([X, Y], parts, {}, [X, Y])
    assert result.to_set() == {(1, 5)}


def test_frontier_matches_recursive_on_triangle_with_selection():
    a = Variable("a")
    r = [(0, 1), (1, 2), (0, 3), (2, 2)]
    s = [(1, 2), (2, 0), (3, 0), (2, 2)]
    t = [(0, 2), (1, 0), (2, 2)]
    types = [(0, 7), (2, 7), (1, 8)]
    parts = _triangle_parts(r, s, t) + [_participant(types, (X, a), "ty")]
    args = ([X, Y, Z, a], parts, {a: 7}, [X, Y, Z])
    fast = generic_join(*args)
    slow = generic_join_recursive(*args)
    assert fast.to_set() == slow.to_set()


@pytest.mark.parametrize("join", JOINS)
def test_existential_node_with_join_attributes(join):
    """No output attribute left but join attributes to bind: every
    implementation answers with the ``__exists__`` sentinel."""
    r = [(0, 1), (1, 2), (0, 3)]
    s = [(1, 2), (2, 0), (3, 0)]
    t = [(0, 2), (1, 0), (5, 5)]
    satisfied = join([X, Y, Z], _triangle_parts(r, s, t), {}, [])
    assert satisfied.attributes == ("__exists__",)
    assert satisfied.num_rows == 1
    missing = join([X, Y, Z], _triangle_parts(r, s, [(5, 5)]), {}, [])
    assert missing.num_rows == 0


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 1 << 20])
def test_drained_stream_is_the_materialized_join(chunk_rows):
    """Same rows, same order, same ``enumerated_tuples`` at any chunk
    size: the materialized join is the stream drained in one chunk."""
    a = Variable("a")
    r = [(0, 1), (1, 2), (0, 3), (2, 2), (0, 2), (2, 0)]
    s = [(1, 2), (2, 0), (3, 0), (2, 2), (0, 1), (1, 0)]
    t = [(0, 2), (1, 0), (2, 2), (0, 0), (2, 1), (0, 3)]
    types = [(7, 0), (7, 1), (7, 2), (8, 1)]
    parts = _triangle_parts(r, s, t) + [_participant(types, (a, X), "ty")]
    args = ([a, X, Y, Z], parts, {a: 7}, [X, Y, Z])
    whole_stats = SimpleNamespace(enumerated_tuples=0)
    whole = generic_join(*args, stats=whole_stats)
    chunk_stats = SimpleNamespace(enumerated_tuples=0)
    drained = drained_stream(chunk_rows)(*args, stats=chunk_stats)
    assert whole.num_rows == 8
    assert list(drained.iter_rows()) == list(whole.iter_rows())
    # The frontier after x (3 rows), after y (6) and after z (8).
    assert whole_stats.enumerated_tuples == 3 + 6 + 8
    assert chunk_stats.enumerated_tuples == whole_stats.enumerated_tuples
