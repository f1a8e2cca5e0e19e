"""Property tests: the generic-join implementations (the frontier loop,
whole and drained from a chunked stream, and the recursive spec) agree
with a brute-force evaluator on random databases and random join
shapes."""

from itertools import product
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generic_join import (
    Participant,
    generic_join,
    generic_join_recursive,
)
from repro.core.query import Variable
from repro.trie.trie import Trie
from tests.util import drained_stream

V = {name: Variable(name) for name in "wxyz"}

# A join shape: list of (attr names per relation). Attribute processing
# order is alphabetical. Shapes cover paths, stars, triangles, and
# higher-arity edges.
SHAPES = [
    ["xy", "yz"],
    ["xy", "xz"],
    ["xy", "yz", "xz"],          # triangle
    ["xy", "yz", "zw"],          # path
    ["xy", "xz", "xw"],          # star
    ["xyz", "zw"],               # ternary edge
    ["xyz", "yzw"],
    ["x", "xy"],
    ["wxyz"],
]

rows_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
              st.integers(0, 6)),
    max_size=40,
)


def _build_participants(shape, table_rows):
    participants = []
    tables = []
    for attrs, rows in zip(shape, table_rows):
        arity = len(attrs)
        trimmed = sorted({r[:arity] for r in rows})
        # The trie's level order must be the processing order
        # (alphabetical) restricted to this relation's attributes.
        order = sorted(attrs)
        perm = [attrs.index(a) for a in order]
        reordered = [tuple(r[p] for p in perm) for r in trimmed]
        cols = [
            np.array([r[i] for r in reordered], dtype=np.uint32)
            for i in range(arity)
        ] if reordered else [
            np.empty(0, dtype=np.uint32) for _ in range(arity)
        ]
        trie = Trie.build(cols, tuple(order))
        participants.append(
            Participant(
                trie=trie,
                attrs=tuple(V[a] for a in order),
                label=attrs,
            )
        )
        tables.append((attrs, trimmed))
    return participants, tables


def _brute_force(shape, tables, all_attrs, selections):
    domain = range(0, 7)
    results = set()
    for combo in product(domain, repeat=len(all_attrs)):
        binding = dict(zip(all_attrs, combo))
        if any(binding[a] != v for a, v in selections.items()):
            continue
        ok = True
        for attrs, rows in tables:
            needed = tuple(binding[a] for a in attrs)
            if needed not in set(rows):
                ok = False
                break
        if ok:
            results.add(tuple(binding[a] for a in all_attrs))
    return results


@given(
    st.sampled_from(SHAPES),
    st.lists(rows_strategy, min_size=9, max_size=9),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_generic_join_matches_brute_force(shape, all_rows, with_selection):
    participants, tables = _build_participants(shape, all_rows)
    all_attrs = sorted({a for attrs in shape for a in attrs})
    attr_vars = [V[a] for a in all_attrs]

    selections = {}
    if with_selection:
        selections[all_attrs[-1]] = 3

    sel_vars = {V[a]: v for a, v in selections.items()}
    output = [V[a] for a in all_attrs if a not in selections]

    expected_full = _brute_force(shape, tables, all_attrs, selections)
    keep = [i for i, a in enumerate(all_attrs) if a not in selections]
    expected = {tuple(row[i] for i in keep) for row in expected_full}

    stats = SimpleNamespace(enumerated_tuples=0)
    fast = generic_join(attr_vars, participants, sel_vars, output, stats=stats)
    assert fast.to_set() == expected

    slow = generic_join_recursive(attr_vars, participants, sel_vars, output)
    assert slow.to_set() == expected

    # The stream drained at any chunk size is the materialized join: same
    # rows in the same order, charged the same enumerated_tuples.
    for chunk_rows in (1, 3):
        chunk_stats = SimpleNamespace(enumerated_tuples=0)
        drained = drained_stream(chunk_rows)(
            attr_vars, participants, sel_vars, output, stats=chunk_stats
        )
        assert list(drained.iter_rows()) == list(fast.iter_rows())
        assert chunk_stats.enumerated_tuples == stats.enumerated_tuples


@given(
    st.lists(rows_strategy, min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_triangle_output_within_agm_bound(all_rows):
    """The generic join's output on a triangle never exceeds the AGM
    bound (N1 * N2 * N3) ** 0.5."""
    shape = ["xy", "yz", "xz"]
    participants, tables = _build_participants(shape, all_rows)
    sizes = [len(rows) for _, rows in tables]
    result = generic_join(
        [V["x"], V["y"], V["z"]],
        participants,
        {},
        [V["x"], V["y"], V["z"]],
    )
    bound = (max(sizes[0], 1) * max(sizes[1], 1) * max(sizes[2], 1)) ** 0.5
    assert result.num_rows <= bound + 1e-9


@given(
    st.sampled_from(SHAPES),
    st.lists(rows_strategy, min_size=9, max_size=9),
    st.integers(0, 3),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_truncated_attributes_under_selections(
    shape, all_rows, selection_slot, with_selection
):
    """Both implementations agree with brute force when trailing
    attributes are truncated (projected away) while a selection is
    active — the plan_attribute_list interaction the GHD executor
    relies on for selective queries."""
    participants, tables = _build_participants(shape, all_rows)
    all_attrs = sorted({a for attrs in shape for a in attrs})
    attr_vars = [V[a] for a in all_attrs]

    selections = {}
    if with_selection:
        selections[all_attrs[selection_slot % len(all_attrs)]] = 3
    # Project only the first unselected attribute: every trailing
    # attribute becomes a truncation candidate.
    out_attrs = [a for a in all_attrs if a not in selections][:1]
    output = [V[a] for a in out_attrs]
    sel_vars = {V[a]: v for a, v in selections.items()}

    expected_full = _brute_force(shape, tables, all_attrs, selections)
    keep = [all_attrs.index(a) for a in out_attrs]
    expected = {tuple(row[i] for i in keep) for row in expected_full}

    fast = generic_join(attr_vars, participants, sel_vars, output)
    slow = generic_join_recursive(attr_vars, participants, sel_vars, output)
    assert fast.to_set() == expected
    assert slow.to_set() == expected
