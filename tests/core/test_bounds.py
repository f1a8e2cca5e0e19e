"""Pessimistic bounds: value classes, divergence, and the attach-order
search that is the +Attribute order policy."""

import numpy as np
import pytest

from repro.core.attribute_order import appearance_order
from repro.core.bounds import (
    bound_attribute_order,
    counts_diverge,
    selection_counts,
    value_class,
)
from repro.core.config import OptimizationConfig
from repro.core.ghd_optimizer import GHDOptimizer
from repro.core.planner import Planner
from repro.core.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    normalize,
)
from repro.core.sketch import build_table_sketches
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def _sketches(**tables):
    """``name=(subject_col, object_col)`` → a sketch registry."""
    registry = {}
    for name, columns in tables.items():
        arrays = [np.asarray(c, dtype=np.uint32) for c in columns]
        registry[name] = build_table_sketches(
            tuple(f"c{i}" for i in range(len(arrays))), arrays
        )
    return registry


def _query(*atoms):
    projection = tuple(
        sorted(
            {v for a in atoms for v in a.variables},
            key=lambda v: v.name,
        )
    )
    return normalize(ConjunctiveQuery(tuple(atoms), projection))


# ----------------------------------------------------------------------
# Value classes + divergence
# ----------------------------------------------------------------------
def test_value_class_buckets_logarithmically():
    factor = 8.0
    assert value_class({X: 0}, factor) == (("x", 0),)
    assert value_class({X: 7}, factor) == (("x", 0),)
    assert value_class({X: 8}, factor) == (("x", 1),)
    assert value_class({X: 63}, factor) == (("x", 1),)
    assert value_class({X: 64}, factor) == (("x", 2),)
    # Sorted by variable name, independent of dict order.
    assert value_class({Y: 1, X: 9}, factor) == (("x", 1), ("y", 0))


def test_counts_diverge_is_symmetric_and_smoothed():
    factor = 8.0
    assert counts_diverge({X: 50}, {X: 3}, factor)  # cold vs hot plan
    assert counts_diverge({X: 3}, {X: 50}, factor)  # hot vs cold plan
    assert not counts_diverge({X: 50}, {X: 40}, factor)
    assert not counts_diverge({X: 0}, {X: 5}, factor)  # smoothing: 6 < 8
    assert counts_diverge({}, {X: 1}, factor)  # unknown assumption


def test_selection_counts_take_min_over_covering_atoms():
    from dataclasses import replace

    # The same selected variable covered by two atoms: any one atom's
    # rows cap the matches, so the minimum count wins.
    query = replace(
        _query(Atom("r", (X, Y)), Atom("s", (X, Z))), selections={X: 7}
    )
    sketches = _sketches(
        r=([7, 7, 7], [1, 2, 3]),
        s=([7], [1]),
    )
    counts = selection_counts(query, sketches)
    assert counts[X] == 1  # s's single row caps the matches


# ----------------------------------------------------------------------
# Attach-order search
# ----------------------------------------------------------------------
def _order_for(query, sketches):
    ghd = GHDOptimizer(OptimizationConfig.all_on()).decompose(query)
    return bound_attribute_order(query, ghd, sketches)


def test_skewed_fanout_reorders_variables():
    """y has 2 values over 50 rows: enumerating y first bounds the
    frontier at 2 (then 2*25), enumerating x first at 50 — the search
    must flip the appearance order."""
    x_col = list(range(50))
    y_col = [1, 2] * 25
    query = _query(Atom("r", (X, Y)))
    order, bounds = _order_for(query, _sketches(r=(x_col, y_col)))
    assert [v.name for v in order] == ["y", "x"]
    assert bounds[Y] == 2
    assert bounds[X] == 25  # max_count of y's column caps the fan-out


def test_uniform_stats_keep_appearance_order():
    x_col = list(range(50))
    y_col = list(range(50, 100))
    query = _query(Atom("r", (X, Y)))
    order, bounds = _order_for(query, _sketches(r=(x_col, y_col)))
    assert [v.name for v in order] == ["x", "y"]
    assert bounds[X] == 50
    assert bounds[Y] == 1  # each x row holds exactly one y


def test_selections_stay_in_front():
    query = _query(Atom("r", (X, Y)), Atom("s", (Y, Constant(5))))
    sketches = _sketches(
        r=(list(range(10)), list(range(10))),
        s=(list(range(10)), [5] * 4 + [6] * 6),
    )
    order, bounds = _order_for(query, sketches)
    sel = next(iter(query.selections))
    assert order[0] == sel
    assert bounds[sel] == 1


def test_selected_covalue_caps_the_bound():
    """The sketched frequency of the *bound value* (not the column's
    average) caps a co-occurring variable — the skew-awareness core."""
    query = _query(Atom("r", (X, Constant(7))))
    sel = next(iter(query.selections))
    cold = _sketches(r=(list(range(100)), [7] + list(range(100, 199))))
    order, bounds = _order_for(query, cold)
    assert bounds[X] == 1  # value 7 occurs once

    hot = _sketches(r=(list(range(100)), [7] * 90 + list(range(100, 110))))
    order, bounds = _order_for(query, hot)
    assert bounds[X] == 90  # value 7 occurs 90 times
    assert order[0] == sel


# ----------------------------------------------------------------------
# Planner integration
# ----------------------------------------------------------------------
@pytest.fixture()
def skewed_catalog():
    c = Catalog()
    c.register(
        Relation(
            "r",
            ("s", "o"),
            (
                np.arange(50, dtype=np.uint32),
                np.array([1, 2] * 25, dtype=np.uint32),
            ),
        )
    )
    return c


def test_planner_uses_bound_order_and_reports_bounds(skewed_catalog):
    sketches = {
        "r": build_table_sketches(
            ("s", "o"),
            [skewed_catalog.get("r").column("s"),
            skewed_catalog.get("r").column("o"),],
        )
    }
    planner = Planner(OptimizationConfig.all_on(), sketches)
    plan = planner.plan(ConjunctiveQuery((Atom("r", (X, Y)),), (X, Y)))
    assert [v.name for v in plan.global_order] == ["y", "x"]
    assert plan.bounds[Y] == 2
    assert "bounds:" in plan.explain()


def test_empty_registry_keeps_appearance_order():
    """No sketch covers any atom: every unselected bound is unknown, so
    the search ties everywhere and keeps the appearance order (after the
    selections), reporting the unknown caps as ``?``."""
    planner = Planner(OptimizationConfig.all_on(), {})
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (Y, Constant(5)))), (X, Y)
    )
    plan = planner.plan(query)
    sel = next(iter(plan.query.selections))
    assert appearance_order(plan.query, plan.ghd) == [X, Y, sel]
    assert plan.global_order == [sel, X, Y]
    assert plan.bounds[sel] == 1
    assert plan.assumed_counts == {}
    assert "bounds: _sel0<=1  x<=?  y<=?" in plan.explain()
