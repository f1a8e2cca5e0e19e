"""Planner: plan assembly, node orders, pipelining rule."""

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.core.planner import Planner
from repro.core.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
)
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from tests.util import sketches_of

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def _planner(catalog, config=None):
    return Planner(
        config if config is not None else OptimizationConfig(),
        sketches_of(catalog),
    )


@pytest.fixture()
def catalog():
    c = Catalog()
    c.register(
        Relation.from_rows(
            "r", ("s", "o"), [(1, 10), (2, 20), (3, 30)]
        )
    )
    c.register(
        Relation.from_rows("s", ("s", "o"), [(1, 100), (2, 200)])
    )
    c.register(
        Relation.from_rows("t", ("s", "o"), [(1, 7), (2, 7), (3, 8)])
    )
    return c


def test_plan_basic_structure(catalog):
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (X, Z))), (X, Y, Z)
    )
    plan = _planner(catalog).plan(query)
    assert set(plan.node_orders) == {
        n.node_id for n in plan.ghd.nodes
    }
    assert {v.name for v in plan.global_order} == {"x", "y", "z"}
    assert plan.width == pytest.approx(1.0)


def test_plan_explain_is_readable(catalog):
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (X, Z))), (X, Y, Z)
    )
    text = _planner(catalog).plan(query).explain()
    assert "global order" in text
    assert "node 0" in text


def test_pipelineable_pair_detected(catalog):
    """Example 3 of the paper: two nodes sharing prefix x are fused."""
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (X, Z))), (X, Y, Z)
    )
    plan = _planner(catalog, OptimizationConfig.all_on()).plan(query)
    if len(plan.ghd.nodes) == 2:  # two-node plan: must be pipelineable
        assert plan.pipelined_child is not None
        child_order = plan.unselected_node_order(plan.pipelined_child)
        root_order = plan.unselected_node_order(plan.ghd.root)
        assert child_order[0] == root_order[0] == X


def test_pipelining_disabled_by_config(catalog):
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (X, Z))), (X, Y, Z)
    )
    plan = _planner(
        catalog, OptimizationConfig.all_on().but(pipelining=False)
    ).plan(query)
    assert plan.pipelined_child is None


def test_non_prefix_share_not_pipelined(catalog):
    """Nodes joining on an attribute that is not a prefix of both trie
    orders must not fuse (Definition 2)."""
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (Y, Z))), (X, Y, Z)
    )
    plan = _planner(catalog, OptimizationConfig.all_on()).plan(query)
    root_order = plan.unselected_node_order(plan.ghd.root)
    if plan.pipelined_child is not None:
        child_order = plan.unselected_node_order(plan.pipelined_child)
        shared = [v for v in root_order if v in child_order]
        k = len(shared)
        assert root_order[:k] == shared
        assert child_order[:k] == shared


def test_selection_bounds(catalog):
    query = ConjunctiveQuery(
        (Atom("t", (X, Constant(7))), Atom("r", (X, Y))), (X, Y)
    )
    plan = _planner(catalog, OptimizationConfig.all_on()).plan(query)
    sel_var = next(iter(plan.query.selections))
    assert plan.bounds[sel_var] == 1
    assert plan.bounds[X] == 2  # two subjects with t.o = 7
    assert plan.assumed_counts == {sel_var: 2}


def test_baseline_has_no_bounds(catalog):
    query = ConjunctiveQuery((Atom("r", (X, Y)),), (X, Y))
    plan = _planner(catalog, OptimizationConfig.all_off()).plan(query)
    assert plan.bounds == {}
    assert plan.assumed_counts == {}


def test_fresh_planning_scans_no_column(sort_calls):
    """Clock-free guard: planning reads the sketches, never a column —
    no sort or unique over the 100 000-row relation's values."""
    rows = 100_000
    catalog = Catalog()
    catalog.register(
        Relation(
            "r",
            ("s", "o"),
            (
                np.arange(rows, dtype=np.uint32),
                np.arange(rows, dtype=np.uint32)[::-1].copy(),
            ),
        )
    )
    catalog.register(
        Relation.from_rows("t", ("s", "o"), [(1, 7), (2, 7), (3, 8)])
    )
    planner = _planner(catalog, OptimizationConfig.all_on())
    query = ConjunctiveQuery(
        (Atom("t", (X, Constant(7))), Atom("r", (X, Y))), (X, Y)
    )
    sort_calls.clear()
    plan = planner.plan(query)
    assert max((size for _, size in sort_calls), default=0) <= 32
    assert plan.bounds[X] == 2


def test_single_node_plan_when_ghd_disabled(catalog):
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (X, Z))), (X, Y, Z)
    )
    plan = _planner(catalog, OptimizationConfig.all_off()).plan(query)
    assert len(plan.ghd.nodes) == 1
    assert plan.pipelined_child is None
