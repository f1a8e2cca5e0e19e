"""Global attribute order heuristics (Sections II-C, III-B1)."""

from repro.core.attribute_order import appearance_order, node_attribute_order
from repro.core.bounds import bound_attribute_order
from repro.core.config import OptimizationConfig
from repro.core.ghd_optimizer import GHDOptimizer
from repro.core.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    normalize,
)
from tests.util import catalog_of, sketches_of

X, A = Variable("x"), Variable("a")


def _example1_query():
    """LUBM query 14: select x from R where a = 'University'."""
    return normalize(
        ConjunctiveQuery((Atom("type", (X, Constant(42))),), (X,))
    )


def test_example1_baseline_order_is_x_then_a():
    """Example 1 of the paper: without the heuristic the trie order is
    [x, a] — probing the second level for every x."""
    query = _example1_query()
    ghd = GHDOptimizer(OptimizationConfig.all_off()).decompose(query)
    order = appearance_order(query, ghd)
    assert [v.name for v in order] == ["x", "_sel0"]


def test_example1_optimized_order_is_a_then_x():
    """With +Attribute the selection comes first: [a, x]."""
    query = _example1_query()
    ghd = GHDOptimizer(OptimizationConfig.all_on()).decompose(query)
    sketches = sketches_of(catalog_of({"type": [(1, 42), (2, 42), (3, 7)]}))
    order, _ = bound_attribute_order(query, ghd, sketches)
    assert [v.name for v in order] == ["_sel0", "x"]


def test_appearance_order_follows_bfs():
    y, z = Variable("y"), Variable("z")
    query = normalize(
        ConjunctiveQuery(
            (Atom("r", (X, y)), Atom("s", (y, z))), (X, y, z)
        )
    )
    ghd = GHDOptimizer().decompose(query)
    order = appearance_order(query, ghd)
    assert set(order) == {X, y, z}
    # The root node's attributes come first.
    root_vars = ghd.root_node.chi
    assert set(order[: len(root_vars)]) == root_vars


def test_node_attribute_order_restricts_global():
    y, z = Variable("y"), Variable("z")
    global_order = [z, X, y]
    assert node_attribute_order(frozenset({X, y}), global_order) == [X, y]


def test_lubm_query2_order_selections_first():
    """Section III-B1: the order chosen for LUBM query 2 puts the three
    type selections before x, y, z."""
    from repro.core.planner import Planner
    from repro.storage.catalog import Catalog
    from repro.storage.relation import Relation

    catalog = Catalog()
    catalog.register(
        Relation.from_rows("type", ("s", "o"), [(1, 10), (2, 11), (3, 12)])
    )
    catalog.register(
        Relation.from_rows("udf", ("s", "o"), [(1, 2)])
    )
    catalog.register(Relation.from_rows("mem", ("s", "o"), [(1, 3)]))
    catalog.register(Relation.from_rows("sub", ("s", "o"), [(3, 2)]))
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    query = ConjunctiveQuery(
        (
            Atom("type", (x, Constant(10))),
            Atom("type", (y, Constant(11))),
            Atom("type", (z, Constant(12))),
            Atom("mem", (x, z)),
            Atom("sub", (z, y)),
            Atom("udf", (x, y)),
        ),
        (x, y, z),
    )
    plan = Planner(OptimizationConfig.all_on(), sketches_of(catalog)).plan(
        query
    )
    names = [v.name for v in plan.global_order]
    # All three selection variables precede all of x, y, z.
    sel_positions = [i for i, n in enumerate(names) if n.startswith("_sel")]
    var_positions = [i for i, n in enumerate(names) if n in "xyz"]
    assert max(sel_positions) < min(var_positions)


#: ``global_order`` of each paper query on LUBM(1), seed 0, all
#: optimizations on: selections first everywhere, and Q7 enumerates the
#: professor's few courses (Y) before the students taking them (X).
PAPER_ORDERS = {
    1: "_sel0 _sel1 X",
    2: "_sel0 _sel1 _sel2 Y X Z",
    3: "_sel0 _sel1 X",
    4: "_sel0 _sel1 X Y1 Y2 Y3",
    5: "_sel0 _sel1 X",
    7: "_sel0 _sel1 _sel2 Y X",
    8: "_sel0 _sel1 _sel2 X Z Y",
    9: "_sel0 _sel1 _sel2 Z Y X",
    11: "_sel0 _sel1 X",
    12: "_sel0 _sel1 _sel2 X Y",
    13: "_sel0 _sel1 X",
    14: "_sel0 X",
}


def test_paper_query_orders_on_lubm(dataset, queries):
    """Section III-B1 on real data, through the production planner."""
    from repro.engines.emptyheaded import EmptyHeadedEngine

    engine = EmptyHeadedEngine(dataset.store, OptimizationConfig.all_on())
    orders = {}
    for query_id, text in queries.items():
        bound = engine.bind(engine.prepare_sparql(text))
        inner, _ = engine.split_modifiers(bound)
        plan = engine.plan_for(inner)
        orders[query_id] = " ".join(v.name for v in plan.global_order)
    assert orders == PAPER_ORDERS
