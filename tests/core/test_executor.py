"""GHD executor: end-to-end correctness on hand-built catalogs."""

import pytest

from repro.core.config import OptimizationConfig
from repro.core.executor import GHDExecutor
from repro.core.planner import Planner
from repro.core.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    normalize,
)
from repro.engines.emptyheaded import EmptyHeadedEngine
from tests.util import (
    brute_force,
    catalog_of,
    run_query,
    sketches_of,
    spy_pairwise_kernels,
)

X, Y, Z, W, V = (Variable(n) for n in "xyzwv")

ALL_CONFIGS = [
    OptimizationConfig.all_on(),
    OptimizationConfig.all_off(),
    OptimizationConfig.baseline_with_ghd(),
    OptimizationConfig.all_on().but(pipelining=False),
    OptimizationConfig.all_on().but(ghd_selection_pushdown=False),
    OptimizationConfig.all_on().but(mixed_layouts=False),
    OptimizationConfig.all_on().but(reorder_selections=False),
]


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_triangle_query(config):
    catalog = catalog_of(
        {
            "r": [(0, 1), (1, 2), (0, 3), (3, 4)],
            "s": [(1, 2), (2, 0), (3, 4), (4, 0)],
            "t": [(0, 2), (1, 0), (3, 0), (0, 4)],
        }
    )
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (X, Z))),
        (X, Y, Z),
    )
    assert run_query(catalog, query, config) == brute_force(catalog, query)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_star_with_selections(config):
    catalog = catalog_of(
        {
            "r": [(0, 1), (1, 2), (2, 3)],
            "s": [(0, 9), (1, 9), (2, 8)],
            "t": [(0, 7), (2, 7)],
        }
    )
    query = ConjunctiveQuery(
        (
            Atom("r", (X, Y)),
            Atom("s", (X, Constant(9))),
            Atom("t", (X, Constant(7))),
        ),
        (X, Y),
    )
    assert run_query(catalog, query, config) == brute_force(catalog, query)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_path_query_projection(config):
    catalog = catalog_of(
        {
            "r": [(0, 1), (1, 2), (2, 2)],
            "s": [(1, 5), (2, 6), (2, 7)],
        }
    )
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (Y, Z))), (X, Z)
    )
    assert run_query(catalog, query, config) == brute_force(catalog, query)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_projection_spans_multiple_nodes(config):
    """The root's join must carry projected attributes from the leaves."""
    catalog, query = _SPANNING
    assert run_query(catalog, query, config) == brute_force(catalog, query)


_SPANNING = (
    catalog_of(
        {
            "r": [(0, 1), (0, 2), (1, 3)],
            "s": [(0, 5), (1, 6)],
            "t": [(5, 9), (6, 8)],
        }
    ),
    ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (X, Z)), Atom("t", (Z, W))),
        (Y, W),
    ),
)

# A path whose projection reaches a grandchild of the GHD root: with
# every optimization on, t(z, w) is the root, s(y, z) its (fused) child
# and r(x, y) -- the only node holding x -- the grandchild.
_GRANDCHILD = (
    catalog_of(
        {
            "r": [(0, 1), (0, 2), (1, 3), (4, 2)],
            "s": [(1, 5), (2, 6), (3, 7)],
            "t": [(5, 9), (6, 8)],
            "u": [(9, 1), (8, 2), (8, 3)],
        }
    ),
    ConjunctiveQuery(
        (
            Atom("r", (X, Y)),
            Atom("s", (Y, Z)),
            Atom("t", (Z, W)),
            Atom("u", (W, V)),
        ),
        (X, V),
    ),
)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_empty_relation_short_circuits(config):
    catalog = catalog_of({"r": [(0, 1)], "s": []})
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (Y, Z))), (X,)
    )
    assert run_query(catalog, query, config) == frozenset()


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_repeated_variable_atom(config):
    catalog = catalog_of({"r": [(0, 0), (1, 2), (3, 3)], "s": [(0, 5), (3, 7)]})
    query = ConjunctiveQuery(
        (Atom("r", (X, X)), Atom("s", (X, Y))), (X, Y)
    )
    assert run_query(catalog, query, config) == brute_force(catalog, query)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_disconnected_cross_product(config):
    catalog = catalog_of({"r": [(0, 1), (2, 3)], "s": [(5, 6)]})
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (Z, W))), (X, Z)
    )
    assert run_query(catalog, query, config) == brute_force(catalog, query)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_four_cycle(config):
    catalog = catalog_of(
        {
            "r": [(0, 1), (1, 2)],
            "s": [(1, 2), (2, 3)],
            "t": [(2, 3), (3, 0)],
            "u": [(3, 0), (0, 1)],
        }
    )
    query = ConjunctiveQuery(
        (
            Atom("r", (X, Y)),
            Atom("s", (Y, Z)),
            Atom("t", (Z, W)),
            Atom("u", (W, X)),
        ),
        (X, Y, Z, W),
    )
    assert run_query(catalog, query, config) == brute_force(catalog, query)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_fully_constant_atom_satisfied(config):
    catalog = catalog_of({"r": [(0, 1)], "s": [(5, 6)]})
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (Constant(5), Constant(6)))),
        (X, Y),
    )
    assert run_query(catalog, query, config) == {(0, 1)}


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_fully_constant_atom_unsatisfied(config):
    catalog = catalog_of({"r": [(0, 1)], "s": [(5, 6)]})
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (Constant(5), Constant(7)))),
        (X, Y),
    )
    assert run_query(catalog, query, config) == frozenset()


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_shared_variable_three_ways(config):
    catalog = catalog_of(
        {
            "r": [(0, 1), (1, 1), (2, 2)],
            "s": [(0, 2), (1, 3), (2, 2)],
            "t": [(0, 4), (2, 5)],
        }
    )
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (X, Z)), Atom("t", (X, W))),
        (X, Y, Z, W),
    )
    assert run_query(catalog, query, config) == brute_force(catalog, query)


# ---------------------------------------------------------------------------
# Child semijoin participants (regression for a dead-code refilter bug)
# ---------------------------------------------------------------------------
def test_child_participant_projects_shared_attributes_in_order():
    """Regression: the child participant step once refiltered `shared`
    by `attr_set` twice; the participant must be exactly the node attrs
    that appear in the child result, in node-attribute order."""
    from repro.core.generic_join import relation_participant
    from repro.storage.relation import Relation

    # Child materialized (y, x, w); node attrs order [Y, X]: the shared
    # attributes follow the node order and drop the private `w`.
    child_result = Relation.from_rows(
        "child", ["y", "x", "w"], [(1, 0, 5), (2, 0, 6), (2, 0, 7)]
    )
    participant = relation_participant(child_result, [Y, X], "child1")
    assert participant is not None
    assert participant.attrs == (Y, X)
    assert participant.trie.num_levels == 2
    # Projection is deduplicated: (2, 0) appears once.
    assert participant.trie.num_tuples == 2

    # No shared attributes -> no participant (pure cross-product child).
    assert (
        relation_participant(child_result, [Variable("q")], "child1")
        is None
    )


def test_limit_truncates_after_distinct():
    """LIMIT flows through the plan and truncates deterministically."""
    catalog = catalog_of({"r": [(0, 1), (1, 2), (2, 3), (3, 4)]})
    query = ConjunctiveQuery((Atom("r", (X, Y)),), (X, Y), limit=2)
    result = run_query(catalog, query, OptimizationConfig.all_on())
    full = brute_force(
        catalog, ConjunctiveQuery((Atom("r", (X, Y)),), (X, Y))
    )
    assert len(result) == 2
    assert result <= full
    # distinct() sorts, so the first two rows are the smallest.
    assert result == frozenset(sorted(full)[:2])


# ---------------------------------------------------------------------------
# One join per query: the root's generic join carries the projection
# ---------------------------------------------------------------------------
def _projects_below_root(plan) -> bool:
    """Whether a projected variable lives outside the (fused) root."""
    ghd = plan.ghd
    root_chi = set(ghd.root_node.chi)
    if plan.pipelined_child is not None:
        root_chi |= ghd.node(plan.pipelined_child).chi
    return any(v not in root_chi for v in plan.query.projection)


def _plan(catalog, query, config):
    return Planner(config, sketches_of(catalog)).plan(normalize(query))


@pytest.mark.parametrize("shape", [_SPANNING, _GRANDCHILD])
@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_projection_below_root_is_one_join(monkeypatch, config, shape):
    catalog, query = shape
    calls = spy_pairwise_kernels(monkeypatch)
    assert run_query(catalog, query, config) == brute_force(catalog, query)
    assert calls == []


def test_projection_reaches_below_the_root():
    # The shapes above exercise carried nodes, not only single nodes.
    config = OptimizationConfig.all_on()
    for catalog, query in (_SPANNING, _GRANDCHILD):
        assert _projects_below_root(_plan(catalog, query, config))
    plan = _plan(*_GRANDCHILD, config)
    holders = [n for n in plan.ghd.nodes if X in n.chi]
    assert [plan.ghd.depth(n.node_id) for n in holders] == [2]


@pytest.mark.parametrize("limit, offset", [(None, 0), (2, 0), (2, 1)])
@pytest.mark.parametrize("shape", [_SPANNING, _GRANDCHILD])
@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_projection_below_root_streams(config, shape, limit, offset):
    catalog, query = shape
    query = ConjunctiveQuery(
        query.atoms, query.projection, limit=limit, offset=offset
    )
    plan = _plan(catalog, query, config)
    executor = GHDExecutor(catalog)
    stream = executor.execute_iter(plan, chunk_rows=1)
    assert stream is not None
    streamed = [row for chunk in stream for row in chunk.iter_rows()]
    wanted = len(streamed) if limit is None else offset + limit
    assert streamed[:wanted] == list(executor.execute(plan).iter_rows())


LUBM_CARRIED = {
    "all_on": OptimizationConfig.all_on(),
    "baseline_with_ghd": OptimizationConfig.baseline_with_ghd(),
}


@pytest.fixture(scope="module")
def lubm_engines(dataset):
    return {
        name: EmptyHeadedEngine(dataset.store, config)
        for name, config in LUBM_CARRIED.items()
    }


def _engine_plan(engine, text):
    return engine.plan_for(engine.bind(engine.prepare_sparql(text)))


@pytest.mark.parametrize("qid", [4, 8])
@pytest.mark.parametrize("config_name", sorted(LUBM_CARRIED))
def test_lubm_projection_below_root_joins_no_pair(
    lubm_engines, queries, monkeypatch, config_name, qid
):
    engine = lubm_engines[config_name]
    text = queries[qid]
    if (config_name, qid) != ("all_on", 8):  # q8 fits its fused root
        assert _projects_below_root(_engine_plan(engine, text))
    calls = spy_pairwise_kernels(monkeypatch)
    assert engine.execute_sparql(text).num_rows > 0
    assert calls == []


@pytest.mark.parametrize("modifier", [" LIMIT 7", " OFFSET 3 LIMIT 5"])
@pytest.mark.parametrize("qid", [4, 8])
@pytest.mark.parametrize("config_name", sorted(LUBM_CARRIED))
def test_lubm_projection_below_root_streams(
    lubm_engines, queries, config_name, qid, modifier
):
    engine = lubm_engines[config_name]
    text = queries[qid] + modifier
    plan = _engine_plan(engine, text)
    wanted = plan.query.offset + plan.query.limit
    stream = engine.executor.execute_iter(plan, chunk_rows=1)
    assert stream is not None
    streamed = []
    for chunk in stream:
        streamed.extend(chunk.iter_rows())
        if len(streamed) >= wanted:
            break
    stream.close()
    assert streamed[:wanted] == list(
        engine.executor.execute(plan).iter_rows()
    )
    pages = list(engine.execute_iter(engine.prepare_sparql(text)))
    assert [row for page in pages for row in page.iter_rows()] == list(
        engine.execute_sparql(text).iter_rows()
    )
