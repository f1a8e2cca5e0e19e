"""GHD executor: end-to-end correctness on hand-built catalogs."""

import pytest

from repro.core.config import OptimizationConfig
from repro.core.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
)
from tests.util import brute_force, catalog_of, run_query, sketches_of

X, Y, Z, W = (Variable(n) for n in "xyzw")

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
    """Top-down Yannakakis pass must materialize attributes from leaves."""
    catalog = catalog_of(
        {
            "r": [(0, 1), (0, 2), (1, 3)],
            "s": [(0, 5), (1, 6)],
            "t": [(5, 9), (6, 8)],
        }
    )
    query = ConjunctiveQuery(
        (Atom("r", (X, Y)), Atom("s", (X, Z)), Atom("t", (Z, W))),
        (Y, W),
    )
    assert run_query(catalog, query, config) == brute_force(catalog, query)


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
