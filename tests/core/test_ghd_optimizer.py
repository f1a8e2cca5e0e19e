"""GHD enumeration and selection criteria."""

import pytest

from repro.core.config import OptimizationConfig
from repro.core.ghd_optimizer import GHDOptimizer, prufer_trees, set_partitions
from repro.core.hypergraph import Hypergraph
from repro.core.query import Atom, ConjunctiveQuery, Variable, normalize

X, Y, Z, W = (Variable(n) for n in "xyzw")


def _query(*atoms, projection=None):
    projection = projection or tuple(
        sorted({v for a in atoms for v in a.variables}, key=lambda v: v.name)
    )
    return normalize(ConjunctiveQuery(tuple(atoms), projection))


def test_set_partitions_bell_numbers():
    assert len(set_partitions([1])) == 1
    assert len(set_partitions([1, 2])) == 2
    assert len(set_partitions([1, 2, 3])) == 5
    assert len(set_partitions([1, 2, 3, 4])) == 15
    assert len(set_partitions(list(range(6)))) == 203


def test_prufer_cayley_counts():
    assert len(prufer_trees(1)) == 1
    assert len(prufer_trees(2)) == 1
    assert len(prufer_trees(3)) == 3
    assert len(prufer_trees(4)) == 16
    # Every decoded edge list is a tree: k-1 edges, connected.
    for edges in prufer_trees(4):
        assert len(edges) == 3
        nodes = {n for e in edges for n in e}
        assert nodes == set(range(4))


def test_triangle_gets_single_node():
    query = _query(Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, X)))
    ghd = GHDOptimizer().decompose(query)
    # The triangle cannot be decomposed; it lives in one node of width 1.5.
    triangle_nodes = [n for n in ghd.nodes if len(n.atom_indices) == 3]
    assert len(triangle_nodes) == 1
    assert ghd.width(Hypergraph.from_query(query)) == pytest.approx(1.5)


def test_path_splits_into_width_one_nodes():
    query = _query(Atom("r", (X, Y)), Atom("s", (Y, Z)))
    ghd = GHDOptimizer().decompose(query)
    assert len(ghd.nodes) == 2
    assert ghd.width(Hypergraph.from_query(query)) == pytest.approx(1.0)


def test_single_atom_single_node():
    query = _query(Atom("r", (X, Y)))
    ghd = GHDOptimizer().decompose(query)
    assert len(ghd.nodes) == 1
    assert ghd.nodes[0].atom_indices == (0,)


def test_fhw_triangle():
    query = _query(Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, X)))
    assert GHDOptimizer().fhw(query) == pytest.approx(1.5)


def test_fhw_acyclic_is_one():
    query = _query(Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, W)))
    assert GHDOptimizer().fhw(query) == pytest.approx(1.0)


def test_decomposition_does_not_depend_on_earlier_queries():
    """Atom indices name atoms of one query only: planning the triangle
    first must not leak its widths into a query whose third atom covers
    every variable (one width-1 node, as a fresh optimizer finds)."""

    def shape(ghd):
        return ghd.root, [
            (n.chi, n.atom_indices, n.parent, n.children) for n in ghd.nodes
        ]

    triangle = _query(
        Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, X))
    )
    covered = _query(
        Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("u", (X, Y, Z))
    )
    fresh = GHDOptimizer().decompose(covered)
    assert len(fresh.nodes) == 1
    optimizer = GHDOptimizer()
    optimizer.decompose(triangle)
    assert shape(optimizer.decompose(covered)) == shape(fresh)
    assert optimizer.fhw(covered) == pytest.approx(1.0)


def test_single_node_mode():
    config = OptimizationConfig.all_off()
    query = _query(Atom("r", (X, Y)), Atom("s", (Y, Z)))
    ghd = GHDOptimizer(config).decompose(query)
    assert len(ghd.nodes) == 1
    assert ghd.nodes[0].atom_indices == (0, 1)


def test_every_emitted_ghd_is_valid():
    queries = [
        _query(Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, X))),
        _query(Atom("r", (X, Y)), Atom("s", (X, Z)), Atom("t", (X, W))),
        _query(Atom("r", (X, Y))),
        _query(
            Atom("r", (X, Y)),
            Atom("s", (Y, Z)),
            Atom("t", (Z, W)),
            Atom("u", (W, X)),
        ),
    ]
    for config in (
        OptimizationConfig.all_on(),
        OptimizationConfig.baseline_with_ghd(),
        OptimizationConfig.all_off(),
    ):
        for query in queries:
            ghd = GHDOptimizer(config).decompose(query)
            ghd.check_valid(Hypergraph.from_query(query))


def test_four_cycle_width():
    query = _query(
        Atom("r", (X, Y)),
        Atom("s", (Y, Z)),
        Atom("t", (Z, W)),
        Atom("u", (W, X)),
    )
    # fhw of a 4-cycle is 2 under edge-partition decompositions.
    fhw = GHDOptimizer().fhw(query)
    assert fhw == pytest.approx(2.0)


def test_selection_pushdown_places_selected_atoms_deepest():
    from repro.core.query import Constant

    # R(x,y1), S(x,a=c), T(x,b=c), U(x,y2), V(x,y3) — LUBM query 4's shape.
    y1, y2, y3 = Variable("y1"), Variable("y2"), Variable("y3")
    query = normalize(
        ConjunctiveQuery(
            (
                Atom("r", (X, y1)),
                Atom("s", (X, Constant(1))),
                Atom("t", (X, Constant(2))),
                Atom("u", (X, y2)),
                Atom("v", (X, y3)),
            ),
            (X, y1, y2, y3),
        )
    )
    on = GHDOptimizer(OptimizationConfig.all_on()).decompose(query)
    off = GHDOptimizer(
        OptimizationConfig.all_on().but(ghd_selection_pushdown=False)
    ).decompose(query)
    sel_vars = set(query.selections)
    assert on.selection_depth(sel_vars) > off.selection_depth(sel_vars)


def test_pushdown_retries_with_merged_base_when_rip_breaks():
    """A selected ternary atom whose two unselected variables live in
    *different* nodes of the min-width base used to abandon pushdown;
    the optimizer now re-decomposes with a must-cover constraint so one
    (wider) base node hosts the selected atom."""
    from repro.core.query import Constant

    query = _query(
        Atom("r", (X, Z)),
        Atom("q", (Y, Z)),
        Atom("t", (X, Y, Constant(5))),
    )
    ghd = GHDOptimizer(OptimizationConfig.all_on()).decompose(query)
    sel_vars = set(query.selections)
    # The selected atom is pushed strictly below a base node covering
    # both of its unselected variables.
    assert ghd.selection_depth(sel_vars) >= 1
    selected_nodes = [n for n in ghd.nodes if sel_vars & n.chi]
    assert len(selected_nodes) == 1
    (node,) = selected_nodes
    assert node.parent is not None
    host = ghd.nodes[node.parent]
    assert {X, Y} <= host.chi


def test_pushdown_merged_base_still_beaten_by_plain_attach():
    """Shapes where plain attach already satisfies running intersection
    never take the merged-base retry (the base keeps min width)."""
    from repro.core.query import Constant

    query = _query(
        Atom("r", (X, Y)),
        Atom("s", (Y, Z)),
        Atom("t", (Y, Constant(3))),
    )
    ghd = GHDOptimizer(OptimizationConfig.all_on()).decompose(query)
    hypergraph = Hypergraph.from_query(query)
    assert ghd.width(hypergraph) == pytest.approx(1.0)
    assert ghd.selection_depth(set(query.selections)) >= 1


def test_pushdown_falls_back_when_merging_cannot_help():
    """Selected atoms sharing a variable no unselected atom holds still
    fall back to the baseline decomposition (and stay valid)."""
    from repro.core.query import Constant

    w = Variable("w")
    query = _query(
        Atom("r", (X, Z)),
        Atom("q", (Y, Z)),
        Atom("t", (X, Y, Constant(5))),
        Atom("u", (X, Y, w, Constant(6))),
    )
    ghd = GHDOptimizer(OptimizationConfig.all_on()).decompose(query)
    ghd.check_valid(Hypergraph.from_query(query))
