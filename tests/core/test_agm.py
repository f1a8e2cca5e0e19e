"""AGM bound and fractional edge covers (Section II-B)."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.agm import agm_bound, cover_number, fractional_edge_cover
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.query import Atom, ConjunctiveQuery, Variable, normalize
from repro.errors import PlanningError

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def _edges(*atoms):
    q = normalize(
        ConjunctiveQuery(
            tuple(atoms),
            tuple(sorted({v for a in atoms for v in a.variables},
                         key=lambda v: v.name)),
        )
    )
    return Hypergraph.from_query(q).edges


def test_triangle_cover_number_is_1_5():
    """The classic result: the triangle's fractional edge cover number
    is 3/2, giving the O(N^{3/2}) bound of Section I."""
    edges = _edges(
        Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, X))
    )
    assert cover_number({X, Y, Z}, edges) == pytest.approx(1.5)


def test_triangle_cover_weights_are_half_each():
    edges = _edges(
        Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, X))
    )
    weights, value = fractional_edge_cover({X, Y, Z}, edges)
    assert value == pytest.approx(1.5)
    for w in weights.values():
        assert w == pytest.approx(0.5)


def test_single_edge_cover_is_one():
    edges = _edges(Atom("r", (X, Y)))
    assert cover_number({X, Y}, edges) == pytest.approx(1.0)


def test_path_cover_is_two():
    edges = _edges(Atom("r", (X, Y)), Atom("s", (Y, Z)))
    assert cover_number({X, Y, Z}, edges) == pytest.approx(2.0)


def test_partial_cover_subset():
    edges = _edges(Atom("r", (X, Y)), Atom("s", (Y, Z)))
    assert cover_number({Y}, edges) == pytest.approx(1.0)
    assert cover_number(set(), edges) == pytest.approx(0.0)


def test_uncovered_vertex_raises():
    edges = _edges(Atom("r", (X, Y)))
    with pytest.raises(PlanningError):
        cover_number({Z}, edges)


def test_no_edges_raises():
    with pytest.raises(PlanningError):
        cover_number({X}, [])


def test_agm_bound_triangle():
    """AGM bound for a triangle over three N-row relations is N^{3/2}."""
    edges = _edges(
        Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, X))
    )
    n = 10_000
    bound = agm_bound(edges, {0: n, 1: n, 2: n})
    assert bound == pytest.approx(n ** 1.5, rel=1e-6)


def test_agm_bound_uses_cheapest_cover():
    """With one tiny relation covering everything, the bound follows it."""
    edges = _edges(Atom("big", (X, Y)), Atom("small", (X, Y)))
    bound = agm_bound(edges, {0: 10**9, 1: 10})
    assert bound == pytest.approx(10.0, rel=1e-6)


def test_agm_bound_zero_for_empty_relation():
    edges = _edges(Atom("r", (X, Y)), Atom("s", (Y, Z)))
    assert agm_bound(edges, {0: 0, 1: 100}) == 0.0


def test_agm_bound_cartesian_product():
    edges = _edges(Atom("r", (X,)), Atom("s", (Y,)))
    bound = agm_bound(edges, {0: 30, 1: 40})
    assert bound == pytest.approx(1200.0, rel=1e-6)


def test_agm_bound_dominates_true_output_on_triangle():
    """The bound is an upper bound: check against a worst-case instance
    (complete bipartite-style star) where triangle output is maximal."""
    import itertools

    k = 8
    pairs = list(itertools.product(range(k), range(k)))
    n = len(pairs)
    true_triangles = sum(
        1
        for (a, b) in pairs
        for c in range(k)
        if (b, c) in set(pairs) and (c, a) in set(pairs)
    )
    edges = _edges(
        Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("t", (Z, X))
    )
    bound = agm_bound(edges, {0: n, 1: n, 2: n})
    # The bound is exactly tight on this instance; allow LP epsilon.
    assert bound * (1 + 1e-9) >= true_triangles
    assert bound == pytest.approx(math.pow(n, 1.5), rel=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_invalid_cost_raises_planning_error(bad):
    """Costs are checked before solving: the dual simplex starts from
    the origin, which is feasible only when every cost is >= 0."""
    edges = _edges(Atom("r", (X, Y)), Atom("s", (Y, Z)))
    with pytest.raises(PlanningError, match="finite and non-negative"):
        fractional_edge_cover({X, Y, Z}, edges, [1.0, bad])


@pytest.mark.parametrize("bad", [-5, math.nan, math.inf])
def test_invalid_relation_size_raises_planning_error(bad):
    edges = _edges(Atom("r", (X, Y)), Atom("s", (Y, Z)))
    with pytest.raises(PlanningError, match="finite and non-negative"):
        agm_bound(edges, {0: 10, 1: bad})


# ----------------------------------------------------------------------
# The solver against an independent exact oracle
# ----------------------------------------------------------------------
def _solve_square(matrix):
    """Solve ``matrix @ x = 1`` exactly by Gauss-Jordan; None if singular."""
    k = len(matrix)
    aug = [list(row) + [Fraction(1)] for row in matrix]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][k] / aug[r][r] for r in range(k)]


def _oracle_cover(targets, members, costs):
    """The LP optimum of ``min c.x`` s.t. ``A x >= 1``, ``x >= 0``.

    With ``c >= 0`` the optimum is attained at a basic feasible
    solution: some edges at zero, and as many covering rows as there are
    free edges tight in a nonsingular square system. Enumerate every
    such choice, solve it in ``Fraction``, keep the cheapest feasible.
    """
    rows = [[Fraction(v in vs) for vs in members] for v in targets]
    m = len(members)
    best = None
    for k in range(1, m + 1):
        for free in itertools.combinations(range(m), k):
            for tight in itertools.combinations(range(len(rows)), k):
                x = _solve_square([[rows[r][j] for j in free] for r in tight])
                if x is None or any(value < 0 for value in x):
                    continue
                weights = [Fraction(0)] * m
                for j, value in zip(free, x):
                    weights[j] = value
                if any(
                    sum(a * w for a, w in zip(row, weights)) < 1 for row in rows
                ):
                    continue
                cost = sum(c * w for c, w in zip(costs, weights))
                best = cost if best is None else min(best, cost)
    return best


def _check_against_oracle(targets, edges, costs):
    """The solver's value equals the oracle's exactly, and its weights
    are a feasible cover whose cost is that value."""
    weights, value = fractional_edge_cover(targets, edges, costs)
    unit = [1] * len(edges) if costs is None else costs
    best = _oracle_cover(
        sorted(targets),
        [edge.vertices for edge in edges],
        [Fraction(c) for c in unit],
    )
    assert value == float(best)
    assert sorted(weights) == list(range(len(edges)))
    assert all(w >= 0 for w in weights.values())
    for vertex in targets:
        covered = sum(
            weights[j] for j, edge in enumerate(edges) if vertex in edge.vertices
        )
        assert covered >= 1 - 1e-9
    cost = sum(c * weights[j] for j, c in enumerate(unit))
    assert cost == pytest.approx(value, rel=1e-9, abs=1e-12)
    return value


_A, _B, _C, _D = (Variable(name) for name in "abcd")


def _hyperedges(*members):
    return [
        Hyperedge(atom_index=i, relation=f"r{i}", vertices=frozenset(vs))
        for i, vs in enumerate(members)
    ]


@pytest.mark.parametrize(
    "members, costs, expected",
    [
        pytest.param([{_C, _A}, {_C, _B}, {_C, _D}], None, 3, id="star"),
        pytest.param(
            [{_A, _B}, {_B, _C}, {_C, _D}, {_D, _A}], None, 2, id="4-cycle"
        ),
        pytest.param(
            [set(pair) for pair in itertools.combinations([_A, _B, _C, _D], 2)],
            None,
            2,
            id="K4",
        ),
        pytest.param(
            [{_A, _B}, {_A, _B}, {_B, _C}, {_C, _A}],
            None,
            1.5,
            id="duplicate-edges",
        ),
        pytest.param(
            [{_A}, {_A, _B}, {_B, _C}, {_C, _A}], None, 1.5, id="nested-edges"
        ),
        pytest.param(
            [{_A, _B}, {_B, _C}, {_C, _A}], [0, 1, 1], 1, id="zero-cost-edge"
        ),
    ],
)
def test_named_cover_numbers(members, costs, expected):
    edges = _hyperedges(*members)
    targets = frozenset().union(*members)
    assert _check_against_oracle(targets, edges, costs) == expected


_COST = st.one_of(
    st.sampled_from([0, 1, 2, 0.5]),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)


@st.composite
def _cover_instances(draw):
    """<= 5 vertices, <= 5 edges, targets inside the edges' union."""
    vertices = [Variable(f"v{i}") for i in range(draw(st.integers(1, 5)))]
    members = draw(
        st.lists(
            st.frozensets(st.sampled_from(vertices), min_size=1),
            min_size=1,
            max_size=5,
        )
    )
    covered = sorted(frozenset().union(*members))
    targets = draw(st.frozensets(st.sampled_from(covered), min_size=1))
    size = len(members)
    costs = draw(st.none() | st.lists(_COST, min_size=size, max_size=size))
    return targets, _hyperedges(*members), costs


@given(_cover_instances())
@settings(max_examples=200)
def test_cover_matches_exact_oracle(instance):
    _check_against_oracle(*instance)


def test_import_loads_no_scipy():
    """numpy is the only numeric dependency: importing the library and
    every serving entry point loads no scipy module (CI installs none),
    and so no process pays its import time or memory."""
    code = (
        "import sys, repro, repro.service.http, repro.service.cluster, "
        "repro.distributed\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "[]"
