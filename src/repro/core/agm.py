"""The AGM bound and fractional edge covers (Section II-B).

The AGM bound upper-bounds a join's output size by
``prod_e |R_e| ** x_e`` where ``x`` is a fractional edge cover of the
query's vertices. The tightest bound minimizes the product — a linear
program after taking logs. With unit edge costs the same LP computes the
*fractional edge cover number* rho*, which gives GHD widths: the width of
a node t is the cover number of chi(t) using the node's own edges lambda(t),
and the fractional hypertree width (fhw) is the minimum over GHDs of the
maximum node width. The paper reports fhw = 1.5 for LUBM query 2 — the
triangle's classic bound.

How a cover is solved. The LPs here have a handful of vertices and
edges, so :func:`fractional_edge_cover` solves them exactly in rational
arithmetic rather than calling a numeric solver:

1. *Reduce.* Restrict every edge to the target vertices; drop an edge
   that covers nothing, or whose vertices lie inside another edge that
   costs no more (ties keep the lower index); when a vertex is covered
   by exactly one remaining edge, that edge gets weight 1 and its
   vertices leave the targets. Repeat until nothing changes. Each step
   keeps an optimum when costs are non-negative: weight on a dominated
   edge moves to its dominator at no extra cost, and a forced edge needs
   weight at least 1 and gains nothing above it. Most planning calls end
   here (one atom covering a node's every variable has width 1).
2. *Solve the rest* — the cyclic cores, such as query 2's triangle —
   with a simplex over :class:`fractions.Fraction` on the dual LP
   ``max sum_v y_v`` s.t. ``sum_{v in e} y_v <= c_e``, ``y >= 0``. The
   origin is feasible because ``c >= 0``, so there is no phase 1;
   Bland's rule rules out cycling on the degenerate pivots that zero
   costs cause. At the optimum the slack columns' reduced costs are
   the primal edge weights.

Every step is exact, so the value is the LP optimum rounded once to a
float: widths compare equal without tolerances and the triangle's rho*
is exactly 1.5. Costs must be finite and non-negative (the dual's
feasible start needs it); anything else is a :class:`PlanningError`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from repro.core.hypergraph import Hyperedge
from repro.core.query import Variable
from repro.errors import PlanningError


def fractional_edge_cover(
    vertices: Iterable[Variable],
    edges: Sequence[Hyperedge],
    costs: Sequence[float] | None = None,
) -> tuple[dict[int, float], float]:
    """Solve ``min sum_e cost_e * x_e`` s.t. every vertex is covered.

    ``costs`` defaults to all ones (the rho* LP). Returns the weight per
    edge (keyed by position in ``edges``) and the objective value. Raises
    :class:`PlanningError` when some vertex is not covered by any edge,
    or when a cost is negative or not finite.
    """
    targets = frozenset(vertices)
    if not targets:
        return {}, 0.0
    if costs is None:
        costs = [1] * len(edges)
    if len(costs) != len(edges):
        raise PlanningError("one cost per edge required")
    for cost in costs:
        if not (math.isfinite(cost) and cost >= 0):
            raise PlanningError(
                f"edge costs must be finite and non-negative, got {cost!r}"
            )
    for vertex in sorted(targets):
        if not any(vertex in edge.vertices for edge in edges):
            raise PlanningError(
                f"vertex {vertex!r} is not covered by any available edge"
            )

    exact = [Fraction(cost) for cost in costs]
    weights = [Fraction(0)] * len(edges)
    live = _reduce(targets, [edge.vertices for edge in edges], exact, weights)
    if live:
        order = sorted(live)
        remaining = sorted(frozenset().union(*live.values()))
        solved = _dual_simplex(
            remaining, [live[j] for j in order], [exact[j] for j in order]
        )
        for j, weight in zip(order, solved):
            weights[j] = weight
    value = sum(c * w for c, w in zip(exact, weights))
    return {j: float(w) for j, w in enumerate(weights)}, float(value)


def _reduce(
    targets: frozenset[Variable],
    members: list[frozenset[Variable]],
    costs: list[Fraction],
    weights: list[Fraction],
) -> dict[int, frozenset[Variable]]:
    """Apply the exact reductions; fix forced edges' ``weights`` to 1.

    Returns the surviving edges (position -> vertices still to cover);
    empty when the reductions alone solved the cover.
    """
    live = dict(enumerate(members))
    while True:
        live = {j: vs & targets for j, vs in live.items() if vs & targets}
        live = {
            j: vs
            for j, vs in live.items()
            if not any(
                k != j
                and vs <= other
                and costs[k] <= costs[j]
                and (vs != other or costs[k] != costs[j] or k < j)
                for k, other in live.items()
            )
        }
        holders: dict[Variable, list[int]] = {}
        for j, vs in live.items():
            for vertex in vs:
                holders.setdefault(vertex, []).append(j)
        forced = {js[0] for js in holders.values() if len(js) == 1}
        if not forced:
            return live
        for j in forced:
            weights[j] = Fraction(1)
            targets = targets - live.pop(j)


def _dual_simplex(
    vertices: list[Variable],
    members: list[frozenset[Variable]],
    costs: list[Fraction],
) -> list[Fraction]:
    """Optimal primal weights of the cover LP, one per edge in ``members``.

    Runs the primal simplex on the dual (``max sum y`` s.t.
    ``A y <= c``, ``y >= 0``) from the all-slack basis, with Bland's
    smallest-index rule for both the entering and the leaving variable.
    Columns are the vertices, then one slack per edge; the last entry of
    each row is its right-hand side.
    """
    n, m = len(vertices), len(members)
    zero, one = Fraction(0), Fraction(1)
    rows = [
        [one if v in vs else zero for v in vertices]
        + [one if k == i else zero for k in range(m)]
        + [cost]
        for i, (vs, cost) in enumerate(zip(members, costs))
    ]
    objective = [-one] * n + [zero] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        entering = next(
            (j for j in range(n + m) if objective[j] < 0), None
        )
        if entering is None:
            return objective[n : n + m]
        # Every vertex lies in some edge, so the primal is feasible and
        # the dual bounded: the entering column has a positive entry.
        leaving = min(
            (i for i in range(m) if rows[i][entering] > 0),
            key=lambda i: (rows[i][-1] / rows[i][entering], basis[i]),
        )
        pivot_row = rows[leaving]
        pivot = pivot_row[entering]
        pivot_row[:] = [a / pivot for a in pivot_row]
        for row in (*rows, objective):
            factor = row[entering]
            if row is not pivot_row and factor:
                row[:] = [a - factor * b for a, b in zip(row, pivot_row)]
        basis[leaving] = entering


def cover_number(
    vertices: Iterable[Variable], edges: Sequence[Hyperedge]
) -> float:
    """The fractional edge cover number rho* of ``vertices`` via ``edges``."""
    _, value = fractional_edge_cover(vertices, edges)
    return value


def agm_bound(
    edges: Sequence[Hyperedge],
    edge_sizes: Mapping[int, int],
    vertices: Iterable[Variable] | None = None,
) -> float:
    """The tightest AGM output-size bound ``prod |R_e| ** x_e``.

    ``edge_sizes`` maps edge *positions* to relation cardinalities, which
    must be finite and non-negative (:class:`PlanningError` otherwise).
    ``vertices`` defaults to the union of all edge vertices.
    """
    if vertices is None:
        all_vertices: set[Variable] = set()
        for edge in edges:
            all_vertices.update(edge.vertices)
        vertices = all_vertices
    sizes = [edge_sizes[j] for j in range(len(edges))]
    for size in sizes:
        if not (math.isfinite(size) and size >= 0):
            raise PlanningError(
                f"relation sizes must be finite and non-negative, got {size!r}"
            )
    # An empty relation makes the join empty; the bound is 0.
    if 0 in sizes:
        return 0.0
    _, objective = fractional_edge_cover(
        vertices, edges, [math.log(size) for size in sizes]
    )
    return math.exp(objective)
