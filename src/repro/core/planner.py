"""Query planner: query -> (GHD, global attribute order, pipelining).

Ties together the GHD optimizer, the attribute order (the sketch-bound
search under +Attribute, appearance order otherwise), and the
pipelineability rule (Definition 2) under one :class:`OptimizationConfig`.
The resulting :class:`Plan` is interpreted by
:class:`~repro.core.executor.GHDExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attribute_order import appearance_order, node_attribute_order
from repro.core.bounds import bound_attribute_order, selection_counts
from repro.core.config import OptimizationConfig
from repro.core.ghd import GHD
from repro.core.ghd_optimizer import GHDOptimizer
from repro.core.hypergraph import Hypergraph
from repro.core.query import (
    ConjunctiveQuery,
    NormalizedQuery,
    Variable,
    normalize,
)
from repro.core.sketch import TableSketches


@dataclass
class Plan:
    """An executable GHD plan."""

    query: NormalizedQuery
    ghd: GHD
    global_order: list[Variable]
    node_orders: dict[int, list[Variable]] = field(default_factory=dict)
    pipelined_child: int | None = None
    width: float = 0.0
    config: OptimizationConfig = field(default_factory=OptimizationConfig)
    #: Per-variable pessimistic extension bounds under ``global_order``
    #: (empty without +Attribute, whose order search computes them).
    bounds: dict[Variable, int] = field(default_factory=dict)
    #: Sketched frequency of each selection value at plan time — the
    #: selectivity assumption per-value re-optimization checks against.
    assumed_counts: dict[Variable, int] = field(default_factory=dict)

    def unselected_node_order(self, node_id: int) -> list[Variable]:
        """A node's attribute order without its selection variables."""
        return [
            v
            for v in self.node_orders[node_id]
            if v not in self.query.selections
        ]

    def explain(self) -> str:
        """Human-readable plan description (for docs and debugging)."""
        lines = [f"plan for {self.query.name}"]
        lines.append(
            "global order: ["
            + ", ".join(v.name for v in self.global_order)
            + "]"
        )
        lines.append(f"width: {self.width:.2f}")
        if self.bounds:
            lines.append(
                "bounds: "
                + "  ".join(
                    f"{v.name}<={'?' if bound >= 1 << 62 else bound}"
                    for v, bound in (
                        (v, self.bounds[v])
                        for v in self.global_order
                        if v in self.bounds
                    )
                )
            )
        if self.query.limit is not None or self.query.offset:
            limit = "-" if self.query.limit is None else self.query.limit
            lines.append(f"limit: {limit} offset: {self.query.offset}")
        if self.pipelined_child is not None:
            lines.append(f"pipelined child: node {self.pipelined_child}")

        def render(node_id: int, indent: int) -> None:
            node = self.ghd.node(node_id)
            order = ", ".join(v.name for v in self.node_orders[node_id])
            atoms = ", ".join(
                repr(self.query.atoms[i]) for i in node.atom_indices
            )
            lines.append("  " * indent + f"node {node_id} [{order}]: {atoms}")
            for child in node.children:
                render(child, indent + 1)

        render(self.ghd.root, 0)
        return "\n".join(lines)


class Planner:
    """Produces :class:`Plan`s according to an optimization config.

    Planning reads only the frequency ``sketches`` (never the catalog's
    columns): with +Attribute the order is the minimum-bound search of
    :mod:`repro.core.bounds`, without it the GHD's appearance order.
    """

    def __init__(
        self, config: OptimizationConfig, sketches: TableSketches
    ) -> None:
        self.config = config
        self.sketches = sketches
        self._ghd_optimizer = GHDOptimizer(config)

    def plan(self, query: ConjunctiveQuery | NormalizedQuery) -> Plan:
        """Plan a query whose constants are already dictionary-encoded."""
        if isinstance(query, ConjunctiveQuery):
            normalized = normalize(query)
        else:
            normalized = query
        hypergraph = Hypergraph.from_query(normalized)
        ghd = self._ghd_optimizer.decompose(normalized, hypergraph)
        bounds: dict[Variable, int] = {}
        assumed: dict[Variable, int] = {}
        if self.config.reorder_selections:
            order, bounds = bound_attribute_order(
                normalized, ghd, self.sketches
            )
            assumed = selection_counts(normalized, self.sketches)
        else:
            order = appearance_order(normalized, ghd)
        node_orders = {
            node.node_id: node_attribute_order(node.chi, order)
            for node in ghd.nodes
        }
        plan = Plan(
            query=normalized,
            ghd=ghd,
            global_order=order,
            node_orders=node_orders,
            width=ghd.width(hypergraph),
            config=self.config,
            bounds=bounds,
            assumed_counts=assumed,
        )
        if self.config.pipelining:
            plan.pipelined_child = self._choose_pipelined_child(plan)
        return plan

    def _choose_pipelined_child(self, plan: Plan) -> int | None:
        """Definition 2: the root can fuse with one child when their
        shared attributes are a prefix of both nodes' trie orders."""
        root = plan.ghd.root_node
        if not root.children:
            return None
        root_order = plan.unselected_node_order(root.node_id)
        best: tuple[int, int] | None = None
        for child_id in root.children:
            child_order = plan.unselected_node_order(child_id)
            shared = [v for v in root_order if v in set(child_order)]
            if not shared:
                continue
            k = len(shared)
            if root_order[:k] != shared or child_order[:k] != shared:
                continue
            # Prefer the child with the largest subtree: fusing it avoids
            # the biggest materialization.
            subtree = self._subtree_size(plan.ghd, child_id)
            if best is None or subtree > best[0]:
                best = (subtree, child_id)
        return best[1] if best else None

    @staticmethod
    def _subtree_size(ghd: GHD, node_id: int) -> int:
        total = 0
        stack = [node_id]
        while stack:
            node = ghd.node(stack.pop())
            total += len(node.atom_indices)
            stack.extend(node.children)
        return total
