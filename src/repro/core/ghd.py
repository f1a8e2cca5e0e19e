"""Generalized hypertree decompositions (Definition 1 of the paper).

A GHD of a query hypergraph is a tree whose nodes each carry a set of
vertices ``chi(t)`` and a set of hyperedges ``lambda(t)`` such that

1. every hyperedge is contained in some node's ``chi``,
2. the nodes containing any given vertex form a connected subtree
   (the *running intersection property*),
3. every node's ``chi(t)`` is covered by its ``lambda(t)``.

We represent GHDs as rooted trees because the paper's execution model is
rooted: Algorithm 1 runs bottom-up over nodes, and the root's join
yields the final result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.agm import cover_number
from repro.core.hypergraph import Hypergraph
from repro.core.query import Variable
from repro.errors import PlanningError


@dataclass
class GHDNode:
    """One GHD node: ``chi`` vertices, ``lambda`` atoms, tree links."""

    node_id: int
    chi: frozenset[Variable]
    atom_indices: tuple[int, ...]
    parent: int | None = None
    children: list[int] = field(default_factory=list)

    def __repr__(self) -> str:
        names = ",".join(sorted(v.name for v in self.chi))
        return f"GHDNode#{self.node_id}(chi={{{names}}}, atoms={self.atom_indices})"


@dataclass
class GHD:
    """A rooted GHD over a query hypergraph."""

    nodes: list[GHDNode]
    root: int

    def node(self, node_id: int) -> GHDNode:
        return self.nodes[node_id]

    @property
    def root_node(self) -> GHDNode:
        return self.nodes[self.root]

    def depth(self, node_id: int) -> int:
        """Distance from ``node_id`` to the root."""
        depth = 0
        current = self.nodes[node_id]
        while current.parent is not None:
            current = self.nodes[current.parent]
            depth += 1
        return depth

    @property
    def height(self) -> int:
        """Longest root-to-leaf distance."""
        return max(self.depth(n.node_id) for n in self.nodes)

    def preorder(self) -> list[GHDNode]:
        """Root-first traversal (children in insertion order)."""
        result: list[GHDNode] = []
        stack = [self.root]
        while stack:
            node = self.nodes[stack.pop()]
            result.append(node)
            stack.extend(reversed(node.children))
        return result

    def postorder(self) -> list[GHDNode]:
        """Children-before-parents traversal (bottom-up execution order)."""
        return list(reversed(self.bfs_order()))

    def bfs_order(self) -> list[GHDNode]:
        """Breadth-first traversal, used for the global attribute order."""
        result: list[GHDNode] = []
        queue = [self.root]
        while queue:
            node = self.nodes[queue.pop(0)]
            result.append(node)
            queue.extend(node.children)
        return result

    # ------------------------------------------------------------------
    # Validity (Definition 1) and width
    # ------------------------------------------------------------------
    def check_valid(self, hypergraph: Hypergraph) -> None:
        """Raise :class:`PlanningError` on any Definition 1 violation."""
        # Tree shape: exactly one root, parents consistent with children.
        roots = [n for n in self.nodes if n.parent is None]
        if len(roots) != 1 or roots[0].node_id != self.root:
            raise PlanningError("GHD is not a tree rooted at its root node")
        for node in self.nodes:
            for child_id in node.children:
                if self.nodes[child_id].parent != node.node_id:
                    raise PlanningError("GHD child/parent links inconsistent")
        if len(self.preorder()) != len(self.nodes):
            raise PlanningError("GHD tree does not reach all nodes")

        # Property 1: every edge is covered by some node's chi.
        for edge in hypergraph.edges:
            if not any(edge.vertices <= node.chi for node in self.nodes):
                raise PlanningError(f"edge {edge!r} not covered by any node")

        # Property 2: running intersection.
        for vertex in hypergraph.vertices:
            holders = [n.node_id for n in self.nodes if vertex in n.chi]
            if not holders:
                raise PlanningError(f"vertex {vertex!r} missing from GHD")
            if not self._connected_in_tree(holders):
                raise PlanningError(
                    f"nodes containing {vertex!r} are not connected"
                )

        # Properties 3/4: chi covered by lambda's vertices.
        for node in self.nodes:
            covered: set[Variable] = set()
            for atom_index in node.atom_indices:
                covered.update(hypergraph.edges[atom_index].vertices)
            if not node.chi <= covered:
                raise PlanningError(
                    f"node {node!r}: chi not covered by lambda"
                )

    def _connected_in_tree(self, node_ids: list[int]) -> bool:
        targets = set(node_ids)
        # The minimal subtree containing `targets` is connected iff walking
        # up from every target to the root, the first *target* ancestor
        # reached forms a single connected cluster. Simpler check: count
        # connected components among targets via tree adjacency.
        seen: set[int] = set()
        stack = [node_ids[0]]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            node = self.nodes[current]
            neighbors = list(node.children)
            if node.parent is not None:
                neighbors.append(node.parent)
            for neighbor in neighbors:
                if neighbor in targets and neighbor not in seen:
                    stack.append(neighbor)
        return targets <= seen

    def node_width(
        self,
        node: GHDNode,
        hypergraph: Hypergraph,
        cover_vertices: frozenset[Variable] | None = None,
    ) -> float:
        """Fractional width of one node: rho* of its chi via its lambda.

        ``cover_vertices`` restricts which vertices must be covered — the
        +GHD optimization computes widths over unselected attributes only
        (step 1 in Section III-B2).
        """
        vertices = node.chi if cover_vertices is None else node.chi & cover_vertices
        if not vertices:
            return 0.0
        edges = [hypergraph.edges[i] for i in node.atom_indices]
        return cover_number(vertices, edges)

    def width(
        self,
        hypergraph: Hypergraph,
        cover_vertices: frozenset[Variable] | None = None,
    ) -> float:
        """The GHD's fractional width: max node width."""
        return max(
            self.node_width(node, hypergraph, cover_vertices)
            for node in self.nodes
        )

    def selection_depth(self, selection_vars: set[Variable]) -> int:
        """Sum of distances from selection-carrying nodes to the root.

        Each selection variable is counted once, at the deepest node whose
        ``chi`` contains it (the node where the selection is applied).
        """
        total = 0
        for var in selection_vars:
            depths = [
                self.depth(n.node_id) for n in self.nodes if var in n.chi
            ]
            if depths:
                total += max(depths)
        return total

    def __repr__(self) -> str:
        lines: list[str] = []

        def render(node_id: int, indent: int) -> None:
            node = self.nodes[node_id]
            names = ",".join(sorted(v.name for v in node.chi))
            lines.append(
                "  " * indent
                + f"[{{{names}}} atoms={list(node.atom_indices)}]"
            )
            for child in node.children:
                render(child, indent + 1)

        render(self.root, 0)
        return "GHD\n" + "\n".join(lines)
