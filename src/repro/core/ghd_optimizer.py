"""GHD enumeration and selection (Sections II-C and III-B2).

The baseline optimizer enumerates all GHDs and keeps the one with the
lowest fractional width, breaking ties by smallest height — exactly the
criteria the paper states for EmptyHeaded.

Enumeration strategy: every GHD we consider assigns each atom to exactly
one node (a set partition of the atoms), with ``chi(t)`` equal to the
variables of ``lambda(t)``; trees over the blocks are enumerated via
Prüfer sequences and kept when they satisfy the running intersection
property. Widths depend only on the partition, so partitions are scored
first and only minimum-width partitions have their trees expanded.

The +GHD optimization ("pushing down selections across nodes") follows
the paper's three steps:

1. enumerate GHDs over the *unselected* relations only, with node widths
   computed over unselected attributes;
2. attach each selected relation below the deepest node whose ``chi``
   covers its unselected attributes (selected relations may stack below
   one another, reproducing Figure 3's chain);
3. among the minimum-width candidates, choose the GHD with maximal
   *selection depth* — the sum of distances from selections to the root.
"""

from __future__ import annotations

import heapq
from itertools import product

from repro.core.agm import cover_number
from repro.core.config import OptimizationConfig
from repro.core.ghd import GHD, GHDNode
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.query import NormalizedQuery, Variable
from repro.errors import PlanningError

MAX_ENUMERATED_BLOCKS = 7
"""Prüfer enumeration is k^(k-2) trees; above this we fall back to a
single-node decomposition (never reached by LUBM's <= 6-atom queries)."""


def set_partitions(items: list[int]) -> list[list[list[int]]]:
    """All set partitions of ``items`` (Bell-number many)."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    partitions: list[list[list[int]]] = []
    for sub in set_partitions(rest):
        # Put `first` into each existing block, or into a new block.
        for i in range(len(sub)):
            partitions.append(sub[:i] + [[first] + sub[i]] + sub[i + 1 :])
        partitions.append([[first]] + sub)
    return partitions


def prufer_trees(k: int) -> list[list[tuple[int, int]]]:
    """All labeled trees on ``k`` nodes as edge lists (Prüfer decoding)."""
    if k == 1:
        return [[]]
    if k == 2:
        return [[(0, 1)]]
    trees: list[list[tuple[int, int]]] = []
    for sequence in product(range(k), repeat=k - 2):
        degrees = [1] * k
        for node in sequence:
            degrees[node] += 1
        heap = [i for i in range(k) if degrees[i] == 1]
        heapq.heapify(heap)
        edges: list[tuple[int, int]] = []
        for node in sequence:
            leaf = heapq.heappop(heap)
            edges.append((leaf, node))
            degrees[node] -= 1
            if degrees[node] == 1:
                heapq.heappush(heap, node)
        first = heapq.heappop(heap)
        second = heapq.heappop(heap)
        edges.append((first, second))
        trees.append(edges)
    return trees


class GHDOptimizer:
    """Enumerates GHDs and picks the paper's preferred decomposition."""

    def __init__(self, config: OptimizationConfig | None = None) -> None:
        self.config = config if config is not None else OptimizationConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def decompose(
        self, query: NormalizedQuery, hypergraph: Hypergraph | None = None
    ) -> GHD:
        """The chosen GHD for ``query`` under this optimizer's config."""
        hypergraph = hypergraph or Hypergraph.from_query(query)
        if not self.config.use_ghd:
            ghd = self._single_node(query)
        elif self.config.ghd_selection_pushdown:
            ghd = self._decompose_with_pushdown(query, hypergraph)
        else:
            ghd = self._best_over(
                query, list(range(len(query.atoms))), cover_restriction=None
            )
        ghd.check_valid(hypergraph)
        return ghd

    def fhw(self, query: NormalizedQuery) -> float:
        """The fractional hypertree width of the query's hypergraph."""
        ghd = self._best_over(
            query, list(range(len(query.atoms))), cover_restriction=None
        )
        return ghd.width(Hypergraph.from_query(query))

    # ------------------------------------------------------------------
    # Baseline enumeration: min width, then min height
    # ------------------------------------------------------------------
    def _single_node(self, query: NormalizedQuery) -> GHD:
        chi = frozenset(query.variables())
        node = GHDNode(
            node_id=0, chi=chi, atom_indices=tuple(range(len(query.atoms)))
        )
        return GHD(nodes=[node], root=0)

    @staticmethod
    def _node_width(
        edges: tuple[Hyperedge, ...],
        atom_indices: tuple[int, ...],
        cover_restriction: frozenset[Variable] | None,
    ) -> float:
        """rho* of the block's variables (restricted) via its own edges."""
        block = [edges[i] for i in atom_indices]
        chi = frozenset().union(*(edge.vertices for edge in block))
        targets = chi if cover_restriction is None else chi & cover_restriction
        return cover_number(targets, block)

    def _candidates_over(
        self,
        query: NormalizedQuery,
        atom_indices: list[int],
        cover_restriction: frozenset[Variable] | None,
        must_cover: tuple[frozenset[Variable], ...] = (),
    ) -> tuple[float, list[GHD]]:
        """All min-width rooted GHDs whose nodes partition ``atom_indices``.

        ``must_cover`` constrains the admissible partitions: each group
        must be a subset of some block's variables (the pushdown retry
        uses this to force a single node to cover every unselected
        variable of a selected atom that otherwise breaks the running
        intersection property). The all-atoms-in-one-block partition
        covers any group drawn from the atoms' variables, so the
        constraint never empties the candidate set.
        """
        if not atom_indices:
            raise PlanningError("cannot decompose zero atoms")
        edges = Hypergraph.from_query(query).edges
        if len(atom_indices) > MAX_ENUMERATED_BLOCKS:
            ghd = self._restricted_single_node(query, atom_indices)
            return (
                self._node_width(
                    edges, tuple(atom_indices), cover_restriction
                ),
                [ghd],
            )

        # Block widths repeat across partitions; the memo lives for this
        # call only, since atom indices name atoms of this query alone.
        widths: dict[tuple[int, ...], float] = {}

        def width_of(block: tuple[int, ...]) -> float:
            width = widths.get(block)
            if width is None:
                width = widths[block] = self._node_width(
                    edges, block, cover_restriction
                )
            return width

        by_width: dict[float, list[list[tuple[int, ...]]]] = {}
        for partition in set_partitions(atom_indices):
            blocks = [tuple(sorted(block)) for block in partition]
            if must_cover:
                block_vars = [
                    frozenset(
                        v for i in block for v in query.atoms[i].variables
                    )
                    for block in blocks
                ]
                if not all(
                    any(group <= vars_ for vars_ in block_vars)
                    for group in must_cover
                ):
                    continue
            width = round(max(width_of(block) for block in blocks), 6)
            by_width.setdefault(width, []).append(blocks)

        # A minimum-width partition may admit no valid tree (the per-atom
        # partition of a triangle has width 1 but fails the running
        # intersection property), so walk widths upward until some
        # partition yields candidates.
        for width in sorted(by_width):
            candidates: list[GHD] = []
            for blocks in by_width[width]:
                candidates.extend(self._rooted_trees(query, blocks))
            if candidates:
                return width, candidates
        raise PlanningError("no valid GHD found")  # pragma: no cover

    def _restricted_single_node(
        self, query: NormalizedQuery, atom_indices: list[int]
    ) -> GHD:
        chi: set[Variable] = set()
        for i in atom_indices:
            chi.update(query.atoms[i].variables)
        node = GHDNode(
            node_id=0, chi=frozenset(chi), atom_indices=tuple(atom_indices)
        )
        return GHD(nodes=[node], root=0)

    def _rooted_trees(
        self, query: NormalizedQuery, blocks: list[tuple[int, ...]]
    ) -> list[GHD]:
        """All rooted GHDs over ``blocks`` satisfying running intersection."""
        k = len(blocks)
        block_vars = [
            frozenset(
                v for i in block for v in query.atoms[i].variables
            )
            for block in blocks
        ]
        result: list[GHD] = []
        for edges in prufer_trees(k):
            if not self._satisfies_rip(block_vars, edges, k):
                continue
            adjacency: list[list[int]] = [[] for _ in range(k)]
            for a, b in edges:
                adjacency[a].append(b)
                adjacency[b].append(a)
            for root in range(k):
                result.append(
                    self._root_tree(blocks, block_vars, adjacency, root)
                )
        return result

    @staticmethod
    def _satisfies_rip(
        block_vars: list[frozenset[Variable]],
        edges: list[tuple[int, int]],
        k: int,
    ) -> bool:
        """Running intersection: per variable, holders form a subtree."""
        if k <= 2:
            return True
        adjacency: list[list[int]] = [[] for _ in range(k)]
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        all_vars: set[Variable] = set()
        for vars_ in block_vars:
            all_vars |= vars_
        for var in all_vars:
            holders = {i for i in range(k) if var in block_vars[i]}
            if len(holders) <= 1:
                continue
            start = next(iter(holders))
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for neighbor in adjacency[current]:
                    if neighbor in holders and neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            if seen != holders:
                return False
        return True

    @staticmethod
    def _root_tree(
        blocks: list[tuple[int, ...]],
        block_vars: list[frozenset[Variable]],
        adjacency: list[list[int]],
        root: int,
    ) -> GHD:
        nodes = [
            GHDNode(node_id=i, chi=block_vars[i], atom_indices=blocks[i])
            for i in range(len(blocks))
        ]
        seen = {root}
        queue = [root]
        while queue:
            current = queue.pop(0)
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    nodes[neighbor].parent = current
                    nodes[current].children.append(neighbor)
                    queue.append(neighbor)
        return GHD(nodes=nodes, root=root)

    def _best_over(
        self,
        query: NormalizedQuery,
        atom_indices: list[int],
        cover_restriction: frozenset[Variable] | None,
    ) -> GHD:
        """Min width, then min height, then canonical tie-break."""
        _, candidates = self._candidates_over(
            query, atom_indices, cover_restriction
        )
        return min(
            candidates,
            key=lambda g: (g.height, len(g.nodes), _canonical_key(g)),
        )

    # ------------------------------------------------------------------
    # +GHD: selection pushdown across nodes
    # ------------------------------------------------------------------
    def _decompose_with_pushdown(
        self, query: NormalizedQuery, hypergraph: Hypergraph
    ) -> GHD:
        selected = [
            i for i, atom in enumerate(query.atoms)
            if any(v in query.selections for v in atom.variables)
        ]
        unselected = [
            i for i in range(len(query.atoms)) if i not in selected
        ]
        if not selected or not unselected:
            # Nothing to push (or nothing to push below); fall back to
            # the baseline criteria.
            return self._best_over(
                query, list(range(len(query.atoms))), cover_restriction=None
            )
        cover_restriction = frozenset(query.unselected_variables())
        _, bases = self._candidates_over(
            query, unselected, cover_restriction
        )
        augmented = [
            self._attach_selected(query, base, selected) for base in bases
        ]
        # Attaching can break the running-intersection property when a
        # selected atom's unselected variables (two of them for ternary
        # __triples__ atoms) are covered only across *different* nodes.
        augmented = [
            ghd for ghd in augmented if self._is_valid(ghd, hypergraph)
        ]
        if not augmented:
            # Retry with merged variables: re-decompose the unselected
            # atoms under a must-cover constraint so some single node
            # covers each such atom's unselected variables, then attach
            # below it. This keeps the pushdown (and its selections-
            # first execution) at the cost of a possibly wider base
            # node, instead of abandoning it outright.
            augmented = self._pushdown_with_merging(
                query, hypergraph, selected, unselected, cover_restriction
            )
        if not augmented:
            return self._best_over(
                query, list(range(len(query.atoms))), cover_restriction=None
            )
        return min(
            augmented,
            key=lambda g: (
                -g.selection_depth(set(query.selections)),
                g.height,
                len(g.nodes),
                _canonical_key(g),
            ),
        )

    def _pushdown_with_merging(
        self,
        query: NormalizedQuery,
        hypergraph: Hypergraph,
        selected: list[int],
        unselected: list[int],
        cover_restriction: frozenset[Variable] | None,
    ) -> list[GHD]:
        """Valid pushdown GHDs over bases forced to cover each selected
        atom's unselected variables inside one node (empty if even the
        merged bases fail validation, e.g. selected atoms sharing a
        variable held by no unselected atom)."""
        base_vars = frozenset(
            v for i in unselected for v in query.atoms[i].variables
        )
        must_cover = []
        for atom_index in selected:
            atom = query.atoms[atom_index]
            group = frozenset(
                v for v in atom.variables if v not in query.selections
            ) & base_vars
            if len(group) >= 2:
                must_cover.append(group)
        if not must_cover:
            return []
        _, bases = self._candidates_over(
            query,
            unselected,
            cover_restriction,
            must_cover=tuple(must_cover),
        )
        augmented = [
            self._attach_selected(query, base, selected) for base in bases
        ]
        return [ghd for ghd in augmented if self._is_valid(ghd, hypergraph)]

    @staticmethod
    def _is_valid(ghd: GHD, hypergraph: Hypergraph) -> bool:
        try:
            ghd.check_valid(hypergraph)
        except PlanningError:
            return False
        return True

    def _attach_selected(
        self, query: NormalizedQuery, base: GHD, selected: list[int]
    ) -> GHD:
        """Attach each selected atom below the deepest covering node."""
        nodes = [
            GHDNode(
                node_id=n.node_id,
                chi=n.chi,
                atom_indices=n.atom_indices,
                parent=n.parent,
                children=list(n.children),
            )
            for n in base.nodes
        ]
        ghd = GHD(nodes=nodes, root=base.root)
        for atom_index in selected:
            atom = query.atoms[atom_index]
            unselected_vars = frozenset(
                v for v in atom.variables if v not in query.selections
            )
            eligible = [
                n for n in ghd.nodes if unselected_vars <= n.chi
            ]
            if not eligible:
                # Variable never shared with the rest of the query
                # (cross-product shaped); hang the node off the root.
                host = ghd.root_node
            else:
                host = max(
                    eligible,
                    key=lambda n: (ghd.depth(n.node_id), n.node_id),
                )
            new_node = GHDNode(
                node_id=len(ghd.nodes),
                chi=frozenset(atom.variables),
                atom_indices=(atom_index,),
                parent=host.node_id,
            )
            ghd.nodes.append(new_node)
            host.children.append(new_node.node_id)
        return ghd


def _canonical_key(ghd: GHD) -> tuple:
    """A deterministic serialization for stable tie-breaking."""
    entries = []
    for node in ghd.preorder():
        entries.append(
            (
                ghd.depth(node.node_id),
                tuple(sorted(v.name for v in node.chi)),
                node.atom_indices,
            )
        )
    return tuple(entries)
