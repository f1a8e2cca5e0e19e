"""The global attribute order (Sections II-C and III-B1).

"We choose the global attribute order by doing a breadth-first traversal
of the GHD: attributes seen earlier in the traversal are earlier in the
order." The order determines both the level order of every trie and the
order in which Algorithm 1 binds attributes.

This module holds that BFS order, the whole order without +Attribute.
The +Attribute optimization ("pushing down selections within a node")
is :func:`repro.core.bounds.bound_attribute_order`: selections first,
the rest by pessimistic frontier bounds, ties broken toward this order.
Example 1 in the paper shows why selections go first: with order
``[x, a]`` the engine probes the second trie level for *every* x, while
``[a, x]`` is one probe followed by returning the second level wholesale.
"""

from __future__ import annotations

from repro.core.ghd import GHD
from repro.core.query import NormalizedQuery, Variable


def appearance_order(query: NormalizedQuery, ghd: GHD) -> list[Variable]:
    """BFS-of-GHD attribute order without any selection heuristic.

    Within a node, variables appear in the order they occur scanning the
    node's atoms as written in the query.
    """
    order: list[Variable] = []
    seen: set[Variable] = set()
    for node in ghd.bfs_order():
        for atom_index in node.atom_indices:
            for var in query.atoms[atom_index].variables:
                if var in node.chi and var not in seen:
                    seen.add(var)
                    order.append(var)
    # Defensive: include any chi-only variables (cannot happen for GHDs
    # built by our optimizer, where chi = union of lambda's vertices).
    for node in ghd.bfs_order():
        for var in sorted(node.chi):
            if var not in seen:
                seen.add(var)
                order.append(var)
    return order


def node_attribute_order(
    node_chi: frozenset[Variable], global_order: list[Variable]
) -> list[Variable]:
    """The global order restricted to one node's chi."""
    return [v for v in global_order if v in node_chi]
