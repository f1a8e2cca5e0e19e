"""GHD plan execution (Section II-C, plus the Section III optimizations).

Execution is one bottom-up pass over the GHD: Algorithm 1 (the generic
worst-case optimal join) runs inside each node, and a node's
participants are its own atoms *plus the materialized results of its
children* projected onto shared attributes, so child selections
semijoin-reduce their parents.

The root's join also carries the projection that lives below it: every
node whose subtree holds a projected attribute outside the root's chi
joins the root with all of its output attributes. A node's result is
its subtree's join projected onto its chi, so this is Yannakakis'
top-down pass run by the same join algorithm — one join per query.

The +Pipelining optimization (Definition 2) fuses the root with one
pipelineable child at execution time: the child's atoms and child-results
join directly in the root's generic join, so the child's intermediate
result is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.generic_join import (
    Participant,
    generic_join,
    generic_join_stream,
    relation_participant,
)
from repro.core.modifiers import finalize_result
from repro.core.planner import Plan
from repro.core.query import Variable
from repro.core.statistics import atom_relation
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation


@dataclass
class ExecutorStats:
    """Cumulative work counters for one executor.

    ``enumerated_tuples`` counts partial join tuples: each frontier the
    one binding loop completes (a node, or a chunk of the streamed root)
    adds the rows it enters with plus its size after every later join
    binding. A streamed plan leaves its child nodes uncharged, so there
    it grows with ``offset + limit``, not store size. Attributes the
    root carries from the nodes below it are bound in the root's join,
    so they are charged there like any other root attribute.

    ``last_order``/``last_bounds`` record the attach order (and, when
    the bound-driven search ran, its per-variable frontier bounds) of
    the most recently executed plan, so serving-layer introspection can
    report what the cost model actually chose.
    """

    enumerated_tuples: int = 0
    last_order: tuple[str, ...] = ()
    last_bounds: dict[str, int] | None = None

    def record_plan(self, plan: Plan) -> None:
        self.last_order = tuple(v.name for v in plan.global_order)
        self.last_bounds = (
            {v.name: bound for v, bound in plan.bounds.items()}
            if plan.bounds
            else None
        )


class GHDExecutor:
    """Executes :class:`~repro.core.planner.Plan`s against a catalog."""

    def __init__(
        self, catalog: Catalog, stats: ExecutorStats | None = None
    ) -> None:
        self.catalog = catalog
        self.stats = stats if stats is not None else ExecutorStats()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, plan: Plan) -> Relation:
        """Run the plan; returns the projected, distinct result."""
        self.stats.record_plan(plan)
        results = self._execute_below_root(plan, self.stats)
        if results is not None:
            root = self._execute_node(
                plan, plan.ghd.root, results, plan.pipelined_child, self.stats
            )
            if root.num_rows:
                return finalize_result(root, plan.query)
        # Any empty node result empties the whole (inner) join.
        names = [v.name for v in plan.query.projection]
        return Relation.empty(plan.query.name, names)

    # ------------------------------------------------------------------
    # Streaming entry point
    # ------------------------------------------------------------------
    def execute_iter(
        self, plan: Plan, *, chunk_rows: int = 1024
    ) -> Iterator[Relation] | None:
        """Run the plan lazily, or return ``None`` when it cannot stream.

        Yields chunks of *distinct* projected rows in exactly the order
        :meth:`execute` would return them (``finalize_result``'s
        canonical sort-by-projection order), without the final
        offset/limit slice — the consumer stops pulling once it has
        enough rows, which is the whole point.

        The root's join carries the whole projection, so streaming is
        that join with a reordered binding sequence
        ``[selections..., projection..., rest...]``; plans that project
        nothing, select a projected variable, or repeat one fall back
        (``None``) to the materializing path. Nodes below the root still
        materialize bottom-up — they are semijoin reducers, typically
        far smaller than the root's output.
        """
        query = plan.query
        projection = list(query.projection)
        if not projection or len(set(projection)) != len(projection):
            return None
        attrs, atom_indices, child_ids = self._node_members(
            plan, plan.ghd.root, plan.pipelined_child
        )
        selections = {
            v: query.selections[v] for v in attrs if v in query.selections
        }
        if any(v in selections for v in projection):
            return None
        projected = set(projection)
        stream_attrs = (
            [v for v in attrs if v in selections]
            + projection
            + [v for v in attrs if v not in selections and v not in projected]
        )

        self.stats.record_plan(plan)

        def run() -> Iterator[Relation]:
            # Child nodes are semijoin reducers: like the start step of
            # the root's streamed join, their construction is index
            # preparation, not result enumeration — uncounted so the
            # stat reflects only the work the LIMIT can bound.
            results = self._execute_below_root(plan, None)
            if results is None:
                return
            participants = self._participants(
                plan, stream_attrs, atom_indices, child_ids, results
            )
            last_row: tuple[int, ...] | None = None
            for chunk in generic_join_stream(
                stream_attrs,
                participants,
                selections,
                projection,
                name=query.name,
                chunk_rows=chunk_rows,
                stats=self.stats,
            ):
                chunk, last_row = _drop_adjacent_duplicates(chunk, last_row)
                if chunk.num_rows:
                    yield chunk

        return run()

    # ------------------------------------------------------------------
    # Index warming
    # ------------------------------------------------------------------
    def warm(self, plan: Plan) -> int:
        """Build (and cache) every trie the plan will probe, without
        executing it. Returns the number of atom participants warmed.

        This is the serving-layer warm-up path: a
        :class:`~repro.service.QueryService` can warm the catalog's trie
        cache for its hot queries before traffic arrives, so the first
        real execution pays for joins only.
        """
        ghd = plan.ghd
        fused_child = plan.pipelined_child
        warmed = 0
        for node in ghd.postorder():
            node_id = node.node_id
            if node_id == fused_child:
                continue
            fused = fused_child if node_id == ghd.root else None
            attrs, atom_indices, _ = self._node_members(plan, node_id, fused)
            for atom_index in atom_indices:
                self._atom_participant(plan, atom_index, attrs)
                warmed += 1
        return warmed

    # ------------------------------------------------------------------
    # Bottom-up: one node = one generic worst-case optimal join
    # ------------------------------------------------------------------
    def _execute_below_root(
        self, plan: Plan, stats: ExecutorStats | None
    ) -> dict[int, Relation] | None:
        """Every node but the root and its fused child, bottom-up;
        ``None`` as soon as one is empty (that empties the inner join)."""
        ghd = plan.ghd
        results: dict[int, Relation] = {}
        for node in ghd.postorder():
            if node.node_id in (ghd.root, plan.pipelined_child):
                continue
            result = self._execute_node(
                plan, node.node_id, results, None, stats
            )
            if result.num_rows == 0:
                return None
            results[node.node_id] = result
        return results

    def _execute_node(
        self,
        plan: Plan,
        node_id: int,
        results: dict[int, Relation],
        fused: int | None,
        stats: ExecutorStats | None,
    ) -> Relation:
        attrs, atom_indices, child_ids = self._node_members(
            plan, node_id, fused
        )
        participants = self._participants(
            plan, attrs, atom_indices, child_ids, results
        )
        selections = {
            v: plan.query.selections[v]
            for v in attrs
            if v in plan.query.selections
        }
        output_attrs = [v for v in attrs if v not in selections]
        return generic_join(
            attrs,
            participants,
            selections,
            output_attrs,
            name=f"node{node_id}",
            stats=stats,
        )

    def _node_members(
        self, plan: Plan, node_id: int, fused: int | None
    ) -> tuple[list[Variable], list[int], list[int]]:
        """A node's attribute order, atoms, and children (fused-aware).
        The root also takes in every carried node's output attributes
        (its chi minus selections) and its result as a participant."""
        ghd = plan.ghd
        member_nodes = [ghd.node(node_id)]
        if fused is not None:
            member_nodes.append(ghd.node(fused))

        chi: set[Variable] = set()
        atom_indices: list[int] = []
        child_ids: list[int] = []
        for member in member_nodes:
            chi.update(member.chi)
            atom_indices.extend(member.atom_indices)
            child_ids.extend(
                c for c in member.children if c not in (fused,)
            )
        if node_id == ghd.root:
            for carried in _carried_nodes(plan, chi):
                chi |= ghd.node(carried).chi - plan.query.selections.keys()
                if carried not in child_ids:
                    child_ids.append(carried)
        # Attribute order: global order restricted to the (widened) chi.
        attrs = [v for v in plan.global_order if v in chi]
        return attrs, atom_indices, child_ids

    def _participants(
        self,
        plan: Plan,
        attrs: list[Variable],
        atom_indices: list[int],
        child_ids: list[int],
        results: dict[int, Relation],
    ) -> list[Participant]:
        """A node's atom tries, then its children's projected results,
        each in ``attrs`` order."""
        participants = [
            self._atom_participant(plan, i, attrs) for i in atom_indices
        ]
        for child_id in child_ids:
            participant = relation_participant(
                results[child_id],
                attrs,
                f"child{child_id}",
                plan.config.force_layout,
            )
            if participant is not None:
                participants.append(participant)
        return participants

    def _atom_participant(
        self, plan: Plan, atom_index: int, attrs: list[Variable]
    ) -> Participant:
        atom = plan.query.atoms[atom_index]
        relation = atom_relation(self.catalog, atom)
        var_order = [v for v in attrs if v in set(atom.variables)]
        # Map the variable order back to the *stored* relation's column
        # names so the catalog's trie cache is shared across queries
        # (the view returned by atom_relation renames columns to the
        # query's variable names; the catalog keeps the original names).
        stored = self.catalog.get(relation.name)
        name_for = {
            var_name: stored.attributes[i]
            for i, var_name in enumerate(relation.attributes)
        }
        original_order = [name_for[v.name] for v in var_order]
        trie = self.catalog.trie(
            relation.name,
            original_order,
            force_layout=plan.config.force_layout,
        )
        return Participant(
            trie=trie, attrs=tuple(var_order), label=repr(atom)
        )


def _carried_nodes(plan: Plan, root_chi: set[Variable]) -> list[int]:
    """The nodes below the (fused) root whose subtree holds a projected
    attribute outside ``root_chi``, in postorder."""
    ghd = plan.ghd
    missing = set(plan.query.projection) - root_chi
    holding: set[int] = set()
    carried: list[int] = []
    for node in ghd.postorder():
        if missing.isdisjoint(node.chi) and holding.isdisjoint(node.children):
            continue
        holding.add(node.node_id)
        if node.node_id not in (ghd.root, plan.pipelined_child):
            carried.append(node.node_id)
    return carried


def _drop_adjacent_duplicates(
    chunk: Relation, last_row: tuple[int, ...] | None
) -> tuple[Relation, tuple[int, ...] | None]:
    """Deduplicate a chunk of a stream sorted by all its columns.

    Equal rows are adjacent in such a stream, so dedup is dropping rows
    equal to their predecessor — including the first row when it equals
    the previous chunk's last row (threaded through ``last_row``).
    """
    n = chunk.num_rows
    if n == 0:
        return chunk, last_row
    keep = np.zeros(n, dtype=bool)
    keep[0] = True
    for column in chunk.columns:
        keep[1:] |= column[1:] != column[:-1]
    if last_row is not None and all(
        int(column[0]) == prev
        for column, prev in zip(chunk.columns, last_row)
    ):
        keep[0] = False
    new_last = tuple(int(column[-1]) for column in chunk.columns)
    if keep.all():
        return chunk, new_last
    return chunk.filter(keep), new_last
