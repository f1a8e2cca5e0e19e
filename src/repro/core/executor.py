"""GHD plan execution (Section II-C, plus the Section III optimizations).

Execution runs in two passes over the GHD, exactly as the paper
describes:

1. **Bottom-up**: Algorithm 1 (the generic worst-case optimal join) runs
   inside each node; a node's participants are its own atoms *plus the
   materialized results of its children* projected onto shared
   attributes, so child selections semijoin-reduce their parents.
2. **Top-down**: when the projection spans several nodes, a Yannakakis-
   style pass joins node results downward from the root to materialize
   the final answer.

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
)
from repro.core.modifiers import finalize_result
from repro.core.planner import Plan
from repro.core.query import Variable
from repro.core.statistics import atom_relation
from repro.errors import ExecutionError
from repro.relalg.kernels import cross_product, natural_join
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.trie.trie import Trie


@dataclass
class ExecutorStats:
    """Cumulative work counters for one executor.

    ``enumerated_tuples`` counts partial join tuples carried through the
    frontier at join-attribute bindings (both execution paths charge the
    same way, so materialized and streamed runs are comparable).
    ``tests/core/test_streaming.py`` asserts that under streaming it
    grows with ``offset + limit``, not with store size.

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
        ghd = plan.ghd
        results: dict[int, Relation] = {}
        fused_child = plan.pipelined_child

        names = [v.name for v in plan.query.projection]
        for node in ghd.postorder():
            node_id = node.node_id
            if node_id == fused_child:
                continue  # executed fused with the root
            if node_id == ghd.root and fused_child is not None:
                results[node_id] = self._execute_node(
                    plan, node_id, results, fused=fused_child
                )
            else:
                results[node_id] = self._execute_node(
                    plan, node_id, results, fused=None
                )
            if results[node_id].num_rows == 0:
                # Any empty node result empties the whole (inner) join.
                return Relation.empty(plan.query.name, names)

        return finalize_result(self._materialize(plan, results), plan.query)

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

        Streaming requires the projection to be answerable from the
        (fused) root node alone with a reordered binding sequence
        ``[selections..., projection..., rest...]``; plans that need the
        top-down Yannakakis pass, project nothing, select a projected
        variable, or repeat one, fall back (``None``) to the
        materializing path. Child nodes below the root still materialize
        bottom-up — they are semijoin reducers, typically far smaller
        than the root's output.
        """
        query = plan.query
        projection = list(query.projection)
        if not projection or len(set(projection)) != len(projection):
            return None
        ghd = plan.ghd
        fused = plan.pipelined_child
        attrs, atom_indices, child_ids = self._node_members(
            plan, ghd.root, fused
        )
        chi = set(attrs)
        if any(v not in chi for v in projection):
            return None  # needs the top-down pass: materialize
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
            results: dict[int, Relation] = {}
            for node in ghd.postorder():
                node_id = node.node_id
                if node_id == ghd.root or node_id == fused:
                    continue
                # Child nodes are semijoin reducers: like Phase B of the
                # root's streamed join, their construction is index
                # preparation, not result enumeration — uncounted so the
                # stat reflects only the work the LIMIT can bound.
                results[node_id] = self._execute_node(
                    plan, node_id, results, fused=None, count_stats=False
                )
                if results[node_id].num_rows == 0:
                    return
            participants = [
                self._atom_participant(plan, i, stream_attrs)
                for i in atom_indices
            ]
            for child_id in child_ids:
                participant = self._child_participant(
                    plan, child_id, stream_attrs, results[child_id]
                )
                if participant is not None:
                    participants.append(participant)
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
    def _execute_node(
        self,
        plan: Plan,
        node_id: int,
        results: dict[int, Relation],
        fused: int | None,
        count_stats: bool = True,
    ) -> Relation:
        attrs, atom_indices, child_ids = self._node_members(
            plan, node_id, fused
        )

        participants: list[Participant] = []
        for atom_index in atom_indices:
            participants.append(
                self._atom_participant(plan, atom_index, attrs)
            )
        for child_id in child_ids:
            participant = self._child_participant(
                plan, child_id, attrs, results[child_id]
            )
            if participant is not None:
                participants.append(participant)

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
            stats=self.stats if count_stats else None,
        )

    def _node_members(
        self, plan: Plan, node_id: int, fused: int | None
    ) -> tuple[list[Variable], list[int], list[int]]:
        """A node's attribute order, atoms, and children (fused-aware)."""
        ghd = plan.ghd
        member_nodes = [ghd.node(node_id)]
        if fused is not None:
            member_nodes.append(ghd.node(fused))

        # Attribute order: global order restricted to the (fused) chi.
        chi: set[Variable] = set()
        atom_indices: list[int] = []
        child_ids: list[int] = []
        for member in member_nodes:
            chi.update(member.chi)
            atom_indices.extend(member.atom_indices)
            child_ids.extend(
                c for c in member.children if c not in (fused,)
            )
        attrs = [v for v in plan.global_order if v in chi]
        return attrs, atom_indices, child_ids

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

    def _child_participant(
        self,
        plan: Plan,
        child_id: int,
        attrs: list[Variable],
        child_result: Relation,
    ) -> Participant | None:
        """The child's result projected onto shared attributes, as a trie."""
        shared = [v for v in attrs if v.name in child_result.attributes]
        if not shared:
            return None
        names = [v.name for v in shared]
        projected = child_result.project(names).distinct()
        trie = Trie.from_relation(
            projected, names, force_layout=plan.config.force_layout
        )
        return Participant(
            trie=trie, attrs=tuple(shared), label=f"child{child_id}"
        )

    # ------------------------------------------------------------------
    # Top-down: Yannakakis materialization across nodes
    # ------------------------------------------------------------------
    def _materialize(self, plan: Plan, results: dict[int, Relation]) -> Relation:
        ghd = plan.ghd
        root_result = results[ghd.root]
        projection_names = {v.name for v in plan.query.projection}

        # Which projection attributes live in each subtree?
        needed_below: dict[int, set[str]] = {}

        def collect(node_id: int) -> set[str]:
            node = ghd.node(node_id)
            if node_id in results:
                own = set(results[node_id].attributes) & projection_names
            else:  # the fused child: its attrs are already in the root
                own = set()
            for child in node.children:
                own |= collect(child)
            needed_below[node_id] = own
            return own

        collect(ghd.root)

        acc = root_result
        fused = plan.pipelined_child

        def descend(node_id: int) -> None:
            nonlocal acc
            node = ghd.node(node_id)
            for child_id in node.children:
                if child_id == fused:
                    # Fused child: its result is part of the root's; its
                    # own children may still add projection attributes.
                    descend(child_id)
                    continue
                missing = needed_below[child_id] - set(acc.attributes)
                if not missing:
                    continue
                child_result = results[child_id]
                if any(a in acc.attributes for a in child_result.attributes):
                    acc = natural_join(acc, child_result)
                else:
                    acc = cross_product(acc, child_result)
                descend(child_id)

        descend(ghd.root)

        missing = projection_names - set(acc.attributes)
        if missing:  # pragma: no cover - defended against by the planner
            raise ExecutionError(
                f"projection attributes {sorted(missing)} were not "
                "materialized by the plan"
            )
        return acc


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
