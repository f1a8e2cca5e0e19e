"""Scatter-gather execution over a :class:`ShardedStore`.

:class:`ShardedEngine` subclasses the ordinary
:class:`~repro.engines.base.Engine`, so the whole upper stack — SPARQL
parsing/binding, filters, UNION/OPTIONAL assembly, solution modifiers,
streaming cursors, sessions, prepared statements, the HTTP front door —
is inherited unchanged. Only the conjunctive core is replaced: each
bound query is compiled into a :class:`FragmentPlan`
(:mod:`repro.distributed.fragments`), scattered over the transport
(in-process engines or per-shard worker pools) and merged
deterministically: a one-fragment plan by ``concat + distinct`` (or a
k-way merge of per-shard streams), a multi-fragment plan by one
:func:`~repro.core.generic_join.generic_join` over the fragment
results, under the plan's attribute order.

Every scatter runs inside the store's **read epoch**, so all fragments
— including crash-retried ones — observe one cross-shard snapshot and
the merge can never mix epochs. Combined with the shared-dictionary key
identity, results are row-for-row (and serialized byte-for-byte)
identical to a single-store engine on the same data.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence

from repro.core.blocks import block_queries
from repro.core.generic_join import generic_join, relation_participant
from repro.core.query import (
    BoundUnion,
    ConjunctiveQuery,
    substitute_parameters,
)
from repro.distributed.fragments import (
    Fragment,
    FragmentPlan,
    compile_fragment_plan,
)
from repro.distributed.store import ShardedStore
from repro.distributed.transport import LocalShardTransport
from repro.engines.base import Engine
from repro.errors import ConfigError
from repro.storage.relation import Relation

#: Row target for chunks produced by the k-way shard stream merge.
MERGE_CHUNK_ROWS = 1024


class ShardedEngine(Engine):
    """Distributed scatter-gather execution behind the Engine API."""

    name = "sharded"

    def __init__(
        self,
        store: ShardedStore,
        engine: str = "emptyheaded",
        *,
        transport=None,
    ) -> None:
        if not isinstance(store, ShardedStore):
            raise ConfigError(
                "ShardedEngine requires a ShardedStore "
                f"(got {type(store).__name__})"
            )
        super().__init__(store)
        self.engine_name = engine
        self.transport = (
            transport
            if transport is not None
            else LocalShardTransport(store, engine)
        )

    # ------------------------------------------------------------------
    # Epoch handling
    # ------------------------------------------------------------------
    def check_data_version(self) -> None:
        """Adopt the store's unified epoch.

        The base implementation drives single-store delta catch-up; a
        sharded engine keeps no data-dependent structures of its own —
        shard engines (local or worker-side) each catch up through
        their shard's ordinary delta path — so syncing the counter is
        the whole job.
        """
        if self._data_version == self.store.data_version:
            return
        with self._cache_lock:
            self._data_version = self.store.data_version

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_for(self, query: ConjunctiveQuery) -> FragmentPlan:
        """The fragment plan a bound conjunctive query compiles to."""
        with self.store.read_epoch():
            return self._plan_locked(query)

    def _plan_locked(self, query: ConjunctiveQuery) -> FragmentPlan:
        return compile_fragment_plan(
            query,
            self.store.shard_count,
            self.store._column_sketches_locked(),
        )

    def explain_sparql(self, text: str, parameters=None) -> str:
        """The fragment plan(s) for a SPARQL query (``/explain``)."""
        query = self.prepare_sparql(text)
        query = substitute_parameters(query, parameters or {})
        bound = self.bind(query)
        if bound is None:
            return "empty result: some constant does not occur in the data"
        if isinstance(bound, BoundUnion):
            parts = [f"union of {len(bound.blocks)} block(s)"]
            for block_query in block_queries(bound):
                inner, _ = self.split_modifiers(block_query)
                parts.append(self.plan_for(inner).explain())
            return "\n".join(parts)
        inner, _ = self.split_modifiers(bound)
        return self.plan_for(inner).explain()

    # ------------------------------------------------------------------
    # Scatter-gather execution
    # ------------------------------------------------------------------
    def _execute_bound(self, query: ConjunctiveQuery) -> Relation:
        names = [variable.name for variable in query.projection]
        with self.store.read_epoch():
            plan = self._plan_locked(query)
            for probe in plan.probes:
                if not self._probe_locked(probe.atoms):
                    return Relation.empty(query.name, names)
            if not plan.fragments:
                # All-constant query whose probes passed: degenerate
                # (projection-free) — nothing to enumerate.
                return Relation.empty(query.name, names)
            merged = self._scatter_locked(plan)
        if plan.single:
            return merged[0]
        order = list(plan.order)
        participants = []
        for fragment, relation in zip(plan.fragments, merged):
            if relation.num_rows == 0:
                # Inner-join semantics: one empty fragment (even an
                # existential one) empties the whole result.
                return Relation.empty(query.name, names)
            if not fragment.existential:
                participants.append(
                    relation_participant(
                        relation, order, f"fragment{fragment.index}"
                    )
                )
        if not participants:
            return Relation.empty(query.name, names)
        # A fragment sharing no variable with the rest binds its own
        # attributes independently: the cross product, in one loop.
        output = [v for v in order if v.name in names]
        joined = generic_join(order, participants, {}, output, query.name)
        return (
            joined.project(names).distinct().rename(name=query.name)
        )

    def _scatter_locked(self, plan: FragmentPlan) -> list[Relation]:
        """Fan every fragment out and gather per-fragment merges.

        One flat task list keeps all shards of all fragments in flight
        concurrently; the caller holds the read epoch, so a crash-retry
        inside the pooled transport re-executes against the same
        snapshot.
        """
        tasks: list[tuple[int, ConjunctiveQuery]] = []
        spans: list[tuple[Fragment, int]] = []
        for fragment in plan.fragments:
            shards = self._fragment_shards_locked(fragment)
            spans.append((fragment, len(shards)))
            tasks.extend((shard, fragment.query) for shard in shards)
        results = self.transport.scatter(tasks)
        merged: list[Relation] = []
        cursor = 0
        for fragment, width in spans:
            parts = results[cursor : cursor + width]
            cursor += width
            merged.append(_gather(parts))
        return merged

    def _fragment_shards_locked(self, fragment: Fragment) -> list[int]:
        if fragment.targeted:
            subject = self.dictionary.decode(int(fragment.subject.value))
            return [self.store.shard_for_subject(subject)]
        return list(range(self.store.shard_count))

    def _probe_locked(self, atoms: Sequence) -> bool:
        for atom in atoms:
            keys = [int(term.value) for term in atom.terms]
            if len(keys) == 3:
                present = self.store.contains_triple_locked(*keys)
            else:
                present = self.store.contains_pair_locked(
                    atom.relation, keys[0], keys[1]
                )
            if not present:
                return False
        return True

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def _execute_bound_iter(
        self, query: ConjunctiveQuery
    ) -> Iterator[Relation] | None:
        """K-way merge of per-shard streams for single-fragment plans.

        Shard streams are captured eagerly under the read epoch (each
        shard engine pins its snapshot before this method returns), so
        an open cursor keeps paging one consistent cross-shard epoch
        through any interleaved updates. Multi-fragment plans decline —
        the base class materializes them via ``_execute_bound``.
        """
        with self.store.read_epoch():
            plan = self._plan_locked(query)
            if plan.probes or not plan.single:
                return None
            fragment = plan.fragments[0]
            shards = self._fragment_shards_locked(fragment)
            streams = [
                self.transport.stream(shard, fragment.query)
                for shard in shards
            ]
        names = [v.name for v in fragment.query.projection]
        return _merged_chunks(streams, names, query.name)


# ---------------------------------------------------------------------------
# Merge helpers
# ---------------------------------------------------------------------------
def _gather(parts: list[Relation]) -> Relation:
    """Concat per-shard fragment results; dedup re-canonicalizes."""
    if len(parts) == 1:
        return parts[0]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.concat(part)
    return merged.distinct()


def _merged_chunks(
    streams: list[Iterator[Relation]],
    attributes: list[str],
    name: str,
    chunk_rows: int = MERGE_CHUNK_ROWS,
) -> Iterator[Relation]:
    """Heap-merge per-shard canonical streams into deduplicated chunks.

    Each shard stream is already distinct and canonically ordered; rows
    merge by tuple comparison (identical to the columnar lexsort order)
    with cross-shard duplicate suppression, so the concatenated output
    is exactly the single-store canonical enumeration.
    """

    def rows(stream: Iterator[Relation]) -> Iterator[tuple[int, ...]]:
        for chunk in stream:
            yield from chunk.iter_rows()

    try:
        previous: tuple[int, ...] | None = None
        buffer: list[tuple[int, ...]] = []
        for row in heapq.merge(*(rows(stream) for stream in streams)):
            if row == previous:
                continue
            previous = row
            buffer.append(row)
            if len(buffer) >= chunk_rows:
                yield Relation.from_rows(name, attributes, buffer)
                buffer = []
        if buffer:
            yield Relation.from_rows(name, attributes, buffer)
    finally:
        for stream in streams:
            close = getattr(stream, "close", None)
            if close is not None:
                close()


__all__ = ["MERGE_CHUNK_ROWS", "ShardedEngine"]
