"""Common engine interface.

Every engine is constructed over a
:class:`~repro.storage.vertical.VerticallyPartitionedStore` and answers
SPARQL (subset) strings or pre-built queries with a
:class:`~repro.storage.relation.Relation` of dictionary-encoded rows.

Queries come in two shapes: a plain
:class:`~repro.core.query.ConjunctiveQuery` (one basic graph pattern) or
a :class:`~repro.core.query.UnionQuery` tree of conjunctive blocks
(``UNION`` branches with ``OPTIONAL`` extensions). Engine subclasses
only ever implement conjunctive execution (:meth:`Engine._execute_bound`
over filter-free, modifier-free, encoded-constant queries); everything
above — dictionary binding, numeric-literal fan-out, block assembly with
NULL padding, FILTER / ORDER BY / OFFSET / LIMIT — happens here,
uniformly, so all five engines return identical rows on the full SPARQL
subset by construction of this layer.

Constants are bound through the shared dictionary before planning; a
constant that never occurs in the data short-circuits to an empty result
in *every* engine, keeping the comparison fair.

Engines are **update-aware**: every public entry point compares the
engine's recorded data-version epoch against ``store.data_version``.
On a mismatch the engine first asks the store for the *logical delta*
since its epoch (:meth:`~repro.storage.vertical.VerticallyPartitionedStore.changes_since`)
and hands each batch to the subclass's :meth:`Engine.apply_delta` hook,
which patches indexes, catalogs, and statistics incrementally — update
cost scales with the batch, not the store. Only when incremental
catch-up is impossible (the delta log no longer reaches back, the
combined delta exceeds ``delta_rebuild_fraction`` of the store, or the
subclass declines the batch) does the engine fall back to the wholesale
``_on_data_update`` rebuild. Either way a store mutated through
``add_triples``/``remove_triples`` never serves a stale plan.

Engines are also safe for concurrent read traffic: the parse cache and
refresh path are lock-protected, execution reads immutable numpy
snapshots, and refreshes swap whole structure bundles (they never
mutate an index in place), so an execution racing an update observes
one consistent epoch end to end.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import replace
from typing import Iterator

from repro.core.blocks import execute_union, execute_union_iter
from repro.core.modifiers import apply_filters, apply_order, apply_slice
from repro.core.query import (
    BoundUnion,
    ConjunctiveQuery,
    UnionQuery,
    Variable,
    as_union,
    bind_constants,
    bind_union,
    has_numeric_literals,
)
from repro.sparql.parser import parse_sparql
from repro.sparql.translate import sparql_to_query
from repro.storage.relation import NULL_KEY, Relation
from repro.storage.vertical import VerticallyPartitionedStore

#: Either prepared query shape the SPARQL front-end produces.
PreparedSparql = ConjunctiveQuery | UnionQuery


class Engine(ABC):
    """Abstract query engine over a vertically partitioned RDF store."""

    name: str = "engine"

    #: Bound on the parse/translate cache so long-tail traffic (e.g.
    #: generated query texts) cannot grow process memory without limit —
    #: the serving layer's LRU relies on this staying bounded too.
    sparql_cache_size: int = 512

    #: Above this fraction of the store, an accumulated delta is cheaper
    #: to absorb by rebuilding than by patching; ``changes_since`` then
    #: returns ``None`` and ``_on_data_update`` runs instead.
    delta_rebuild_fraction: float = 0.25

    def __init__(self, store: VerticallyPartitionedStore) -> None:
        self.store = store
        self.dictionary = store.dictionary
        self._sparql_cache: OrderedDict[str, PreparedSparql] = OrderedDict()
        self._cache_lock = threading.RLock()
        self._data_version = store.data_version

    @classmethod
    def from_snapshot(cls, snapshot) -> "Engine":
        """Build this engine over a store attached from a
        :class:`~repro.storage.vertical.StoreSnapshot`.

        The multi-process worker path: the snapshot's relations may wrap
        read-only shared-memory views — the reconstructed store adopts
        them zero-copy and the engine builds its indexes locally, so N
        workers share one physical copy of the segment data while each
        owns its (mutable) tries/catalogs. The engine starts at the
        snapshot's epoch and catches up through the ordinary
        :meth:`check_data_version` machinery if the local store moves.
        """
        return cls(VerticallyPartitionedStore.from_snapshot(snapshot))

    # ------------------------------------------------------------------
    # Data-version epoch
    # ------------------------------------------------------------------
    def check_data_version(self) -> None:
        """Catch engine structures up with a mutated store.

        Cheap (one int compare) on the hot path; on an epoch mismatch
        the refresh is serialized so concurrent readers catch up once.
        The refresh runs under the *store's* write lock too, so an
        update cannot mutate the tables mid-refresh; the epoch recorded
        is the one observed before refreshing, so an update landing
        right after simply triggers the next refresh.

        The catch-up itself is **incremental**: the store
        hands back the logical :class:`~repro.storage.vertical.DeltaBatch`
        list since this engine's epoch and each batch flows through
        :meth:`apply_delta`. The wholesale ``_on_data_update`` rebuild
        runs only when the log is gone, the delta exceeds
        ``delta_rebuild_fraction`` of the store, or the subclass declines
        a batch.
        """
        if self._data_version == self.store.data_version:
            return
        with self._cache_lock:
            if self._data_version == self.store.data_version:
                return
            with self.store._write_lock:
                target = self.store.data_version
                max_rows = int(
                    self.delta_rebuild_fraction
                    * max(self.store.num_triples, 1)
                )
                batches = self.store.changes_since(
                    self._data_version, max_rows=max_rows
                )
                if batches is None:
                    self._on_data_update()
                else:
                    for batch in batches:
                        if not self.apply_delta(batch):
                            self._on_data_update()
                            break
            self._data_version = target

    def apply_delta(self, delta) -> bool:
        """Hook: patch engine structures with one logical update batch.

        ``delta`` is a :class:`~repro.storage.vertical.DeltaBatch` —
        per-table added/removed rows plus created/dropped table names.
        Return ``True`` when the batch was absorbed incrementally;
        ``False`` falls back to the wholesale ``_on_data_update``
        rebuild (which must leave the engine consistent with the
        store's *current* state, making the fallback always safe). The
        base implementation declines every batch.
        """
        return False

    def _on_data_update(self) -> None:
        """Hook: rebuild engine-specific indexes/caches after an update.

        The base layer keeps nothing data-dependent — the parse cache is
        pure syntax and the dictionary only ever grows (removal keeps
        keys), so bound constants stay valid.
        """

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def prepare_sparql(self, text: str, name: str = "query") -> PreparedSparql:
        """Parse and translate a SPARQL string (LRU-cached per text)."""
        with self._cache_lock:
            query = self._sparql_cache.get(text)
            if query is not None:
                self._sparql_cache.move_to_end(text)
                return query
        query = sparql_to_query(parse_sparql(text), name=name)
        with self._cache_lock:
            existing = self._sparql_cache.get(text)
            if existing is not None:  # a concurrent parse won the race
                return existing
            self._sparql_cache[text] = query
            if len(self._sparql_cache) > self.sparql_cache_size:
                self._sparql_cache.popitem(last=False)
        return query

    def execute_sparql(self, text: str, name: str = "query") -> Relation:
        """Parse, translate, and execute a SPARQL (subset) query."""
        query = self.prepare_sparql(text, name=name)
        # SPARQL semantics: a pattern over a predicate with no triples
        # matches nothing (it is not a schema error). Union trees handle
        # missing tables block-wise during binding instead.
        if isinstance(query, ConjunctiveQuery):
            available = self.store.table_names()
            if any(atom.relation not in available for atom in query.atoms):
                return Relation.empty(
                    query.name, [v.name for v in query.projection]
                )
        return self.execute(query)

    def execute(self, query: PreparedSparql) -> Relation:
        """Execute a query with lexical or encoded constants."""
        self.check_data_version()
        if isinstance(query, ConjunctiveQuery) and not has_numeric_literals(
            query
        ):
            bound = bind_constants(query, self.dictionary)
            if bound is None:
                return Relation.empty(
                    query.name, [v.name for v in query.projection]
                )
            return self.execute_bound(bound)
        tree_bound = bind_union(
            as_union(query), self.dictionary, self.store.table_names()
        )
        if tree_bound is None:
            return Relation.empty(
                query.name, [v.name for v in query.projection]
            )
        return self.execute_bound_union(tree_bound)

    def bind(self, query: PreparedSparql):
        """Dictionary-bind a prepared query for repeated execution.

        Returns a :class:`ConjunctiveQuery` (encoded constants), a
        :class:`BoundUnion`, or ``None`` when the query provably matches
        nothing on this dataset (missing predicate table or constant).
        The serving layer caches this result per query text.
        """
        self.check_data_version()
        if isinstance(query, ConjunctiveQuery) and not has_numeric_literals(
            query
        ):
            available = self.store.table_names()
            if any(atom.relation not in available for atom in query.atoms):
                return None
            return bind_constants(query, self.dictionary)
        bound = bind_union(
            as_union(query), self.dictionary, self.store.table_names()
        )
        if bound is None:
            return None
        return bound.as_conjunctive() or bound

    def execute_bound(self, bound: ConjunctiveQuery) -> Relation:
        """Execute a dictionary-bound query, applying solution modifiers.

        Public so a serving layer (:class:`repro.service.QueryService`)
        that caches bound queries can skip re-parsing and re-binding.
        """
        self.check_data_version()
        inner, has_modifiers = self.split_modifiers(bound)
        result = self._execute_bound(inner)
        if not has_modifiers:
            # Engines deduplicate via a sort, so row order is canonical
            # and any engine-side LIMIT pre-truncation agrees with this
            # final slice.
            return apply_slice(result, bound.offset, bound.limit)
        result = apply_filters(result, bound.filters, self.dictionary)
        names = [v.name for v in bound.projection]
        result = result.project(names).distinct()
        result = apply_order(result, bound.order_by, self.dictionary)
        result = apply_slice(result, bound.offset, bound.limit)
        return result.rename(name=bound.name)

    def execute_bound_union(self, bound: BoundUnion) -> Relation:
        """Execute a bound multi-block query (UNION / OPTIONAL tree)."""
        self.check_data_version()
        simple = bound.as_conjunctive()
        if simple is not None:
            return self.execute_bound(simple)
        return execute_union(bound, self._execute_bound, self.dictionary)

    # ------------------------------------------------------------------
    # Streaming execution
    # ------------------------------------------------------------------
    def execute_iter(self, query: PreparedSparql) -> Iterator[Relation]:
        """Execute, returning the result as an iterator of row pages.

        The concatenated pages are row-for-row identical to
        :meth:`execute`'s relation (same canonical order, offset/limit
        already applied). Engines with a streaming executor
        (:meth:`_execute_bound_iter`) short-circuit enumeration once
        ``offset + limit`` distinct projected rows exist; other engines
        are shimmed — the fallback materializes the full result *at call
        time* (pinning the data snapshot exactly like :meth:`execute`)
        and serves it as one page. At least one page is always yielded,
        so consumers can read the result schema off an empty result.
        """
        self.check_data_version()
        names = [v.name for v in query.projection]
        if isinstance(query, ConjunctiveQuery) and not has_numeric_literals(
            query
        ):
            available = self.store.table_names()
            if any(atom.relation not in available for atom in query.atoms):
                return iter([Relation.empty(query.name, names)])
            bound = bind_constants(query, self.dictionary)
            if bound is None:
                return iter([Relation.empty(query.name, names)])
            return self.execute_bound_iter(bound)
        tree_bound = bind_union(
            as_union(query), self.dictionary, self.store.table_names()
        )
        if tree_bound is None:
            return iter([Relation.empty(query.name, names)])
        return self.execute_bound_union_iter(tree_bound)

    def execute_bound_iter(
        self, bound: ConjunctiveQuery
    ) -> Iterator[Relation]:
        """Streaming :meth:`execute_bound`: an iterator of row pages.

        Not a generator — binding, validation, and snapshot capture all
        happen eagerly in this call, so an open stream keeps paging one
        consistent epoch even if the store is mutated before it is
        drained. A FILTER or ORDER BY genuinely needs the whole result
        (rows below the cap can still be dropped or reordered), so those
        queries materialize.
        """
        self.check_data_version()
        inner, has_modifiers = self.split_modifiers(bound)
        if not has_modifiers:
            stream = self._execute_bound_iter(inner)
            if stream is not None:
                names = [v.name for v in bound.projection]
                return _sliced_pages(
                    stream, bound.offset, bound.limit, names, bound.name
                )
        return iter([self.execute_bound(bound)])

    def execute_bound_union_iter(self, bound: BoundUnion) -> Iterator[Relation]:
        """Streaming :meth:`execute_bound_union` (heap-merged branches)."""
        self.check_data_version()
        simple = bound.as_conjunctive()
        if simple is not None:
            return self.execute_bound_iter(simple)
        stream = execute_union_iter(
            bound, self._execute_bound, self._execute_bound_iter,
            self.dictionary,
        )
        if stream is None:
            return iter([self.execute_bound_union(bound)])
        return stream

    def _execute_bound_iter(
        self, query: ConjunctiveQuery
    ) -> Iterator[Relation] | None:
        """Hook: stream a filter-free bound query's projected result.

        Returns an iterator of chunks that are globally deduplicated and
        in canonical (sorted-by-projection) order — their concatenation
        must equal the materialized result *before* the final
        offset/limit slice — or ``None`` when the engine cannot stream
        this query, in which case the caller falls back to the
        materializing path. The base implementation declines every
        query: materializing engines (RDF-3X, TripleBit, ...) are shimmed
        by the fallback, which executes eagerly and pages the snapshot.
        """
        return None

    def take_plan_disposition(self) -> str | None:
        """Hook: pop how the last plan lookup on this thread resolved.

        ``"retained"`` (structural cache reused), ``"reoptimized"``
        (re-planned for the bound values' selectivity class), or
        ``None`` when the engine does not track it — the base
        implementation for engines without a plan cache. Consumed by
        :class:`~repro.service.prepared.PreparedStatement` after each
        execution to maintain its statement counters.
        """
        return None

    @staticmethod
    def split_modifiers(
        bound: ConjunctiveQuery,
    ) -> tuple[ConjunctiveQuery, bool]:
        """The filter-free query an engine executes, plus whether the
        engine layer must post-process its result.

        When filters or ORDER BY are present the inner query's projection
        is widened with the filter variables (they must be materialized
        to evaluate the predicates) and LIMIT/OFFSET are withheld — rows
        can only be sliced after filtering and ordering.
        """
        if not bound.filters and not bound.order_by:
            return bound, False
        extra: list[Variable] = []
        names = {v.name for v in bound.projection}
        for comparison in bound.filters:
            for var in comparison.variables():
                if var.name not in names:
                    names.add(var.name)
                    extra.append(var)
        inner = replace(
            bound,
            projection=bound.projection + tuple(extra),
            filters=(),
            order_by=(),
            limit=None,
            offset=0,
        )
        return inner, True

    def decode(self, relation: Relation) -> list[tuple[str | None, ...]]:
        """Decode a result relation back to lexical terms (row tuples).

        Variables an ``OPTIONAL`` row never bound decode to ``None``.
        """
        return self.decode_rows(relation)

    def decode_rows(
        self, relation: Relation, start: int = 0, stop: int | None = None
    ) -> list[tuple[str | None, ...]]:
        """Decode one row slice ``[start, stop)`` back to lexical terms.

        The serving tier's page path: a streaming cursor decodes one
        fixed-size page at a time instead of materializing the whole
        decoded result (the encoded relation stays the single in-memory
        representation). Out-of-range bounds clamp; variables an
        ``OPTIONAL`` row never bound decode to ``None``.
        """
        stop = relation.num_rows if stop is None else min(stop, relation.num_rows)
        start = max(start, 0)
        if start >= stop:
            return []
        decode = self.dictionary.decode
        columns = relation.columns
        return [
            tuple(
                None if int(column[i]) == NULL_KEY else decode(int(column[i]))
                for column in columns
            )
            for i in range(start, stop)
        ]

    def warm(self, text: str) -> None:
        """Run a query once to populate plan and index caches.

        Mirrors the paper's methodology: queries run back-to-back and the
        slowest (compilation-bearing) run is discarded.
        """
        self.execute_sparql(text)

    # ------------------------------------------------------------------
    # Engine-specific execution
    # ------------------------------------------------------------------
    @abstractmethod
    def _execute_bound(self, query: ConjunctiveQuery) -> Relation:
        """Execute a filter-free query whose constants are encoded."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self.store.num_triples} triples>"


def _sliced_pages(
    stream: Iterator[Relation],
    offset: int,
    limit: int | None,
    names: list[str],
    name: str,
) -> Iterator[Relation]:
    """Slice a deduplicated canonical-order chunk stream to
    ``[offset, offset + limit)``, stopping the producer at the cap.

    Abandoning the returned iterator (or hitting the cap) closes the
    underlying stream so the executor does not keep enumerating. Always
    yields at least one (possibly empty) page.
    """

    def run() -> Iterator[Relation]:
        skip = offset
        taken = 0
        yielded = False
        try:
            for chunk in stream:
                rows = chunk.num_rows
                if rows == 0:
                    continue
                if skip >= rows:
                    skip -= rows
                    continue
                if skip:
                    chunk = chunk.slice_rows(skip)
                    skip = 0
                if limit is not None and chunk.num_rows > limit - taken:
                    chunk = chunk.head(limit - taken)
                taken += chunk.num_rows
                yield chunk.rename(name=name)
                yielded = True
                if limit is not None and taken >= limit:
                    break
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        if not yielded:
            yield Relation.empty(name, names)

    return run()
