"""The EmptyHeaded-style engine: WCOJ + GHD plans + classic optimizations.

This is the paper's primary system. The engine compiles a conjunctive
query into a GHD plan and executes it with the generic worst-case
optimal join per node. Multi-block queries (UNION/OPTIONAL) execute
block-wise through the same plan cache, so each branch's conjunctive
plan is compiled once. The
:class:`~repro.core.config.OptimizationConfig` switches the paper's
Table I optimizations on and off individually, which is how the ablation
benchmarks drive this class.

Plan caching is **structural**: the LRU key strips the concrete values
of equality selections (after :func:`~repro.core.query.normalize`
every constant is a selection variable, so two queries that differ only
in constants — e.g. a prepared template executed with two different
parameters — share one GHD, attribute order, and pipelining decision).
A hit swaps the cached plan's selection values for the current ones,
which is exactly the *late binding* a prepared statement needs:
re-executing a template with new parameters re-binds constants without
re-planning. (The attach order is chosen from the sketched frequencies
of the first value seen and reused — the classic prepared-statement
trade of per-value optimality for compilation cost — until a value's
frequency diverges far enough to re-optimize, see
:meth:`EmptyHeadedEngine.plan_for`.)

Update handling is **incremental** — this is the one engine that serves
writes: :meth:`EmptyHeadedEngine.apply_delta` absorbs a store update by
swapping in a *patched copy* of the catalog — unaffected relations and
their cached trie indexes are shared with the old catalog, affected
relations are replaced, and their cached tries are spliced via
:meth:`~repro.trie.trie.Trie.apply_delta`. Compiled plans survive (their
cache key is structural and their execution reads whatever the current
catalog holds; only the sketch bounds they were ordered by go stale),
so a small update costs work proportional to the batch instead of a
full index rebuild. Catch-up nets the pending batches into one
(:func:`~repro.storage.vertical.coalesce`) and patches once. When the
delta log no longer reaches back or the
pending batches exceed ``delta_rebuild_fraction`` of the store, catch-up
builds from scratch through the constructor's own
:meth:`~EmptyHeadedEngine._build_structures`. The
catalog/planner/executor trio is bundled and swapped atomically, and
every execution reads the bundle once — a query racing an update sees
one consistent epoch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Iterator, NamedTuple

from repro.core.blocks import block_queries
from repro.core.bounds import (
    REOPTIMIZE_FACTOR,
    counts_diverge,
    selection_counts,
    value_class,
)
from repro.core.config import OptimizationConfig
from repro.core.executor import ExecutorStats, GHDExecutor
from repro.core.planner import Plan, Planner
from repro.core.query import (
    BoundUnion,
    ConjunctiveQuery,
    NormalizedQuery,
    Variable,
    normalize,
    substitute_parameters,
)
from repro.core.sketch import TableSketches
from repro.engines.base import Engine
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.vertical import (
    SUBJECT,
    TRIPLES_RELATION,
    DeltaBatch,
    VerticallyPartitionedStore,
    build_triples_view,
    catalog_view_delta,
    coalesce,
    sketches_apply_delta,
    triples_sketches,
)

#: A plan cache key: everything planning depends on except the concrete
#: selection values (and the query name, which only labels results).
PlanKey = tuple[
    tuple, tuple[Variable, ...], tuple[Variable, ...], int | None, int
]


class _Structures(NamedTuple):
    """The catalog and its dependents, swapped as one atomic bundle."""

    catalog: Catalog
    planner: Planner
    executor: GHDExecutor
    #: The epoch's frequency sketches (shared dict; extended in place
    #: only with the derived ``__triples__`` entry, which is computed
    #: deterministically from the per-table entries — a benign race).
    sketches: TableSketches


class EmptyHeadedEngine(Engine):
    """Worst-case optimal engine with GHD plans (the paper's EH)."""

    name = "emptyheaded"

    #: Bound on the compiled-plan cache, evicted least-recently-used —
    #: the same policy (and default size) as the SPARQL text cache, so
    #: long-tail query traffic cannot grow process memory without limit.
    plan_cache_size: int = 512

    #: Above this fraction of the store, pending batches are cheaper to
    #: absorb by building from scratch than by patching.
    delta_rebuild_fraction: float = 0.25

    def __init__(
        self,
        store: VerticallyPartitionedStore,
        config: OptimizationConfig | None = None,
    ) -> None:
        super().__init__(store)
        self.config = config if config is not None else OptimizationConfig.all_on()
        self._plan_cache: OrderedDict[PlanKey, Plan] = OrderedDict()
        self._plan_lock = threading.RLock()
        self._disposition = threading.local()
        self._build_structures()

    def _build_structures(self) -> None:
        """Build the catalog from the store and drop compiled plans.

        Catalog and sketches are read *before* taking ``_plan_lock``:
        catch-up already holds the store lock when it gets here, so
        reading the store under ``_plan_lock`` would invert that order.
        """
        catalog = Catalog()
        catalog.register_all(self.store.relations())
        sketches = dict(self.store.column_sketches())
        with self._plan_lock:
            self._install(catalog, sketches)
            self._plan_cache.clear()

    def _install(
        self, catalog: Catalog, sketches: TableSketches
    ) -> None:
        """Swap in a catalog (with fresh planner/executor) atomically.

        The executor's stats object is carried across swaps so the
        enumerated-tuples counter is cumulative per engine, not per
        epoch."""
        previous = getattr(self, "_structures", None)
        stats = previous.executor.stats if previous is not None else None
        self._structures = _Structures(
            catalog,
            Planner(self.config, sketches),
            GHDExecutor(catalog, stats=stats),
            sketches,
        )

    # The bundle parts under their traditional names (read the bundle
    # *once* when consistency across parts matters — executions do).
    @property
    def catalog(self) -> Catalog:
        return self._structures.catalog

    @property
    def planner(self) -> Planner:
        return self._structures.planner

    @property
    def executor(self) -> GHDExecutor:
        return self._structures.executor

    def _catch_up(self) -> None:
        """Patch once through :meth:`apply_delta` with the net effect of
        the pending batches (:func:`~repro.storage.vertical.coalesce`);
        build from scratch when the delta log no longer reaches back or
        the pending batches exceed ``delta_rebuild_fraction`` of the
        store."""
        batches = self.store.changes_since(
            self._data_version,
            max_rows=int(
                self.delta_rebuild_fraction * max(self.store.num_triples, 1)
            ),
        )
        if batches is None:
            self._build_structures()
            return
        if batches:
            self.apply_delta(coalesce(batches))

    def apply_delta(self, delta: DeltaBatch) -> None:
        """Absorb one update batch by patching a catalog copy.

        Unaffected relations and cached tries are shared; affected
        cached tries are spliced in place of a rebuild; compiled plans
        and the structural plan cache survive (their attach orders were
        chosen from the pre-batch sketches — the prepared-statement
        trade again) except plans over just-**compacted** tables, which
        are evicted so the next execution re-plans against the merged
        sketches (see :meth:`_evict_plans_touching`).

        A registered ``__triples__`` union view is *patched* from the
        same batch (its three-column delta rows carry each predicate's
        dictionary key), so its relation and any cached tries over it
        survive small updates too — hot variable-predicate traffic no
        longer pays an O(store) view rebuild per epoch. A view that was
        never registered stays lazy: only variable-predicate queries
        ever pay for building it.
        """
        with self._plan_lock:
            catalog = self._structures.catalog
            added, removed, dropped = catalog_view_delta(
                catalog, delta, self.store.predicate_key
            )
            # The catalog patches relations and tries from the delta
            # rows alone, so applying batches one by one walks the
            # committed epochs exactly — never a mixed snapshot. The
            # sketch registry merges the same rows (exactly), including
            # the derived ``__triples__`` entry when present.
            self._install(
                catalog.apply_delta(added, removed, dropped),
                sketches_apply_delta(
                    self._structures.sketches, added, removed, dropped
                ),
            )
            if delta.compacted_tables:
                self._evict_plans_touching(
                    set(delta.compacted_tables) | {TRIPLES_RELATION}
                )

    def _evict_plans_touching(self, names: set[str]) -> None:
        """Drop cached plans whose atoms read any of ``names``.

        Called when the store compacts a table's delta into a fresh
        main segment: the compaction is a physical no-op, but it marks
        the point where enough delta accumulated that plans ordered by
        pre-delta sketch bounds have drifted. Evicting them makes the
        next execution re-plan — and re-planning reads the epoch's
        merged sketches, which already hold every committed batch, so
        the bounds are current rather than carried over. (The union
        view is always included: its rows contain every compacted
        table's.)
        """
        with self._plan_lock:
            stale = [
                key
                for key in self._plan_cache
                if any(atom.relation in names for atom in key[0])
            ]
            for key in stale:
                del self._plan_cache[key]

    def _ensure_triples_view(
        self, query: NormalizedQuery, structures: _Structures
    ) -> None:
        """Register the ``__triples__`` union view on first use (it is
        built lazily: only variable-predicate queries pay for it).

        The view is built from the *catalog's own* predicate tables,
        not from the live store: a query executing against an older
        catalog snapshot while an update commits must not join the new
        epoch's union view with the old epoch's tables (a torn read).
        Predicate keys are immutable, so the key lookup is safe. The
        view's column sketches are derived from the same epoch's
        per-table sketches (no scan) so bound-driven orders cover
        variable-predicate atoms too.
        """
        catalog = structures.catalog
        if not any(
            atom.relation == TRIPLES_RELATION for atom in query.atoms
        ):
            return
        if TRIPLES_RELATION not in catalog:
            catalog.get_or_register(
                build_triples_view(
                    catalog.two_column_tables(), self.store.predicate_key
                )
            )
        if TRIPLES_RELATION not in structures.sketches:
            tables = {
                name: sketch
                for name, sketch in structures.sketches.items()
                if name != TRIPLES_RELATION
            }
            structures.sketches[TRIPLES_RELATION] = triples_sketches(
                tables,
                {
                    name: sketch[SUBJECT].total
                    for name, sketch in tables.items()
                },
                self.store.predicate_key,
            )

    @staticmethod
    def _plan_key(normalized: NormalizedQuery) -> PlanKey:
        return (
            normalized.atoms,
            normalized.projection,
            tuple(normalized.selections),
            normalized.limit,
            normalized.offset,
        )

    def plan_for(
        self,
        query: ConjunctiveQuery | NormalizedQuery,
        structures: _Structures | None = None,
    ) -> Plan:
        """The (LRU-cached) GHD plan for an encoded-constant query.

        Cache keys are structural (selection *positions*, not values):
        a prepared template's parameter family compiles once, and each
        execution only swaps the selection values into the plan. With
        ``config.reoptimize``, a structural hit additionally checks the
        current values' sketched frequencies against the cached plan's
        assumption: values within :data:`REOPTIMIZE_FACTOR` *retain* the
        plan (the fast path — two sketch probes), divergent values
        *re-optimize* into a plan cached under a
        ``(structure, selectivity-class)`` key, so each value class
        compiles once and hot values stop running cold-value orders.
        """
        if structures is None:
            structures = self._structures
        normalized = (
            normalize(query) if isinstance(query, ConjunctiveQuery) else query
        )
        # Even on a plan-cache hit: an update may have lazily dropped
        # the union view from the catalog since this plan was compiled.
        self._ensure_triples_view(normalized, structures)
        key = self._plan_key(normalized)
        with self._plan_lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
        disposition = "retained" if plan is not None else None
        if (
            plan is not None
            and self.config.reoptimize
            and normalized.selections
            and structures.sketches
        ):
            current = selection_counts(normalized, structures.sketches)
            if counts_diverge(
                plan.assumed_counts, current, REOPTIMIZE_FACTOR
            ):
                value_key = key + (
                    value_class(current, REOPTIMIZE_FACTOR),
                )
                with self._plan_lock:
                    specialized = self._plan_cache.get(value_key)
                    if specialized is not None:
                        self._plan_cache.move_to_end(value_key)
                if specialized is None:
                    specialized = structures.planner.plan(normalized)
                    with self._plan_lock:
                        specialized = self._plan_cache.setdefault(
                            value_key, specialized
                        )
                        if len(self._plan_cache) > self.plan_cache_size:
                            self._plan_cache.popitem(last=False)
                plan = specialized
                disposition = "reoptimized"
        if plan is None:
            plan = structures.planner.plan(normalized)
            with self._plan_lock:
                plan = self._plan_cache.setdefault(key, plan)
                if len(self._plan_cache) > self.plan_cache_size:
                    self._plan_cache.popitem(last=False)
        if disposition is not None:
            self._disposition.value = disposition
        if plan.query is not normalized:
            # Late binding: reuse the compiled structure, carry the
            # current selection values (and result name).
            plan = replace(plan, query=normalized)
        return plan

    def take_plan_disposition(self) -> str | None:
        """Pop this thread's last plan-cache disposition (see
        :meth:`plan_for`); the serving layer turns it into the
        ``plans_retained``/``plans_reoptimized`` statement counters."""
        value = getattr(self._disposition, "value", None)
        self._disposition.value = None
        return value

    def explain_sparql(self, text: str, parameters=None) -> str:
        """The plan description for a SPARQL query (see Plan.explain).

        A ``$name`` template needs its ``parameters`` supplied — the
        compiled plan is structural, but binding (and with it the
        empty-result short-circuit) is per value.
        """
        query = self.prepare_sparql(text)
        query = substitute_parameters(query, parameters or {})
        bound = self.bind(query)
        if bound is None:
            return "empty result: some constant does not occur in the data"
        if isinstance(bound, BoundUnion):
            parts = [f"union of {len(bound.blocks)} block(s)"]
            for block_query in block_queries(bound):
                parts.append(self.plan_for(block_query).explain())
                parts.append(self._plan_source_line())
            return "\n".join(parts)
        inner, _ = self.split_modifiers(bound)
        return self.plan_for(inner).explain() + "\n" + self._plan_source_line()

    def _plan_source_line(self) -> str:
        """How the last :meth:`plan_for` call satisfied its lookup."""
        source = {
            "retained": "structural-cached",
            "reoptimized": "value-reoptimized",
        }.get(self.take_plan_disposition(), "freshly planned")
        return f"plan source: {source}"

    def warm_indexes(self, query: ConjunctiveQuery | BoundUnion) -> int:
        """Plan a bound query and build every trie it will probe,
        without executing it (the QueryService warm-up path)."""
        self.check_data_version()
        structures = self._structures
        if isinstance(query, BoundUnion):
            return sum(
                structures.executor.warm(
                    self.plan_for(block_query, structures)
                )
                for block_query in block_queries(query)
            )
        inner, _ = self.split_modifiers(query)
        plan = self.plan_for(inner, structures)
        return structures.executor.warm(plan)

    def _execute_bound(self, query: ConjunctiveQuery) -> Relation:
        structures = self._structures
        plan = self.plan_for(query, structures)
        return structures.executor.execute(plan)

    #: Frontier chunk size bounds for the streaming executor: small
    #: requests still amortize the per-chunk numpy dispatch overhead,
    #: huge ones stay cache-friendly.
    _STREAM_CHUNK_MIN = 64
    _STREAM_CHUNK_MAX = 4096

    @property
    def executor_stats(self) -> ExecutorStats:
        """Cumulative executor work counters (survive epoch swaps)."""
        return self._structures.executor.stats

    def _execute_bound_iter(
        self, query: ConjunctiveQuery
    ) -> Iterator[Relation] | None:
        """Stream via the GHD executor when the plan allows it.

        The structures bundle is captured *here*, eagerly, so the
        returned generator keeps reading one pinned epoch however long
        the consumer holds it across store updates. The chunk size is
        sized to the query's own cap: a deep-LIMIT query enumerates
        O(offset + limit) frontier rows per chunk, independent of store
        scale.
        """
        structures = self._structures
        plan = self.plan_for(query, structures)
        if query.limit is None:
            chunk_rows = self._STREAM_CHUNK_MAX
        else:
            chunk_rows = min(
                max(query.offset + query.limit, self._STREAM_CHUNK_MIN),
                self._STREAM_CHUNK_MAX,
            )
        return structures.executor.execute_iter(plan, chunk_rows=chunk_rows)
