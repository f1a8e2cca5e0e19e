"""Prepared statements: one parse + translate + plan per template family.

A :class:`PreparedStatement` is the serving tier's unit of repeated
work. It is built from a SPARQL template that may contain ``$name``
placeholders in term position (see :mod:`repro.sparql`), and splits the
old ``Engine.prepare_sparql`` → ``Engine.bind`` pipeline into explicit
stages with a cache at every level:

1. **prepare** (here, once): parse + translate the template;
2. **late binding** (per distinct parameter values, LRU-cached):
   substitute encoded constants into the translated query and
   dictionary-bind it — :meth:`execute` with values seen before skips
   this too;
3. **planning** (per template *structure*): the engine's structural
   plan cache recognises queries that differ only in constants, so new
   parameter values re-bind into an already compiled plan;
4. **results** (optional, LRU-cached): repeated executions with the
   same values return the cached relation without re-joining.

Every cache records the store's data-version epoch. When
:meth:`~repro.storage.vertical.VerticallyPartitionedStore.add_triples`
/ ``remove_triples`` bump it, cached *results* drop (the data changed),
but cached **bound plans survive** whenever they provably stay valid —
a conjunctive, numeric-literal-free binding only depends on dictionary
keys (which never change) and on its tables still existing, so the
statement re-checks table existence and keeps those entries instead of
re-warming the family from zero. Bindings that a mutation could
invalidate — union trees (a block dropped at bind time might bind now),
numeric-literal fan-outs (a new stored form widens the fan-out), and
provably-empty ``None`` bindings (the constant may exist now) — are
dropped. Either way a mutated store never serves a stale bound plan or
result.

Example::

    service = QueryService(EmptyHeadedEngine(dataset.store))
    stmt = service.prepare(
        "SELECT ?x WHERE { ?x ub:advisor $prof . ?x a ub:GraduateStudent }"
    )
    rows = stmt.execute(prof="<http://...AssistantProfessor0>")
    batch = stmt.executemany([{"prof": p} for p in professors])
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.core.query import (
    BoundUnion,
    ConjunctiveQuery,
    ParameterValue,
    has_numeric_literals,
    parameter_binding_mismatch,
    query_parameters,
    substitute_parameters,
)
from repro.engines.base import Engine
from repro.errors import ConfigError, ParameterError
from repro.storage.relation import Relation


@dataclass
class StatementStats:
    """Per-statement counters (monitoring and the benchmark ledger)."""

    executions: int = 0
    bind_hits: int = 0
    bind_misses: int = 0
    result_hits: int = 0
    invalidations: int = 0
    #: Bound plans kept across data-version bumps (update survival).
    bound_retained: int = 0
    #: Engine-reported plan dispositions: executions that reused the
    #: structural plan (values within the re-optimization factor) vs.
    #: executions re-planned for the bound values' selectivity class.
    plans_retained: int = 0
    plans_reoptimized: int = 0


class PreparedStatement:
    """A parsed, translated SPARQL template with late-bound parameters.

    Thread-safe: many threads may :meth:`execute` one statement
    concurrently (the serving layer's ``execute_concurrent`` does).
    """

    def __init__(
        self,
        engine: Engine,
        text: str,
        name: str = "query",
        *,
        bound_cache_size: int = 256,
        result_cache_size: int = 256,
    ) -> None:
        if bound_cache_size < 1:
            raise ConfigError(
                "PreparedStatement bound_cache_size must be >= 1"
            )
        if result_cache_size < 0:
            raise ConfigError(
                "PreparedStatement result_cache_size must be >= 0"
            )
        self.engine = engine
        self.text = text
        self.name = name
        self.query = engine.prepare_sparql(text, name=name)
        #: Names of the template's ``$`` placeholders (frozenset).
        self.parameters = query_parameters(self.query)
        self.stats = StatementStats()
        self._bound_cache_size = bound_cache_size
        self._result_cache_size = result_cache_size
        self._bound: OrderedDict[tuple, object] = OrderedDict()
        self._results: OrderedDict[tuple, Relation] = OrderedDict()
        self._lock = threading.RLock()
        self._data_version = engine.store.data_version

    # ------------------------------------------------------------------
    # Parameter handling
    # ------------------------------------------------------------------
    def _values_key(self, values: Mapping[str, ParameterValue]) -> tuple:
        mismatch = parameter_binding_mismatch(
            self.parameters, frozenset(values)
        )
        if mismatch is not None:
            raise ParameterError(
                f"statement expects parameters "
                f"{{{', '.join(sorted(self.parameters))}}} ({mismatch})"
            )
        return tuple(sorted(values.items()))

    def _check_data_version(self) -> None:
        """Refresh epoch-dependent caches after a store mutation.

        Results always drop (the data changed). Bound plans are
        *pruned*, not cleared: an entry marked retainable at insert time
        (conjunctive, no numeric-literal fan-out, successfully bound)
        stays valid across any mutation as long as every table it binds
        against still exists — dictionary keys are permanent and its
        binding never depended on table *content*. Everything else
        (union trees, numeric fan-outs, provably-empty bindings)
        re-binds on next use.
        """
        if self._data_version == self.engine.store.data_version:
            return
        with self._lock:
            if self._data_version == self.engine.store.data_version:
                return
            # Capture the epoch BEFORE the table snapshot: an update
            # landing in between then leaves a stale epoch recorded, so
            # the next call simply prunes again. (Recording the epoch
            # read *after* the snapshot could skip pruning for a
            # table-dropping update that raced the two reads.)
            epoch = self.engine.store.data_version
            available = self.engine.store.table_names()
            survivors: OrderedDict[tuple, tuple] = OrderedDict()
            for key, (bound, retainable) in self._bound.items():
                if retainable and all(
                    atom.relation in available for atom in bound.atoms
                ):
                    survivors[key] = (bound, retainable)
            self.stats.bound_retained += len(survivors)
            self._bound = survivors
            self._results.clear()
            self.stats.invalidations += 1
            self._data_version = epoch

    # ------------------------------------------------------------------
    # Late binding
    # ------------------------------------------------------------------
    def bind(
        self, /, **values: ParameterValue
    ) -> ConjunctiveQuery | BoundUnion | None:
        """The dictionary-bound query for one set of parameter values.

        ``None`` means the bound query provably matches nothing on this
        dataset (a value that never occurs, or a predicate with no
        triples). Cached per values; re-binding after new values only
        substitutes constants — the parse/translate in ``self.query``
        and the engine's compiled plan structure are reused.
        """
        self._check_data_version()
        key = self._values_key(values)
        with self._lock:
            if key in self._bound:
                self.stats.bind_hits += 1
                self._bound.move_to_end(key)
                return self._bound[key][0]
        # Bind against the epoch observed *now*; only cache the result
        # if no update (and no resulting invalidation) landed meanwhile,
        # else a stale plan could outlive the epoch that produced it.
        epoch = self.engine.store.data_version
        concrete = substitute_parameters(self.query, values)
        bound = self.engine.bind(concrete)
        # Retainable across updates: the conjunctive bind path only
        # encodes constants through the (append-only) dictionary — no
        # numeric fan-out, no block dropping — so the entry survives
        # epoch bumps while its tables exist (see _check_data_version).
        retainable = (
            bound is not None
            and isinstance(concrete, ConjunctiveQuery)
            and isinstance(bound, ConjunctiveQuery)
            and not has_numeric_literals(concrete)
        )
        with self._lock:
            self.stats.bind_misses += 1
            if (
                self._data_version == epoch
                and self.engine.store.data_version == epoch
            ):
                self._bound[key] = (bound, retainable)
                if len(self._bound) > self._bound_cache_size:
                    self._bound.popitem(last=False)
        return bound

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, /, **values: ParameterValue) -> Relation:
        """Answer the template for one set of parameter values.

        (``self`` is positional-only so even a parameter named
        ``$self`` works: ``statement.execute(self="<iri>")``.)
        """
        self._check_data_version()
        key = self._values_key(values)
        if self._result_cache_size:
            with self._lock:
                cached = self._results.get(key)
                if cached is not None:
                    self.stats.result_hits += 1
                    self.stats.executions += 1
                    self._results.move_to_end(key)
                    return cached
        epoch = self.engine.store.data_version
        bound = self.bind(**values)
        if bound is None:
            result = Relation.empty(
                self.name, [v.name for v in self.query.projection]
            )
        elif isinstance(bound, BoundUnion):
            result = self.engine.execute_bound_union(bound)
        else:
            result = self.engine.execute_bound(bound)
        disposition = self.engine.take_plan_disposition()
        with self._lock:
            self.stats.executions += 1
            if disposition == "retained":
                self.stats.plans_retained += 1
            elif disposition == "reoptimized":
                self.stats.plans_reoptimized += 1
            # Cache only results whose whole computation happened inside
            # one epoch (no update and no invalidation raced it).
            if (
                self._result_cache_size
                and self._data_version == epoch
                and self.engine.store.data_version == epoch
            ):
                self._results[key] = result
                if len(self._results) > self._result_cache_size:
                    self._results.popitem(last=False)
        return result

    def execute_iter(self, /, **values: ParameterValue):
        """Answer the template as an iterator of encoded result pages.

        The streaming analogue of :meth:`execute`: the concatenated
        pages are row-for-row the relation :meth:`execute` returns, but
        a streaming-capable engine stops enumerating once the consumer
        stops pulling (the top-k short-circuit). Binding rides the same
        bound-plan cache; results are *not* cached — a stream is
        consumed, not shared.
        """
        self._check_data_version()
        self._values_key(values)  # parameter validation
        bound = self.bind(**values)
        if bound is None:
            stream = iter(
                [
                    Relation.empty(
                        self.name, [v.name for v in self.query.projection]
                    )
                ]
            )
        elif isinstance(bound, BoundUnion):
            stream = self.engine.execute_bound_union_iter(bound)
        else:
            stream = self.engine.execute_bound_iter(bound)
        with self._lock:
            self.stats.executions += 1
        return stream

    def execute_decoded(
        self, /, **values: ParameterValue
    ) -> list[tuple[str | None, ...]]:
        """:meth:`execute`, decoded back to lexical terms."""
        return self.engine.decode(self.execute(**values))

    def executemany(
        self, param_rows: Iterable[Mapping[str, ParameterValue]]
    ) -> list[Relation]:
        """Answer the template for a batch of parameter rows (in order).

        The per-values caches make repeated rows cost one execution.
        """
        return [self.execute(**row) for row in param_rows]

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop cached bound plans and results (stats are preserved)."""
        with self._lock:
            self._bound.clear()
            self._results.clear()

    def __repr__(self) -> str:
        params = ", ".join(sorted(self.parameters)) or "-"
        return (
            f"<PreparedStatement {self.name!r} params=[{params}] "
            f"bound={len(self._bound)} results={len(self._results)} "
            f"engine={self.engine.name!r}>"
        )
