"""A serving layer over any engine: prepared statements, concurrency,
warming, batching, and update-safe invalidation.

Production RDF stores pair their join algorithms with a query-service
tier that amortizes compilation over repeated traffic (the RDF-store
survey's "query processing" layer; EmptyHeaded itself caches compiled
queries across back-to-back benchmark runs). :class:`QueryService`
provides that tier for every engine in this library:

* **Prepared-statement cache** — :meth:`prepare` turns a query text
  (optionally a ``$parameter`` template) into a
  :class:`~repro.service.prepared.PreparedStatement`, LRU-cached per
  text. A hit skips the SPARQL front-end entirely; the statement's own
  caches skip binding and planning for repeated parameter values.
* **Concurrent execution** — :meth:`execute_concurrent` answers a batch
  of requests on a thread pool over the engine's read-only catalogs.
  Every cache on the path (statement cache, bound-plan caches, engine
  plan cache, trie cache) is thread-safe, and results are identical to
  serial execution.
* **Update safety** — the store's
  :meth:`~repro.storage.vertical.VerticallyPartitionedStore.add_triples`
  / ``remove_triples`` bump a data-version epoch; statements, engine
  plan caches, trie caches, and the ``__triples__`` view all check it,
  so a mutated store never serves a stale bound plan. Updates are
  **incremental** end to end: engines patch their indexes from the
  store's delta log (wholesale rebuilds only past a delta-fraction
  threshold), and prepared statements keep their provably-still-valid
  bound plans across epochs instead of re-warming from zero — only
  cached results (whose rows the update may have changed) drop.
* **Catalog warming** — :meth:`warm` prepares queries and pre-builds
  every trie index their plans will probe (without executing), so the
  first live request after a deploy does not pay index construction.
* **Batched execution** — :meth:`execute_many` answers a batch of query
  texts, executing each *distinct* text once and fanning the result out
  to duplicate positions.

Example::

    from repro import EmptyHeadedEngine, generate_dataset
    from repro.service import QueryService

    dataset = generate_dataset(universities=1, seed=0)
    service = QueryService(EmptyHeadedEngine(dataset.store))

    stmt = service.prepare(
        "SELECT ?x WHERE { ?x <...advisor> $prof }"
    )
    rows = stmt.execute(prof="<http://...AssistantProfessor0>")

    service.warm([query_text])
    rows = service.execute(query_text)        # joins only, no parse/plan
    print(service.stats)                      # hits/misses/evictions
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.query import ParameterValue
from repro.engines.base import Engine
from repro.errors import (
    BindingError,
    ConfigError,
    ParameterError,
    ParseError,
    PlanningError,
    QueryTimeoutError,
)
from repro.service.prepared import PreparedStatement
from repro.service.protocol import (
    QueryRequest,
    Session,
    UpdateRequest,
    UpdateResponse,
)
from repro.storage.relation import Relation

#: Threads that wait out deadline-bounded executions (started lazily,
#: one per concurrently running timed request up to this bound).
_DEADLINE_WORKERS = 32

#: One request for :meth:`QueryService.execute_concurrent`: a bare query
#: text, or ``(text, {param: value, ...})`` for a template.
Request = str | tuple[str, Mapping[str, ParameterValue]]


@dataclass
class ServiceStats:
    """Counters exposed for monitoring and benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    executions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _RelationRows:
    """Rows source over a materialized encoded result: decodes one page
    per ``take`` through the engine's dictionary."""

    def __init__(self, engine: Engine, relation: Relation) -> None:
        self.relation = relation
        self.columns = relation.attributes
        self.num_rows = relation.num_rows
        self._engine = engine
        self._position = 0

    def take(self, n: int):
        start = self._position
        stop = self._position = min(start + n, self.num_rows)
        return (
            self._engine.decode_rows(self.relation, start, stop),
            stop >= self.num_rows,
        )

    def close(self) -> None:
        pass


class _StreamRows:
    """Rows source over the engine's live result iterator.

    Pulls encoded chunks on demand — the engine pinned its structure
    snapshot when the iterator was created, so the stream pages one
    consistent epoch — and stops the enumeration on ``close``.
    """

    num_rows = None

    def __init__(
        self,
        engine: Engine,
        chunks: Iterator[Relation],
        columns: tuple[str, ...],
    ) -> None:
        self.columns = columns
        self._engine = engine
        self._chunks: Iterator[Relation] | None = chunks
        self._chunk: Relation | None = None
        self._chunk_pos = 0

    def _current_chunk(self) -> Relation | None:
        """The chunk holding the next undecoded row (pulls as needed)."""
        while True:
            if (
                self._chunk is not None
                and self._chunk_pos < self._chunk.num_rows
            ):
                return self._chunk
            self._chunk = None
            self._chunk_pos = 0
            if self._chunks is None:
                return None
            try:
                self._chunk = next(self._chunks)
            except StopIteration:
                self._chunks = None
                return None

    def take(self, n: int):
        rows: list = []
        while len(rows) < n:
            chunk = self._current_chunk()
            if chunk is None:
                break
            take = min(n - len(rows), chunk.num_rows - self._chunk_pos)
            rows.extend(
                self._engine.decode_rows(
                    chunk, self._chunk_pos, self._chunk_pos + take
                )
            )
            self._chunk_pos += take
        return rows, self._current_chunk() is None

    def close(self) -> None:
        chunks, self._chunks, self._chunk = self._chunks, None, None
        close = getattr(chunks, "close", None)
        if close is not None:
            close()


class QueryService:
    """Wraps an :class:`~repro.engines.base.Engine` for repeated traffic.

    Also the in-process **backend** of the protocol layer (see
    :mod:`repro.service.protocol`): :meth:`run`, :meth:`update`,
    :meth:`explain` and :meth:`stats_payload` are what a
    :class:`~repro.service.protocol.Session` drives. The engine may be a
    plain one or a :class:`~repro.distributed.engine.ShardedEngine`.
    """

    def __init__(self, engine: Engine, cache_size: int = 128) -> None:
        if cache_size < 1:
            raise ConfigError("QueryService cache_size must be >= 1")
        self.engine = engine
        self.cache_size = cache_size
        self.stats = ServiceStats()
        self._cache: OrderedDict[str, PreparedStatement] = OrderedDict()
        self._lock = threading.RLock()
        self._data_version = engine.store.data_version
        self._deadline_pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Preparation (the cached parse -> translate pipeline)
    # ------------------------------------------------------------------
    def prepare(self, text: str, name: str = "query") -> PreparedStatement:
        """The cached prepared statement for a query text (LRU-tracked).

        Works for plain queries and ``$parameter`` templates alike; a
        plain query is simply a statement with no parameters.
        """
        with self._lock:
            if self._data_version != self.engine.store.data_version:
                # Statements re-bind lazily via their own epoch check;
                # the service only surfaces the event in its stats.
                self.stats.invalidations += 1
                self._data_version = self.engine.store.data_version
            statement = self._cache.get(text)
            if statement is not None:
                self.stats.hits += 1
                self._cache.move_to_end(text)
                return statement
            self.stats.misses += 1
        # Parse + translate outside the lock so concurrent misses on
        # *different* texts don't serialize; a race on the same text is
        # resolved below (first insert wins, like Engine.prepare_sparql).
        statement = PreparedStatement(self.engine, text, name=name)
        with self._lock:
            existing = self._cache.get(text)
            if existing is not None:
                return existing
            self._cache[text] = statement
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self.stats.evictions += 1
            return statement

    # ------------------------------------------------------------------
    # The protocol backend (what a Session drives)
    # ------------------------------------------------------------------
    def _run_with_deadline(
        self, statement: PreparedStatement, values: Mapping, timeout_s
    ) -> Relation:
        """Execute, abandoning the wait at ``timeout_s``.

        Python cannot preempt the worker thread — on a timeout it
        finishes in the background and its result is discarded; only
        the caller's wait is bounded.
        """
        if timeout_s is None:
            return statement.execute(**values)
        with self._lock:
            if self._deadline_pool is None:
                self._deadline_pool = ThreadPoolExecutor(
                    max_workers=_DEADLINE_WORKERS,
                    thread_name_prefix="repro-deadline",
                )
            pool = self._deadline_pool
        future = pool.submit(statement.execute, **values)
        try:
            return future.result(timeout=timeout_s)
        except _FutureTimeout:
            future.cancel()
            raise QueryTimeoutError(
                f"query exceeded its {timeout_s:g}s deadline"
            ) from None

    def run(self, request: QueryRequest, timeout_s: float | None = None):
        """Prepare (cached) and execute one request into a rows source.

        A ``stream`` request is fed from the engine's live result
        iterator: its setup is eager (binding, validation, epoch
        capture) but cheap, and the join work it defers into fetches is
        outside the deadline's reach.
        """
        statement = self.prepare(request.text, name=request.name)
        try:
            if request.stream:
                rows = _StreamRows(
                    self.engine,
                    statement.execute_iter(**request.parameters),
                    tuple(v.name for v in statement.query.projection),
                )
            else:
                rows = _RelationRows(
                    self.engine,
                    self._run_with_deadline(
                        statement, request.parameters, timeout_s
                    ),
                )
        except (ParseError, ParameterError):
            raise
        except PlanningError as exc:
            # The text parsed and translated, so a planning rejection
            # is the request's fault (not a library bug): report it in
            # the 400 family.
            raise BindingError(str(exc)) from exc
        with self._lock:
            self.stats.executions += 1
        return rows

    def update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply one add/remove batch through the store's delta path.

        Rides the same incremental machinery as direct
        ``add_triples``/``remove_triples`` calls: engines patch their
        indexes from the delta log and prepared statements keep their
        still-valid bound plans.
        """
        store = self.engine.store
        added = store.add_triples(request.add) if request.add else 0
        removed = (
            store.remove_triples(request.remove) if request.remove else 0
        )
        return UpdateResponse(
            added=added,
            removed=removed,
            data_version=store.data_version,
        )

    def explain(
        self,
        text: str,
        parameters: Mapping[str, ParameterValue] | None = None,
    ) -> str:
        """The engine's plan description for a query text.

        Engines with a GHD planner render the decomposition tree;
        others answer with their name (they plan per execution).
        """
        explain = getattr(self.engine, "explain_sparql", None)
        if explain is None:
            return (
                f"engine {self.engine.name!r} plans per "
                "execution (no compiled plan to describe)"
            )
        return explain(text, parameters)

    def stats_payload(self) -> dict:
        """Service/store counters (the ``/stats`` endpoint's body)."""
        store = self.engine.store
        return {
            "engine": self.engine.name,
            "triples": store.num_triples,
            "tables": len(store.tables),
            "data_version": store.data_version,
            "compactions": store.compactions,
            "service": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "executions": self.stats.executions,
                "invalidations": self.stats.invalidations,
                "hit_rate": round(self.stats.hit_rate, 4),
                "cached_statements": len(self.cached_texts()),
            },
        }

    def workers(self) -> tuple[int, int | None]:
        """``(live, configured)`` executing processes: this one, with
        no bound of its own (callers bring the threads)."""
        return 1, None

    def close(self) -> None:
        """Stop the deadline threads (abandoned executions finish in
        the background); the statement cache stays usable."""
        with self._lock:
            pool, self._deadline_pool = self._deadline_pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Sessions (the protocol layer's entry point)
    # ------------------------------------------------------------------
    def session(self, **options) -> Session:
        """Open a protocol :class:`~repro.service.protocol.Session` over
        this service (``options`` are the session's own keywords).

        The session API — execute into a cursor, fetch in pages, close
        — is the primary public surface; the ``execute*`` methods below
        call the same :meth:`run` a session does, so in-process callers
        and the HTTP front-end exercise one code path.
        """
        return Session(self, **options)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        text: str,
        name: str = "query",
        parameters: Mapping[str, ParameterValue] | None = None,
    ) -> Relation:
        """Answer one query; repeat texts skip parsing and planning.

        ``parameters`` supplies values for a ``$parameter`` template
        (exactly the template's placeholders; a plain query takes none).
        Returns the encoded relation, which only this backend has.
        """
        return self.run(
            QueryRequest(text, parameters or {}, name=name)
        ).relation

    def execute_decoded(
        self,
        text: str,
        name: str = "query",
        parameters: Mapping[str, ParameterValue] | None = None,
    ) -> list[tuple[str | None, ...]]:
        """:meth:`execute`, decoded back to lexical terms (``None`` for
        variables an OPTIONAL row never bound)."""
        rows = self.run(QueryRequest(text, parameters or {}, name=name))
        return rows.take(rows.num_rows)[0]

    def executemany(
        self,
        text: str,
        param_rows: Iterable[Mapping[str, ParameterValue]],
    ) -> list[Relation]:
        """Answer one template for a batch of parameter rows (in order)."""
        results = self.prepare(text).executemany(param_rows)
        with self._lock:
            self.stats.executions += len(results)
        return results

    def execute_many(self, texts: Sequence[str]) -> list[Relation]:
        """Answer a batch; each distinct text is executed exactly once.

        Results are returned in input order; duplicate texts within the
        batch share one execution (and one result object).
        """
        results: dict[str, Relation] = {}
        out: list[Relation] = []
        for text in texts:
            result = results.get(text)
            if result is None:
                result = self.execute(text)
                results[text] = result
            out.append(result)
        return out

    def execute_concurrent(
        self,
        requests: Sequence[Request],
        max_workers: int = 4,
    ) -> list[Relation]:
        """Answer a batch of requests on a thread pool, in input order.

        Each request is a query text or ``(text, parameters)``. The
        engine's catalogs are read-only for the whole batch and every
        cache on the path is thread-safe, so the returned rows are
        identical to serial execution of the same batch.
        """
        if max_workers < 1:
            raise ConfigError(
                "execute_concurrent max_workers must be >= 1"
            )

        def run(request: Request) -> Relation:
            if isinstance(request, str):
                return self.execute(request)
            text, parameters = request
            return self.execute(text, parameters=parameters)

        if len(requests) <= 1 or max_workers == 1:
            return [run(request) for request in requests]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(run, requests))

    # ------------------------------------------------------------------
    # Warming
    # ------------------------------------------------------------------
    def warm(self, texts: Iterable[str]) -> int:
        """Prepare queries and pre-build the indexes their plans probe.

        For engines with a planner/trie-cache (the EmptyHeaded family)
        each parameterless query is planned and every trie the plan
        touches is built into the catalog cache without executing the
        join; templates are prepared (parse + translate) only — their
        plans depend on parameter values. Returns the number of tries
        warmed (0 for engines whose indexes are fully built at load
        time).
        """
        warmed = 0
        warm_indexes = getattr(self.engine, "warm_indexes", None)
        for text in texts:
            statement = self.prepare(text)
            if statement.parameters or warm_indexes is None:
                continue
            bound = statement.bind()
            if bound is not None:
                warmed += warm_indexes(bound)
        return warmed

    # ------------------------------------------------------------------
    def cached_texts(self) -> list[str]:
        """Cached query texts, least- to most-recently used."""
        with self._lock:
            return list(self._cache)

    def clear(self) -> None:
        """Drop all cached statements (stats are preserved)."""
        with self._lock:
            self._cache.clear()

    def __repr__(self) -> str:
        return (
            f"<QueryService engine={self.engine.name!r} "
            f"cached={len(self._cache)}/{self.cache_size} "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )
