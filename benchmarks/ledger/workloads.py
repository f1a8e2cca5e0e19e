"""The ledger's seven workloads.

Each workload says how to build the program's state (``setup``, the
part ``setup_s`` times), how to derive its inputs and reference answers
(``prepare``, untimed), what one op is (``execute``), how an op's
output is verified (``check`` per op, ``finish`` for deferred and
final-state checks), and how the traced pass walks the same op through
the layers' public functions (``walk``). Why each exists is recorded in
``BENCHMARK.json`` and the README.

Only public functions of ``repro`` are imported — never ``repro.bench``.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro import (
    ColumnStoreEngine,
    EmptyHeadedEngine,
    QueryService,
    generate_dataset,
)
from repro.core.query import substitute_parameters
from repro.distributed import ShardedEngine, ShardedStore
from repro.lubm.generator import GeneratorConfig, generate_triples
from repro.lubm.queries import PAPER_QUERY_IDS, lubm_query
from repro.service.cluster import ClusterHttpServer, ClusterQueryService
from repro.service.formats import serializer_for
from repro.service.http import SparqlHttpServer
from repro.service.prepared import PreparedStatement
from repro.service.protocol import QueryRequest, UpdateRequest
from repro.sparql.parser import parse_sparql
from repro.sparql.translate import sparql_to_query
from repro.storage.vertical import vertically_partition

import stream as gen
from client import KeepAliveClient


@dataclass(frozen=True)
class Scale:
    """Input sizes: the full ledger, or the timing-free smoke run."""

    universities: int
    graph: tuple[int, int, int]  # nodes, random edges, community size
    min_setups: int
    warmup_slices: int
    blocks: int


FULL = Scale(
    universities=4, graph=(2000, 12000, 26),
    min_setups=3, warmup_slices=3, blocks=8,
)
SMOKE = Scale(
    universities=1, graph=(300, 1500, 12),
    min_setups=1, warmup_slices=1, blocks=2,
)

GHOST_PREFIX = "<http://ledger.bench/ghost/"
JSON = serializer_for("json")


def rows_digest(rows) -> str:
    """sha256 of the sorted decoded rows (order-insensitive identity)."""
    sha = hashlib.sha256()
    for row in sorted(rows, key=repr):
        sha.update(repr(row).encode("utf-8"))
    return sha.hexdigest()


def _objects(store, table: str) -> list[str]:
    """Distinct decoded objects of one predicate table, sorted."""
    keys = np.unique(store.tables[table].column("object"))
    return sorted(store.dictionary.decode(int(key)) for key in keys)


def _lubm_config(scale: Scale) -> GeneratorConfig:
    # The dataset is the database, not the request stream: its seed is
    # fixed so every --seed queries the same store.
    return GeneratorConfig(universities=scale.universities, seed=0)


def _lubm_triples(scale: Scale, timings: dict) -> list:
    start = time.perf_counter()
    triples = list(generate_triples(_lubm_config(scale)))
    timings["lubm.generate_s"] = time.perf_counter() - start
    return triples


def _load(triples, timings: dict):
    """Dictionary-encode and vertically partition (``storage.load_s``)."""
    start = time.perf_counter()
    store = vertically_partition(iter(triples))
    timings["storage.load_s"] = time.perf_counter() - start
    return store


class Workload:
    """Base: the driver calls these in the order of the module docstring."""

    name = ""
    #: Slices the untraced prefix and the traced pass each replay per
    #: second of ``--seconds`` (fixed counts, so counters repeat).
    trace_slices_per_s = 1.0
    #: The span whose duration is the op itself in the traced pass
    #: (``None``: the whole walk is the op).
    primary_span: str | None = None
    #: The per-layer metric that reports the HTTP span's self time.
    http_self_metric = "service.http_self_ms"

    def __init__(self, seed: int, scale: Scale, shm_prefix: str) -> None:
        self.seed = seed
        self.scale = scale
        self.shm_prefix = shm_prefix
        #: Layer timings taken while building state (traced runs).
        self.timings: dict[str, float] = {}
        #: The traced run times generation and load separately; the
        #: untraced run streams one into the other, as users do.
        self.traced = False

    def lubm_store(self):
        if self.traced:
            return _load(_lubm_triples(self.scale, self.timings), self.timings)
        return generate_dataset(
            universities=self.scale.universities, seed=0
        ).store

    def warmup_slices(self) -> int:
        """Untimed slices that precede timing."""
        return self.scale.warmup_slices

    # -- state ---------------------------------------------------------
    def setup(self, stack: ExitStack) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def stream_parts(self):
        """Byte strings identifying the generated inputs (digest)."""
        raise NotImplementedError

    # -- ops -----------------------------------------------------------
    def slice(self, index: int) -> list[tuple]:
        """Slice ``index`` as ``(op type, payload)`` pairs."""
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, result) -> bool:
        raise NotImplementedError

    def finish(self) -> int:
        """Deferred checks after the last op; returns failed checks."""
        return 0

    # -- tracing -------------------------------------------------------
    def trace_prepare(self, history: range) -> None:
        """Build whatever the walk needs beside the program (shadows);
        ``history`` is the slices the program has served so far."""

    def walk(self, op, tracer, rid: int) -> bool:
        """Run one op as layer calls under spans; returns its check."""
        raise NotImplementedError

    def walk_slice(self, ops: list, tracer, first_rid: int) -> list[bool]:
        return [
            self.walk(op, tracer, first_rid + offset)
            for offset, op in enumerate(ops)
        ]

    def trace_counts(self, tracer) -> None:
        """Fold end-of-pass counters into ``tracer.counts``."""


# ----------------------------------------------------------------------
# Engine-level workloads: LUBM warm / cold, cyclic graph patterns
# ----------------------------------------------------------------------
class _EngineWorkload(Workload):
    """Ops are ``engine.execute_sparql(text)`` checked against a
    ``ColumnStoreEngine`` reference computed in ``prepare``."""

    queries: dict[str, str]

    def _build_store(self):
        raise NotImplementedError

    def setup(self, stack: ExitStack) -> None:
        self.store = self._build_store()
        self.engine = EmptyHeadedEngine(self.store)

    def prepare(self) -> None:
        reference = ColumnStoreEngine(self.store)
        self.expected_rows: dict[str, int] = {}
        self.expected_digest: dict[str, str] = {}
        for op_type, text in self.queries.items():
            relation = reference.execute_sparql(text)
            self.expected_rows[op_type] = relation.num_rows
            self.expected_digest[op_type] = rows_digest(
                reference.decode(relation)
            )

    def stream_parts(self):
        for index in range(4):
            for op_type, text in self.slice(index):
                yield f"{op_type} {text}".encode("utf-8")

    def slice(self, index: int) -> list[tuple]:
        ops = list(self.queries.items())
        random.Random(f"{self.seed}:{self.name}:{index}").shuffle(ops)
        return ops

    def execute(self, op):
        return self.engine.execute_sparql(op[1])

    def check(self, op, result) -> bool:
        return result.num_rows == self.expected_rows[op[0]]

    def finish(self) -> int:
        """Once per op type: the decoded rows' digest equals the
        reference's (row counts were checked on every op)."""
        failed = 0
        for op_type, text in self.queries.items():
            relation = self.execute((op_type, text))
            digest = rows_digest(self.engine.decode(relation))
            if digest != self.expected_digest[op_type]:
                print(f"digest mismatch: {self.name} {op_type}")
                failed += 1
        return failed

    # The walk: the stages ``execute_sparql`` runs, one public call each.
    def _walk_stages(self, engine, op, tracer, rid, root, cold: bool):
        op_type, text = op
        if cold:
            ast, _ = tracer.call("sparql.parse", rid, root, parse_sparql, text)
            query, _ = tracer.call(
                "sparql.translate", rid, root, sparql_to_query, ast
            )
        else:
            query, _ = tracer.call(
                "sparql.cached", rid, root, engine.prepare_sparql, text
            )
        bound, _ = tracer.call("core.bind", rid, root, engine.bind, query)
        rows = 0
        if bound is not None:
            inner, _ = engine.split_modifiers(bound)
            if cold:
                plan, _ = tracer.call(
                    "core.plan_fresh", rid, root, engine.plan_for, inner
                )
                built, _ = tracer.call(
                    "trie.build", rid, root, engine.executor.warm, plan
                )
                tracer.counts["trie.built_count"] += built
            before = engine.executor_stats.enumerated_tuples
            relation, join = tracer.call(
                "core.join", rid, root, engine.execute_bound, bound
            )
            if not cold:
                # The plan-cache lookup execute_bound just did, again,
                # as its child.
                tracer.call("core.plan_hit", rid, join, engine.plan_for, inner)
            tracer.counts["core.join_tuples"] += (
                engine.executor_stats.enumerated_tuples - before
            )
            rows = relation.num_rows
        tracer.counts["core.rows_out"] += rows
        return rows == self.expected_rows[op_type]

    def walk(self, op, tracer, rid: int) -> bool:
        with tracer.rec.span(f"op.{op[0]}", rid) as root:
            return self._walk_stages(self.engine, op, tracer, rid, root, False)


class LubmWarm(_EngineWorkload):
    name = "lubm_warm"
    trace_slices_per_s = 12.0

    def _build_store(self):
        config = _lubm_config(self.scale)
        self.queries = {
            f"q{qid}": lubm_query(qid, config) for qid in PAPER_QUERY_IDS
        }
        return self.lubm_store()


class LubmCold(LubmWarm):
    """Same queries, each op on a fresh engine (construction timed)."""

    name = "lubm_cold"
    trace_slices_per_s = 1.2

    def warmup_slices(self) -> int:
        return 0  # cold is the point

    def prepare(self) -> None:
        super().prepare()
        # Store-level lazy state (column sketches) is paid once here,
        # not by whichever op happens to run first.
        for op in self.queries.items():
            self.execute(op)

    def execute(self, op):
        return EmptyHeadedEngine(self.store).execute_sparql(op[1])

    def walk(self, op, tracer, rid: int) -> bool:
        with tracer.rec.span(f"op.{op[0]}", rid) as root:
            engine, _ = tracer.call(
                "engines.construct", rid, root, EmptyHeadedEngine, self.store
            )
            return self._walk_stages(engine, op, tracer, rid, root, True)


class GraphCyclic(_EngineWorkload):
    name = "graph_cyclic"
    queries = gen.GRAPH_PATTERNS
    trace_slices_per_s = 1.2

    def _build_store(self):
        self.triples = gen.cyclic_graph(self.seed, *self.scale.graph)
        return _load(self.triples, self.timings)

    def stream_parts(self):
        yield from super().stream_parts()
        for triple in self.triples:
            yield " ".join(triple).encode("utf-8")


# ----------------------------------------------------------------------
# Serving workloads: one request stream, three serving paths
# ----------------------------------------------------------------------
def _run_statement(statement, request: gen.Request) -> list:
    """``PreparedStatement.execute`` (or ``execute_iter``, drained) for
    one request; the result as a list of relations."""
    parameters = dict(request.parameters)
    if request.stream:
        return list(statement.execute_iter(**parameters))
    return [statement.execute(**parameters)]


def _run_bound(engine, bound, stream: bool) -> list:
    """``Engine.execute_bound`` (or ``execute_bound_iter``, drained)."""
    if stream:
        return list(engine.execute_bound_iter(bound))
    return [engine.execute_bound(bound)]


class _ServeWorkload(Workload):
    """Ops are keep-alive GETs; every body's sha256 must equal the
    in-process single-store ``Session`` + serializer body."""

    trace_slices_per_s = 1.25
    primary_span = "service.http"

    def _start(self, stack: ExitStack):
        """Build the store + serving path; returns the started server."""
        raise NotImplementedError

    def setup(self, stack: ExitStack) -> None:
        server = self._start(stack)
        host, port = server.url.removeprefix("http://").rsplit(":", 1)
        self.client = KeepAliveClient(host, int(port))
        stack.callback(self.client.close)

    def prepare(self) -> None:
        self.stream = gen.ServingStream(
            self.seed,
            _objects(self.single_store, "advisor"),
            _objects(self.single_store, "memberOf"),
        )
        self.seen: list[tuple[gen.Request, str]] = []

    def stream_parts(self):
        for index in range(4):
            for request in self.stream.slice(index):
                yield request.target

    def slice(self, index: int) -> list[tuple]:
        return [(r.op_type, r) for r in self.stream.slice(index)]

    def execute(self, op):
        return self.client.get(op[1].target)

    def check(self, op, result) -> bool:
        status, body = result
        self.seen.append((op[1], hashlib.sha256(body).hexdigest()))
        return status == 200

    @staticmethod
    def _typed(request: gen.Request) -> QueryRequest:
        return QueryRequest(
            text=request.text,
            parameters=dict(request.parameters),
            stream=request.stream,
        )

    def _reference_body(self, session, request: gen.Request) -> bytes:
        cursor = session.execute(self._typed(request))
        try:
            return JSON.serialize(cursor)
        finally:
            cursor.close()

    def finish(self) -> int:
        """Every body against the single-store in-process reference
        (computed once per distinct request), plus one independent
        ``ColumnStoreEngine`` body per op type."""
        reference = QueryService(EmptyHeadedEngine(self.single_store))
        expected: dict[tuple, str] = {}
        failed = 0
        with reference.session() as session:
            for request, digest in self.seen:
                if request.key not in expected:
                    expected[request.key] = hashlib.sha256(
                        self._reference_body(session, request)
                    ).hexdigest()
                failed += digest != expected[request.key]
        oracle = QueryService(ColumnStoreEngine(self.single_store))
        checked: set[str] = set()
        with oracle.session() as session:
            for request, _ in self.seen:
                if request.op_type in checked:
                    continue
                checked.add(request.op_type)
                body = self._reference_body(session, request)
                if hashlib.sha256(body).hexdigest() != expected[request.key]:
                    print(f"oracle mismatch: {self.name} {request.op_type}")
                    failed += 1
        self.seen.clear()
        return failed

    # -- traced pass ---------------------------------------------------
    def _shadow_engine(self):
        """A second engine of the served kind, walked in-process."""
        return EmptyHeadedEngine(self.single_store)

    def trace_prepare(self, history: range) -> None:
        self.shadow = self._shadow_engine()
        self.shadow_service = QueryService(self.shadow)
        self.shadow_session = self.shadow_service.session()
        # Separate statements (own bound/result caches, fed the same
        # stream) tell the walk whether the real op hit a cache.
        self.probes = {
            text: PreparedStatement(self.shadow, text)
            for text in (
                gen.ADVISOR_TEMPLATE, gen.BULK_TEMPLATE, gen.TOPK_TEMPLATE
            )
        }
        # Replay what the server has already seen, so the shadows'
        # caches hold what the server's hold.
        for index in history:
            for request in self.stream.slice(index):
                self._reference_body(self.shadow_session, request)
                _run_statement(self.probes[request.text], request)
        self._stats_before = self._statement_stats()

    def _statement_stats(self) -> dict[str, int]:
        totals = {
            "executions": 0, "result_hits": 0, "bind_hits": 0,
            "bind_misses": 0, "plans_reoptimized": 0,
        }
        for text in self.probes:
            stats = self.shadow_service.prepare(text).stats
            for key in totals:
                totals[key] += getattr(stats, key)
        return totals

    def trace_counts(self, tracer) -> None:
        after = self._statement_stats()
        delta = {k: after[k] - self._stats_before[k] for k in after}
        binds = delta["bind_hits"] + delta["bind_misses"]
        tracer.counts["service.result_hit_rate"] = (
            delta["result_hits"] / max(delta["executions"], 1)
        )
        tracer.counts["service.bind_hit_rate"] = (
            delta["bind_hits"] / max(binds, 1)
        )
        tracer.counts["service.plans_reoptimized"] = delta["plans_reoptimized"]
        self.shadow_session.close()

    plan_span = "core.plan_hit"
    join_span = "core.join"

    def _engine_stages(self, request, tracer, rid, parent, bind_missed):
        """bind → join → plan lookup on the shadow engine."""
        engine = self.shadow
        probe = self.probes[request.text]
        parameters = dict(request.parameters)
        if bind_missed:
            query = substitute_parameters(probe.query, parameters)
            bound, _ = tracer.call("core.bind", rid, parent, engine.bind, query)
        else:
            bound = probe.bind(**parameters)
        if bound is None:
            return
        inner, _ = engine.split_modifiers(bound)
        stats = getattr(engine, "executor_stats", None)
        before = stats.enumerated_tuples if stats else 0
        relations, join = tracer.call(
            self.join_span, rid, parent,
            _run_bound, engine, bound, request.stream,
        )
        # The plan lookup the join just did, again, as its child.
        plan, _ = tracer.call(self.plan_span, rid, join, engine.plan_for, inner)
        self._note_plan(plan, tracer)
        if stats:
            tracer.counts["core.join_tuples"] += stats.enumerated_tuples - before
        tracer.counts["core.rows_out"] += sum(r.num_rows for r in relations)
        self._aside(bound, request, tracer)

    def _note_plan(self, plan, tracer) -> None:
        pass

    def _aside(self, bound, request, tracer) -> None:
        pass

    def _decode(self, relations, tracer, rid, parent) -> None:
        engine = self.shadow
        rows, _ = tracer.call(
            "engines.decode", rid, parent,
            lambda: [engine.decode_rows(r) for r in relations],
        )
        tracer.counts["engines.decode_rows"] += sum(len(part) for part in rows)

    def _probe(self, request, tracer, rid, parent):
        """``PreparedStatement.execute`` on the probe statement, then
        the engine stages it ran (none on a result-cache hit)."""
        probe = self.probes[request.text]
        hits, misses = probe.stats.result_hits, probe.stats.bind_misses
        relations, prepared = tracer.call(
            "service.prepared", rid, parent, _run_statement, probe, request
        )
        if request.stream or probe.stats.result_hits == hits:
            self._engine_stages(
                request, tracer, rid, prepared,
                probe.stats.bind_misses > misses,
            )
        return relations

    def walk_slice(self, ops: list, tracer, first_rid: int) -> list[bool]:
        """Two phases per slice: first every request's real round trip,
        back to back exactly as the untraced run issues them; then each
        request again through the shadows, hung under its HTTP span.
        (Interleaving them would time every round trip against caches
        the shadow work had just evicted.)"""
        served = []
        for offset, (_, request) in enumerate(ops):
            rid = first_rid + offset
            with tracer.rec.span(f"op.{request.op_type}", rid) as root:
                (status, body), http = tracer.call(
                    "service.http", rid, root, self.client.get, request.target
                )
            tracer.counts["service.http_bytes_out"] += len(body)
            served.append((rid, http, status, body))
        return [
            status == 200 and body == self.walk_layers(request, tracer, rid, http)
            for (_, request), (rid, http, status, body) in zip(ops, served)
        ]

    @staticmethod
    def _serialize(cursor, tracer, rid: int, http: int) -> tuple[bytes, int]:
        """Drain and close ``cursor`` through the JSON serializer."""
        try:
            body, span = tracer.call(
                "service.serialize", rid, http, JSON.serialize, cursor
            )
        finally:
            cursor.close()
        tracer.counts["service.serialize_bytes"] += len(body)
        return body, span

    def walk_layers(self, request, tracer, rid: int, http: int) -> bytes:
        """The layers under one HTTP span; returns the expected body."""
        cursor, session = tracer.call(
            "service.session", rid, http,
            self.shadow_session.execute, self._typed(request),
        )
        expected, serialize = self._serialize(cursor, tracer, rid, http)
        # A streaming cursor runs its join while the serializer pulls
        # pages, not inside Session.execute.
        relations = self._probe(
            request, tracer, rid, serialize if request.stream else session
        )
        self._decode(relations, tracer, rid, serialize)
        return expected


class ServeHttp(_ServeWorkload):
    name = "serve_http"

    def _start(self, stack: ExitStack):
        self.single_store = self.lubm_store()
        service = QueryService(EmptyHeadedEngine(self.single_store))
        return stack.enter_context(SparqlHttpServer(service, port=0))


class ServePool(_ServeWorkload):
    """The same stream through the 1-worker pool's asyncio front door."""

    name = "serve_pool"
    http_self_metric = "cluster.http_self_ms"

    def _start(self, stack: ExitStack):
        self.single_store = self.lubm_store()
        start = time.perf_counter()
        self.cluster = stack.enter_context(
            ClusterQueryService(
                self.single_store, workers=1, prefix=self.shm_prefix
            )
        )
        self.timings["cluster.start_s"] = time.perf_counter() - start
        return stack.enter_context(ClusterHttpServer(self.cluster, port=0))

    def trace_prepare(self, history: range) -> None:
        super().trace_prepare(history)
        self.cluster_session = self.cluster.session()

    def trace_counts(self, tracer) -> None:
        super().trace_counts(tracer)
        self.cluster_session.close()
        pool = self.cluster.stats()["cluster"]
        tracer.counts["cluster.shm_bytes"] = pool["segment_bytes"]
        tracer.counts["cluster.retries"] = pool["retries"]
        tracer.counts["cluster.respawns"] = pool["respawns"]

    def walk_layers(self, request, tracer, rid: int, http: int) -> bytes:
        # The same request again over the pipe, without HTTP. The
        # worker answered it moments ago, so this is a worker-side
        # cache hit: what remains is the process boundary itself
        # (pickle frames, pipe, binary rows out and back in).
        cursor, pipe = tracer.call(
            "cluster.request", rid, http,
            self.cluster_session.execute, self._typed(request),
        )
        expected, _ = self._serialize(cursor, tracer, rid, http)
        # The engine work the worker did for the HTTP request, repeated
        # in-process on shadows holding the same caches.
        _, session = tracer.call(
            "service.session", rid, http, self._shadow_execute, request
        )
        relations = self._probe(request, tracer, rid, session)
        self._decode(relations, tracer, rid, pipe)
        return expected

    def _shadow_execute(self, request) -> None:
        cursor = self.shadow_session.execute(self._typed(request))
        try:
            if request.stream:
                cursor.fetch_all()  # the worker drains streams itself
        finally:
            cursor.close()


class ServeSharded(_ServeWorkload):
    """The same stream over two subject-hash shards, in-process."""

    name = "serve_sharded"
    plan_span = "distributed.compile"
    join_span = "distributed.execute"

    def _start(self, stack: ExitStack):
        self.triples = _lubm_triples(self.scale, self.timings)
        start = time.perf_counter()
        self.sharded_store = ShardedStore.partition(self.triples, 2)
        self.timings["distributed.partition_s"] = time.perf_counter() - start
        engine = ShardedEngine(self.sharded_store)
        stack.callback(engine.transport.close)
        return stack.enter_context(
            SparqlHttpServer(QueryService(engine), port=0)
        )

    def prepare(self) -> None:
        # The single-store reference is not part of the served program.
        self.single_store = _load(self.triples, self.timings)
        del self.triples
        super().prepare()

    def _shadow_engine(self):
        return ShardedEngine(self.sharded_store)

    def trace_prepare(self, history: range) -> None:
        super().trace_prepare(history)
        self.single_engine = EmptyHeadedEngine(self.single_store)

    def trace_counts(self, tracer) -> None:
        super().trace_counts(tracer)
        self.shadow.transport.close()

    def _note_plan(self, plan, tracer) -> None:
        tracer.counts["distributed.fragments"] += len(plan.fragments)
        tracer.counts["distributed.plans"] += 1

    def _aside(self, bound, request, tracer) -> None:
        """The same join on the unsharded store (the ratio's base); a
        plain timing, not a span — it is not part of this op."""
        engine = self.single_engine
        query = substitute_parameters(
            self.probes[request.text].query, dict(request.parameters)
        )
        single = engine.bind(query)
        start = time.perf_counter_ns()
        _run_bound(engine, single, request.stream)
        tracer.samples["core.join"].append(
            (time.perf_counter_ns() - start) / 1e6
        )
        tracer.samples["distributed.overhead"].append(
            tracer.samples["distributed.execute"][-1]
            / tracer.samples["core.join"][-1]
        )


# ----------------------------------------------------------------------
# Update mix
# ----------------------------------------------------------------------
def _changed(result) -> int:
    """Triples an update changed: ``Session.update`` answers with an
    ``UpdateResponse``, the store's own methods with a bare count."""
    if isinstance(result, int):
        return result
    return result.added + result.removed


class UpdateMix(Workload):
    """Writes beside reads through one in-process ``Session``."""

    name = "update_mix"
    trace_slices_per_s = 3.0

    def warmup_slices(self) -> int:
        # The removal window must be full before every cycle has 9 ops.
        return max(self.scale.warmup_slices, gen.UPDATE_WINDOW)

    def setup(self, stack: ExitStack) -> None:
        self.store = self.lubm_store()
        self.engine = EmptyHeadedEngine(self.store)
        self.service = QueryService(self.engine)
        self.session = stack.enter_context(self.service.session())

    def prepare(self) -> None:
        self.initial_triples = self.store.num_triples
        self.updates = gen.UpdateStream(
            self.seed,
            _objects(self.store, "advisor"),
            _objects(self.store, "headOf"),
        )
        #: professor -> ghosts currently attached (the removal window).
        self.live: dict[str, frozenset[str]] = {}
        self.window: list[gen.UpdateCycle] = []

    def stream_parts(self):
        for index in range(16):
            cycle = self.updates.cycle(index)
            for triple in cycle.batch:
                yield " ".join(triple).encode("utf-8")
            for professor in cycle.steady:
                yield professor.encode("utf-8")

    def slice(self, index: int) -> list[tuple]:
        cycle = self.updates.cycle(index)
        ops = [("update_add", cycle), ("read_first", cycle.professor)]
        ops += [("read_steady", professor) for professor in cycle.steady]
        if index >= gen.UPDATE_WINDOW:
            ops.append(
                ("update_remove", self.updates.cycle(index - gen.UPDATE_WINDOW))
            )
        return ops

    def _read(self, professor: str):
        cursor = self.session.execute(
            gen.ADVISOR_TEMPLATE, parameters={"prof": professor}
        )
        try:
            return cursor.fetch_all()
        finally:
            cursor.close()

    def execute(self, op):
        op_type, payload = op
        if op_type == "update_add":
            return self.session.update(UpdateRequest(add=payload.batch))
        if op_type == "update_remove":
            return self.session.update(UpdateRequest(remove=payload.batch))
        return self._read(payload)

    def check(self, op, result) -> bool:
        op_type, payload = op
        if op_type == "update_add":
            self.live[payload.professor] = frozenset(payload.ghosts)
            self.window.append(payload)
            return _changed(result) == len(payload.batch)
        if op_type == "update_remove":
            self.live.pop(payload.professor, None)
            self.window.remove(payload)
            return _changed(result) == len(payload.batch)
        ghosts = frozenset(
            row[0] for row in result if row[0].startswith(GHOST_PREFIX)
        )
        return ghosts == self.live.get(payload, frozenset())

    def finish(self) -> int:
        """Drain the window; the store must be back at its initial size."""
        for cycle in list(self.window):
            self.session.update(UpdateRequest(remove=cycle.batch))
        self.window.clear()
        self.live.clear()
        if self.store.num_triples != self.initial_triples:
            print(
                f"update_mix: {self.store.num_triples} triples after drain, "
                f"expected {self.initial_triples}"
            )
            return 1
        return 0

    # -- traced pass: the op itself, issued as layer calls -------------
    def trace_prepare(self, history: range) -> None:
        self.statement = self.service.prepare(gen.ADVISOR_TEMPLATE)
        stats = self.statement.stats
        self._stats_before = (
            stats.invalidations, stats.bound_retained, self.store.compactions
        )

    def trace_counts(self, tracer) -> None:
        invalidations, retained, compactions = self._stats_before
        stats = self.statement.stats
        tracer.counts["service.invalidations"] = stats.invalidations - invalidations
        tracer.counts["service.bound_retained"] = stats.bound_retained - retained
        tracer.counts["storage.compactions"] = self.store.compactions - compactions
        tables = self.store.delta_stats()["tables"].values()
        tracer.counts["storage.delta_rows"] = sum(
            t["insert_rows"] + t["tombstone_rows"] for t in tables
        )

    def walk(self, op, tracer, rid: int) -> bool:
        op_type, payload = op
        with tracer.rec.span(f"op.{op_type}", rid) as root:
            if op_type == "update_add":
                result, _ = tracer.call(
                    "storage.add", rid, root,
                    self.store.add_triples, payload.batch,
                )
            elif op_type == "update_remove":
                result, _ = tracer.call(
                    "storage.remove", rid, root,
                    self.store.remove_triples, payload.batch,
                )
            else:
                if op_type == "read_first":
                    tracer.call(
                        "engines.apply_delta", rid, root,
                        self.engine.check_data_version,
                    )
                result, _ = tracer.call(
                    "service.session", rid, root, self._read, payload
                )
        return self.check(op, result)


WORKLOADS = {
    cls.name: cls
    for cls in (
        LubmWarm, LubmCold, GraphCyclic,
        ServeHttp, ServePool, ServeSharded, UpdateMix,
    )
}
