"""The worker process: attach shared segments, serve framed requests.

``worker_main`` is the child entry point (top-level, so it pickles
under the ``spawn`` start method too). A worker:

1. attaches the publisher's shared segment for its assigned epoch
   (zero-copy column views — N workers share one physical copy of the
   segment data),
2. replays the pool's update log — the same string-triple batches the
   parent applied — so its local store reaches the parent's epoch
   (dictionary key assignment is deterministic: only update paths
   encode terms, and identical batches in identical order assign
   identical keys),
3. builds its engine by name and wraps it in the ordinary
   :class:`~repro.service.QueryService` + session stack, then
4. answers HELLO with its epoch and enters the serve loop.

Every request error is caught and returned as an ERR frame carrying
its taxonomy code — a worker only exits on SHUTDOWN or a lost pipe.
Query results are serialized with the ``SPB1`` binary row serializer
(lossless, dense), which the front door decodes or forwards verbatim.

Live updates arrive as UPDATE frames carrying the same string batches;
the worker applies them through its own store, and its engines catch
up through the store's existing ``changes_since`` delta log — the
incremental path this subsystem was shaped around.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engines import create_engine
from repro.errors import ClusterError
from repro.service.cluster import frames
from repro.service.cluster.shm import attach_snapshot, detach
from repro.service.formats import SERIALIZERS
from repro.service.protocol import QueryRequest, UpdateRequest
from repro.service.query_service import QueryService
from repro.storage.vertical import VerticallyPartitionedStore

#: One replayed update batch: string triples to add and to remove.
#: Shard workers carry a third element — the coordinator's union table
#: names captured before the batch was applied — so the routed replay
#: assigns dictionary keys identically to the coordinator.
ReplayBatch = tuple[tuple[tuple[str, str, str], ...], tuple[tuple[str, str, str], ...]]


@dataclass
class WorkerConfig:
    """Everything a worker needs to rebuild serving state (picklable)."""

    shm_name: str
    epoch: int
    engine: str
    #: Update batches committed after the published snapshot, in order.
    replay: tuple[ReplayBatch, ...] = ()
    max_open_cursors: int = 64
    #: Honor ``test_delay_s`` in query payloads (fault-injection tests
    #: freeze a worker mid-query to exercise crash retry; never enabled
    #: by production configuration).
    allow_test_hooks: bool = False
    #: ``(shard_index, shard_count)`` when this worker serves one shard
    #: of a :class:`~repro.distributed.store.ShardedStore`: replayed and
    #: broadcast update batches arrive *unrouted* and the worker applies
    #: only its own subject-hash slice (after pre-encoding the full
    #: batch, keeping its dictionary byte-identical to the coordinator).
    shard: tuple[int, int] | None = None


@dataclass
class _WorkerState:
    """Serve-loop context (everything the dispatchers touch)."""

    service: QueryService
    session: object
    epoch: int
    allow_test_hooks: bool
    shard: tuple[int, int] | None = None
    requests: int = 0
    started_at: float = field(default_factory=time.monotonic)


def _apply_replay(
    store: VerticallyPartitionedStore,
    replay: tuple[ReplayBatch, ...],
    shard: tuple[int, int] | None,
) -> None:
    if shard is None:
        for add, remove in replay:
            if add:
                store.add_triples(add)
            if remove:
                store.remove_triples(remove)
        return
    from repro.distributed.partition import apply_routed_update

    index, count = shard
    for add, remove, known_tables in replay:
        apply_routed_update(store, index, count, add, remove, known_tables)


def _handle_query(state: _WorkerState, payload: dict) -> bytes:
    if state.allow_test_hooks and payload.get("test_delay_s"):
        # Fault-injection window: the parent kills this process here to
        # exercise mid-query crash retry.
        time.sleep(float(payload["test_delay_s"]))
    request = QueryRequest(
        text=payload["text"],
        parameters=payload.get("parameters") or {},
        page_size=payload.get("page_size") or 256,
        timeout_s=payload.get("timeout_s"),
        name=payload.get("name") or "query",
        stream=bool(payload.get("stream")),
    )
    cursor = state.session.execute(request)
    try:
        return SERIALIZERS["binary"].serialize(cursor)
    finally:
        cursor.close()


def _handle_update(state: _WorkerState, payload: dict) -> dict:
    add = tuple(map(tuple, payload.get("add") or ()))
    remove = tuple(map(tuple, payload.get("remove") or ()))
    if state.shard is not None:
        from repro.distributed.partition import apply_routed_update

        index, count = state.shard
        store = state.service.engine.store
        added, removed = apply_routed_update(
            store,
            index,
            count,
            add,
            remove,
            frozenset(payload.get("known_tables") or ()),
        )
        return {
            "added": added,
            "removed": removed,
            "data_version": store.data_version,
        }
    response = state.session.update(UpdateRequest(add=add, remove=remove))
    return {
        "added": response.added,
        "removed": response.removed,
        "data_version": response.data_version,
    }


def _handle_fragment(state: _WorkerState, payload: dict) -> dict:
    """Execute one scatter fragment, returning encoded columns.

    The bound query's constants are dictionary keys — valid here
    because the replica dictionary is byte-identical to the
    coordinator's. The reply carries raw ``uint32`` columns (no decode
    round-trip); the coordinator merges them through its own relation
    machinery.
    """
    if state.allow_test_hooks and payload.get("test_delay_s"):
        # Same fault-injection window as _handle_query: the parent
        # kills this process here to exercise mid-scatter crash retry.
        time.sleep(float(payload["test_delay_s"]))
    from repro.distributed.transport import execute_fragment

    result = execute_fragment(state.service.engine, payload["query"])
    return {
        "name": result.name,
        "attributes": list(result.attributes),
        "columns": [np.ascontiguousarray(c) for c in result.columns],
    }


def _handle_stats(state: _WorkerState, payload: dict) -> dict:
    store = state.service.engine.store
    return {
        "pid": os.getpid(),
        "epoch": state.epoch,
        "data_version": store.data_version,
        "requests": state.requests,
        "uptime_s": round(time.monotonic() - state.started_at, 3),
        "open_cursors": state.session.open_cursors(),
        "cache": {
            "hits": state.service.stats.hits,
            "misses": state.service.stats.misses,
            "executions": state.service.stats.executions,
        },
    }


def _handle_explain(state: _WorkerState, payload: dict) -> dict:
    return {
        "text": state.session.explain(
            payload["text"], payload.get("parameters") or {}
        )
    }


def worker_main(conn, config: WorkerConfig) -> None:
    """Child process entry point: attach, catch up, serve frames."""
    segment = None
    service = None
    session = None
    try:
        try:
            snapshot, segment = attach_snapshot(config.shm_name)
            store = VerticallyPartitionedStore.from_snapshot(snapshot)
            _apply_replay(store, config.replay, config.shard)
            engine = create_engine(config.engine, store)
            service = QueryService(engine)
            session = service.session(
                max_open_cursors=config.max_open_cursors
            )
        except BaseException as exc:
            frames.send_frame(
                conn, frames.HELLO, frames.error_payload(exc), frames.ERR
            )
            return
        state = _WorkerState(
            service=service,
            session=session,
            epoch=config.epoch,
            allow_test_hooks=config.allow_test_hooks,
            shard=config.shard,
        )
        frames.send_frame(
            conn,
            frames.HELLO,
            frames.pack(
                {
                    "pid": os.getpid(),
                    "epoch": config.epoch,
                    "data_version": store.data_version,
                }
            ),
        )
        _serve(conn, state)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; nothing to answer
    finally:
        if session is not None:
            session.close()
        if service is not None:
            service.close()
        if segment is not None:
            detach(segment)


def _serve(conn, state: _WorkerState) -> None:
    dispatch = {
        frames.QUERY: _handle_query,
        frames.UPDATE: _handle_update,
        frames.STATS: _handle_stats,
        frames.EXPLAIN: _handle_explain,
        frames.FRAGMENT: _handle_fragment,
        frames.PING: lambda s, p: {
            "pid": os.getpid(),
            "data_version": s.service.engine.store.data_version,
        },
    }
    while True:
        kind, _, payload = frames.recv_frame(conn)
        if kind == frames.SHUTDOWN:
            frames.send_frame(conn, frames.SHUTDOWN, frames.pack({}))
            return
        handler = dispatch.get(kind)
        state.requests += 1
        try:
            if handler is None:
                raise ClusterError(f"unknown frame kind {kind}")
            result = handler(state, frames.unpack(payload))
            body = result if isinstance(result, bytes) else frames.pack(result)
            frames.send_frame(conn, kind, body)
        except Exception as exc:  # noqa: BLE001 - boundary translation
            frames.send_frame(
                conn, kind, frames.error_payload(exc), frames.ERR
            )


__all__ = ["ReplayBatch", "WorkerConfig", "worker_main"]
