"""Scatter transports: in-process shard engines or per-shard pools.

Both transports answer the same three calls the
:class:`~repro.distributed.engine.ShardedEngine` makes (``scatter`` is
written once, on their shared base; what a fragment does on a shard is
written once, in :func:`execute_fragment`, which pool workers run too):

* ``execute(shard, query)`` — run one bound fragment on one shard and
  return its :class:`~repro.storage.relation.Relation`.
* ``scatter(tasks)`` — fan a list of ``(shard, query)`` fragments out
  concurrently and gather the relations in task order.
* ``stream(shard, query)`` — an *unsliced* canonical chunk stream for
  one shard (the k-way merge feedstock), or a one-page materialized
  fallback.

:class:`LocalShardTransport` drives per-shard engine instances on a
thread pool (numpy kernels release the GIL for parts of the work, and
correctness never depends on parallelism). :class:`PooledShardTransport`
gives every shard its own PR 8 :class:`~repro.service.cluster.pool.WorkerPool`
— separate processes over shared-memory segments — and ships fragments
as FRAGMENT frames; it registers itself as the sharded store's update
hook so worker replicas follow the unified epoch. Worker crashes
surface exactly like the cluster tier: transparent retry on a respawned
sibling, or a typed ``worker_crash`` / ``capacity`` / ``timeout`` error
— never a torn merge, because the scatter holds the store's read epoch
for its whole lifetime.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.core.query import ConjunctiveQuery
from repro.distributed.store import ShardedStore
from repro.engines import create_engine
from repro.service.cluster import frames
from repro.service.cluster.pool import WorkerPool
from repro.storage.relation import Relation
from repro.storage.vertical import CommittedUpdate


def _holds_tables(engine, query: ConjunctiveQuery) -> bool:
    available = engine.store.table_names()
    return all(atom.relation in available for atom in query.atoms)


def execute_fragment(engine, query: ConjunctiveQuery) -> Relation:
    """Run one bound fragment on one shard's engine.

    A pattern over a predicate this shard holds no triples of matches
    nothing here (it is not a schema error): the fragment's result is
    empty, with the fragment's schema.
    """
    if not _holds_tables(engine, query):
        return Relation.empty(
            query.name, [variable.name for variable in query.projection]
        )
    return engine.execute_bound(query)


class _ShardTransport:
    """The fan-out both transports share (they bring ``execute`` and a
    thread pool sized to their shards)."""

    _executor: ThreadPoolExecutor

    def scatter(
        self, tasks: Sequence[tuple[int, ConjunctiveQuery]]
    ) -> list[Relation]:
        if len(tasks) == 1:
            shard, query = tasks[0]
            return [self.execute(shard, query)]
        futures = [
            self._executor.submit(self.execute, shard, query)
            for shard, query in tasks
        ]
        return [future.result() for future in futures]


class LocalShardTransport(_ShardTransport):
    """Per-shard engines in this process, scattered on threads."""

    kind = "local"

    def __init__(
        self, store: ShardedStore, engine: str = "emptyheaded"
    ) -> None:
        self.store = store
        self.engine_name = engine
        # Spawned per shard at construction; queries touch exactly one
        # entry per task.
        # repro: allow[shard-epoch]
        self.engines = [
            create_engine(engine, shard) for shard in store.stores
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, store.shard_count),
            thread_name_prefix="repro-shard",
        )

    def execute(self, shard: int, query: ConjunctiveQuery) -> Relation:
        return execute_fragment(self.engines[shard], query)

    def stream(
        self, shard: int, query: ConjunctiveQuery
    ) -> Iterator[Relation]:
        """One shard's canonical chunk stream, captured eagerly.

        Falls back to a one-page materialized stream when the shard
        engine cannot stream this query — either way the snapshot is
        pinned before this call returns.
        """
        engine = self.engines[shard]
        if _holds_tables(engine, query):
            engine.check_data_version()
            stream = engine._execute_bound_iter(query)
            if stream is not None:
                return stream
        return iter([execute_fragment(engine, query)])

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


class PooledShardTransport(_ShardTransport):
    """One PR 8 worker pool per shard; fragments ride FRAGMENT frames."""

    kind = "pooled"

    def __init__(
        self,
        store: ShardedStore,
        engine: str = "emptyheaded",
        *,
        workers_per_shard: int = 1,
        start_method: str | None = None,
        prefix: str = "repro-shard",
        request_timeout_s: float = 120.0,
        checkout_timeout_s: float = 30.0,
        allow_test_hooks: bool = False,
    ) -> None:
        self.store = store
        self.engine_name = engine
        #: Fault-injection knob: forwarded as ``test_delay_s`` on every
        #: fragment when set (tests freeze a worker mid-scatter).
        self.test_delay_s: float | None = None
        self.pools: list[WorkerPool] = []
        try:
            # One pool per shard, started before the hook registration
            # so no update can slip between a started pool and its
            # replication feed.
            # repro: allow[shard-epoch]
            for index, shard_store in enumerate(store.stores):
                pool = WorkerPool(
                    shard_store,
                    engine,
                    workers=workers_per_shard,
                    start_method=start_method,
                    prefix=f"{prefix}{index}",
                    request_timeout_s=request_timeout_s,
                    checkout_timeout_s=checkout_timeout_s,
                    allow_test_hooks=allow_test_hooks,
                )
                self.pools.append(pool.start())
        except BaseException:
            self.close()
            raise
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, store.shard_count * workers_per_shard),
            thread_name_prefix="repro-scatter",
        )
        store.add_update_hook(self._on_update)
        self._hooked = True

    def _on_update(self, updates: list[CommittedUpdate]) -> None:
        """Sharded-store update hook (fires under the write epoch).

        Each shard pool gets its shard's committed update; the terms
        the batch appended reach every pool, rows or not, so every
        replica dictionary stays the coordinator's.
        """
        # Fired under the store's write epoch: every pool sees the
        # batch before any scatter can observe the new data_version.
        # repro: allow[shard-epoch]
        for pool, update in zip(self.pools, updates):
            if update.terms or update.batches:
                pool.replicate(update)

    def execute(self, shard: int, query: ConjunctiveQuery) -> Relation:
        payload: dict = {"query": query}
        if self.test_delay_s:
            payload["test_delay_s"] = self.test_delay_s
        response = self.pools[shard].request(frames.FRAGMENT, payload)
        data = frames.unpack(response)
        return Relation(data["name"], data["attributes"], data["columns"])

    def stream(
        self, shard: int, query: ConjunctiveQuery
    ) -> Iterator[Relation]:
        """Materialized one-page stream (frames carry whole results)."""
        return iter([self.execute(shard, query)])

    def stats(self) -> dict:
        # repro: allow[shard-epoch] — read-only counters, no row data.
        pools = [pool.stats() for pool in self.pools]
        return {"shards": self.store.shard_count, "pools": pools}

    def close(self) -> None:
        if getattr(self, "_hooked", False):
            self.store.remove_update_hook(self._on_update)
            self._hooked = False
        executor = getattr(self, "_executor", None)
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        # repro: allow[shard-epoch]
        for pool in self.pools:
            pool.close()

    def __enter__(self) -> "PooledShardTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "LocalShardTransport",
    "PooledShardTransport",
    "execute_fragment",
]
