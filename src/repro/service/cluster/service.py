"""`ClusterQueryService`: the worker pool as a protocol backend.

The serving stack is one :class:`~repro.service.protocol.Session` /
:class:`~repro.service.protocol.Cursor` over a backend (see
:mod:`repro.service.protocol`); :class:`ClusterQueryService` is the
multi-process one. It owns a
:class:`~repro.service.cluster.pool.WorkerPool` and answers the four
backend calls with frame exchanges, so callers (the HTTP server,
benchmarks, tests) swap it for :class:`~repro.service.QueryService`
without changing shape.

One query is one frame exchange: the worker executes under its own
in-process session (deadlines enforced worker-side), serializes the
result with the lossless ``SPB1`` binary rows, and the parent decodes
them back to lexical terms — byte-identical to in-process decoding
because both ends share the dictionary state by construction.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.service.cluster import frames
from repro.service.cluster.pool import WorkerPool
from repro.service.formats import read_binary
from repro.service.protocol import (
    QueryRequest,
    Session,
    UpdateRequest,
    UpdateResponse,
)


class _DecodedRows:
    """Rows source over the decoded rows one worker reply carried."""

    def __init__(
        self, columns: tuple[str, ...], rows: list[tuple[str | None, ...]]
    ) -> None:
        self.columns = columns
        self.num_rows = len(rows)
        self._rows = rows
        self._position = 0

    def take(self, n: int):
        start = self._position
        stop = self._position = min(start + n, self.num_rows)
        return self._rows[start:stop], stop >= self.num_rows

    def close(self) -> None:
        pass


class ClusterQueryService:
    """Serve queries from N worker processes over shared segments.

    The multi-process counterpart of
    :class:`~repro.service.QueryService`: construct it over a store,
    :meth:`start` (or enter it as a context manager) to publish the
    store into shared memory and fork the workers, then execute through
    sessions or the decoded shims. Closing shuts every worker down and
    unlinks every shared segment — a clean shutdown leaves zero stale
    names in ``/dev/shm``.
    """

    def __init__(
        self,
        store,
        engine: str = "emptyheaded",
        workers: int = 2,
        *,
        start_method: str | None = None,
        prefix: str = "repro-shm",
        allow_test_hooks: bool = False,
        **pool_options,
    ) -> None:
        self.store = store
        self.engine = engine
        self.allow_test_hooks = allow_test_hooks
        self.pool = WorkerPool(
            store,
            engine=engine,
            workers=workers,
            start_method=start_method,
            prefix=prefix,
            allow_test_hooks=allow_test_hooks,
            **pool_options,
        )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "ClusterQueryService":
        if not self._started:
            self.pool.start()
            self._started = True
        return self

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ClusterQueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The protocol backend (what a Session drives)
    # ------------------------------------------------------------------
    def run(self, request: QueryRequest, timeout_s: float | None = None):
        """Route one query to a worker; a rows source over its reply."""
        payload = {
            "text": request.text,
            "parameters": dict(request.parameters),
            "page_size": request.page_size,
            "timeout_s": timeout_s,
            "name": request.name,
            "stream": request.stream,
        }
        if self.allow_test_hooks and "__test_delay_s" in payload[
            "parameters"
        ]:
            payload["test_delay_s"] = payload["parameters"].pop(
                "__test_delay_s"
            )
        body = self.pool.request(frames.QUERY, payload, timeout_s=timeout_s)
        columns, rows = read_binary(body)
        return _DecodedRows(tuple(columns), rows)

    def update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply a batch cluster-wide (parent store + every worker)."""
        result = self.pool.update(add=request.add, remove=request.remove)
        return UpdateResponse(
            added=result["added"],
            removed=result["removed"],
            data_version=result["data_version"],
        )

    def explain(
        self, text: str, parameters: Mapping | None = None
    ) -> str:
        body = self.pool.request(
            frames.EXPLAIN,
            {"text": text, "parameters": dict(parameters or {})},
        )
        return frames.unpack(body)["text"]

    def stats(self) -> dict:
        """Store counters plus the aggregated ``cluster`` section."""
        return {
            "engine": self.engine,
            "triples": self.store.num_triples,
            "tables": len(self.store.tables),
            "data_version": self.store.data_version,
            "compactions": self.store.compactions,
            "cluster": self.pool.stats(),
        }

    #: The backend call's name (``QueryService.stats`` is a counters
    #: attribute, so the shared call cannot be spelled ``stats``).
    stats_payload = stats

    def workers(self) -> tuple[int, int | None]:
        """``(live, configured)`` worker processes."""
        return self.pool.worker_count(), self.pool.workers

    # ------------------------------------------------------------------
    def session(self, **options) -> Session:
        """Open a protocol session over the pool (``options`` are the
        session's own keywords; mirrors ``QueryService.session``)."""
        return Session(self, **options)

    def execute_decoded(
        self,
        text: str,
        name: str = "query",
        parameters: Mapping | None = None,
    ) -> list[tuple[str | None, ...]]:
        """One query, decoded rows (mirrors the in-process shim)."""
        rows = self.run(QueryRequest(text, parameters or {}, name=name))
        return rows.take(rows.num_rows)[0]

    def __repr__(self) -> str:
        return (
            f"<ClusterQueryService engine={self.engine!r} "
            f"workers={self.pool.worker_count()}/{self.pool.workers}>"
        )


__all__ = ["ClusterQueryService"]
