"""Pre-fork worker pool: spawn, health-check, respawn, retry.

:class:`WorkerPool` owns N worker processes (see
:mod:`repro.service.cluster.worker`) over one
:class:`~repro.service.cluster.shm.SegmentPublisher`. The contract:

* **Spawning** — each worker gets a pinned (refcount-acquired) epoch
  plus a copy of the update log committed since that epoch was
  published, so it reconstructs the parent's exact store state. A
  worker whose attach fails because the epoch was retired mid-attach
  reports ``HELLO ERR``; the pool releases the pin, republishes, and
  retries with the fresh epoch.
* **Requests** — :meth:`request` checks a free worker out of the
  queue, exchanges one frame pair under the handle's lock, and checks
  it back in. A worker that dies mid-request (``kill -9``) is detected
  by the liveness probe inside ``recv_frame``; the request is retried
  transparently on a sibling and the client never sees the crash —
  only when every retry is exhausted does
  :class:`~repro.errors.WorkerCrashError` surface.
* **Updates** — :meth:`update` applies the batch to the authoritative
  parent store, the only encoder, and ships what it committed (a
  :class:`~repro.storage.vertical.CommittedUpdate`: the encoded delta
  batches, the created tables' IRIs and the appended dictionary terms)
  to the replay log and to every worker, which applies it without
  encoding anything. A worker that answers ERR is out of step and is
  recycled. When the log outgrows ``republish_fraction`` of the store,
  the pool publishes a fresh segment and truncates the log so
  respawned workers attach near the head instead of replaying history.
* **Health** — a monitor thread notices dead workers between requests
  and respawns them in the background; ``respawns`` counts every
  replacement.

Lock order (enforced by the runtime lock-order sanitizer in tests):
``_update_lock`` before ``handle.lock``; never the reverse — request
threads release the handle lock before touching pool state.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from dataclasses import dataclass, field

from repro.errors import (
    CapacityError,
    ClusterError,
    ERROR_CODES,
    QueryTimeoutError,
    ReproError,
    SegmentRetiredError,
    WorkerCrashError,
)
from repro.service.cluster import frames
from repro.service.cluster.shm import SegmentPublisher, reclaim_stale
from repro.service.cluster.worker import WorkerConfig, worker_main
from repro.storage.vertical import CommittedUpdate

#: Wall-clock bound on a worker's attach + replay + HELLO.
HELLO_TIMEOUT_S = 60.0


def raise_remote(payload: dict) -> None:
    """Re-raise a worker's ERR frame as its taxonomy exception.

    The class registered under the code is reconstructed when its
    constructor takes a bare message; classes with richer constructors
    (e.g. :class:`~repro.errors.UnsupportedFormatError`) fall back to a
    base :class:`~repro.errors.ReproError` carrying the original code
    and status as instance attributes — wire clients dispatch on the
    code either way.
    """
    code = payload.get("code", "internal_error")
    message = payload.get("message", "worker error")
    status, cls = ERROR_CODES.get(code, (500, ReproError))
    try:
        exc = cls(message)
    except TypeError:
        exc = ReproError(message)
        exc.code = code
        exc.http_status = status
    # Always a ReproError by construction (taxonomy class or fallback).
    raise exc  # repro: allow[error-taxonomy]


@dataclass
class WorkerHandle:
    """One worker process plus its pipe (pool-internal)."""

    worker_id: int
    process: object
    conn: object
    epoch: int
    lock: threading.Lock = field(default_factory=threading.Lock)
    pid: int = 0
    data_version: int = 0
    requests: int = 0
    alive: bool = True


class WorkerPool:
    """N engine processes over shared segments, crash-tolerant."""

    def __init__(
        self,
        store,
        engine: str = "emptyheaded",
        workers: int = 2,
        *,
        start_method: str | None = None,
        prefix: str = "repro-shm",
        request_timeout_s: float = 120.0,
        checkout_timeout_s: float = 30.0,
        timeout_grace_s: float = 5.0,
        republish_fraction: float = 0.5,
        max_spawn_retries: int = 3,
        health_interval_s: float = 0.5,
        allow_test_hooks: bool = False,
        max_open_cursors: int = 64,
    ) -> None:
        if workers < 1:
            raise ClusterError("WorkerPool needs at least 1 worker")
        self.store = store
        self.engine = engine
        self.workers = workers
        self.request_timeout_s = request_timeout_s
        self.checkout_timeout_s = checkout_timeout_s
        self.timeout_grace_s = timeout_grace_s
        self.republish_fraction = republish_fraction
        self.max_spawn_retries = max_spawn_retries
        self.health_interval_s = health_interval_s
        self.allow_test_hooks = allow_test_hooks
        self.max_open_cursors = max_open_cursors
        self._ctx = multiprocessing.get_context(start_method)
        self._publisher = SegmentPublisher(store, prefix=prefix)
        self._update_lock = threading.RLock()
        self._handles: dict[int, WorkerHandle] = {}
        self._free: queue.Queue[WorkerHandle] = queue.Queue()
        self._replay_log: list[CommittedUpdate] = []
        self._replay_rows = 0
        self._next_id = 0
        self._closed = False
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self._counter_lock = threading.Lock()
        self._waiting = 0
        self._spawning = 0
        self.respawns = 0
        self.requests = 0
        self.retries = 0
        self.reclaimed: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Reclaim stale segments, publish, and spawn the fleet."""
        self.reclaimed = reclaim_stale(self._publisher.prefix)
        self._publisher.publish()
        for _ in range(self.workers):
            self._free.put(self._spawn())
        self._monitor = threading.Thread(
            target=self._health_loop, name="repro-pool-health", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self) -> WorkerHandle:
        """Start one worker, retrying across retired epochs."""
        last_error: dict = {}
        for _ in range(self.max_spawn_retries):
            handle, hello = self._spawn_attempt()
            if hello.get("ok"):
                return handle
            last_error = hello
            if hello.get("code") not in (
                "segment_retired",
                "segment_attach",
            ):
                break
            # The epoch went away under the worker (external sweep,
            # forced retire): publish a fresh one and try again.
            with self._update_lock:
                self._publisher.publish()
                self._replay_log.clear()
                self._replay_rows = 0
        if last_error.get("code") in ERROR_CODES:
            raise_remote(last_error)
        raise ClusterError(
            "worker failed to start: "
            f"{last_error.get('message', 'no HELLO')}"
        )

    def _spawn_attempt(self) -> tuple[WorkerHandle | None, dict]:
        parent_conn, child_conn = self._ctx.Pipe()
        with self._update_lock:
            epoch = self._publisher.current_epoch
            try:
                name = self._publisher.acquire(epoch)
            except SegmentRetiredError as exc:
                # Retired between current_epoch and acquire (the
                # publisher's lock is finer than _update_lock): report
                # it like a worker-side retire so _spawn republishes.
                parent_conn.close()
                child_conn.close()
                return None, {
                    "ok": False,
                    "code": "segment_retired",
                    "message": str(exc),
                }
            config = WorkerConfig(
                shm_name=name,
                epoch=epoch,
                engine=self.engine,
                replay=tuple(self._replay_log),
                max_open_cursors=self.max_open_cursors,
                allow_test_hooks=self.allow_test_hooks,
            )
            self._next_id += 1
            worker_id = self._next_id
            process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, config),
                name=f"repro-worker-{worker_id}",
                daemon=True,
            )
            handle = WorkerHandle(
                worker_id=worker_id,
                process=process,
                conn=parent_conn,
                epoch=epoch,
            )
            # Registered while its lock is held: an update broadcast
            # will queue behind HELLO, never interleave with it, and the
            # replay snapshot above plus broadcasts-after-registration
            # cover every batch exactly once.
            handle.lock.acquire()
            self._handles[worker_id] = handle
        failure: dict | None = None
        hello: dict = {}
        try:
            process.start()
            child_conn.close()
            try:
                _, status, payload = frames.recv_frame(
                    parent_conn,
                    timeout_s=HELLO_TIMEOUT_S,
                    is_alive=process.is_alive,
                )
                hello = frames.unpack(payload)
                if status != frames.OK:
                    failure = {"ok": False, **hello}
                else:
                    handle.pid = hello["pid"]
                    handle.data_version = hello["data_version"]
            except (WorkerCrashError, ClusterError) as exc:
                failure = {
                    "ok": False,
                    "code": "worker_crash",
                    "message": str(exc),
                }
        finally:
            # Never call pool bookkeeping (_update_lock) while holding
            # a handle lock — the update path takes them the other way.
            handle.lock.release()
        if failure is not None:
            self._forget(handle)
            return handle, failure
        return handle, {"ok": True, **hello}

    def _forget(self, handle: WorkerHandle) -> None:
        """Unregister a dead/failed worker and drop its epoch pin."""
        handle.alive = False
        with self._update_lock:
            removed = self._handles.pop(handle.worker_id, None)
        if removed is not None:
            self._publisher.release(handle.epoch)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if handle.process.is_alive():
            handle.process.terminate()

    def _mark_dead(self, handle: WorkerHandle) -> None:
        """Note a crash and respawn a replacement in the background."""
        with self._update_lock:
            still_registered = handle.worker_id in self._handles
        if not still_registered:
            return
        self._forget(handle)
        handle.process.join(timeout=1.0)
        if self._closed:
            return
        with self._counter_lock:
            self.respawns += 1
            self._spawning += 1
        threading.Thread(
            target=self._respawn_one,
            name="repro-pool-respawn",
            daemon=True,
        ).start()

    def _respawn_one(self) -> None:
        try:
            replacement = self._spawn()
        except (ClusterError, ReproError):
            return  # the health loop keeps trying while the pool lives
        finally:
            with self._counter_lock:
                self._spawning -= 1
        if self._closed:
            self._forget(replacement)
            return
        self._free.put(replacement)

    def _health_loop(self) -> None:
        while not self._monitor_stop.wait(self.health_interval_s):
            with self._update_lock:
                handles = list(self._handles.values())
            live = 0
            for handle in handles:
                if handle.alive and not handle.process.is_alive():
                    self._mark_dead(handle)
                elif handle.alive:
                    live += 1
            # Heal chronic shortfalls (a respawn attempt failed) without
            # overshooting past replacements already being spawned.
            with self._counter_lock:
                missing = self.workers - live - self._spawning
                if missing > 0 and not self._closed:
                    self._spawning += missing
                else:
                    missing = 0
            for _ in range(missing):
                self._respawn_one()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _checkout(self) -> WorkerHandle:
        with self._counter_lock:
            self._waiting += 1
        try:
            deadline_budget = self.checkout_timeout_s
            while True:
                if self._closed:
                    raise ClusterError("worker pool is closed")
                try:
                    handle = self._free.get(timeout=deadline_budget)
                except queue.Empty:
                    raise CapacityError(
                        "no worker became free within "
                        f"{self.checkout_timeout_s:g}s"
                    ) from None
                if handle.alive:
                    return handle
        finally:
            with self._counter_lock:
                self._waiting -= 1

    def request(
        self,
        kind: int,
        payload: dict,
        timeout_s: float | None = None,
    ) -> bytes:
        """Exchange one frame pair with any worker, retrying crashes.

        Returns the OK payload bytes; an ERR frame re-raises the
        worker's taxonomy error. A worker that dies mid-exchange is
        forgotten, a replacement is respawned in the background, and
        the request retries on a sibling — up to one attempt per
        configured worker plus one.
        """
        if self._closed:
            raise ClusterError("worker pool is closed")
        # The grace lets the worker's own QueryTimeoutError (raised at
        # timeout_s by its deadline pool) win the race in the normal
        # case; the wire deadline below is the backstop for a worker
        # that is wedged before it even starts executing.
        wait = (
            timeout_s + self.timeout_grace_s if timeout_s is not None
            else self.request_timeout_s
        )
        body = frames.pack(payload)
        attempts = self.workers + 1
        for attempt in range(attempts):
            handle = self._checkout()
            try:
                with handle.lock:
                    frames.send_frame(handle.conn, kind, body)
                    _, status, response = frames.recv_frame(
                        handle.conn,
                        timeout_s=wait,
                        is_alive=handle.process.is_alive,
                    )
                    handle.requests += 1
            except (WorkerCrashError, OSError, EOFError):
                # WorkerCrashError: died mid-exchange. OSError/EOFError:
                # died while idle in the free queue, so the very first
                # write hit its broken pipe. Either way the handle lock
                # was released when the with-block unwound, so pool
                # bookkeeping runs lock-clean here.
                self._mark_dead(handle)
                with self._counter_lock:
                    self.retries += 1
                continue
            except ClusterError:
                # Alive but wedged past the deadline: its pipe now has
                # an orphaned in-flight response, so it cannot be
                # reused — recycle the process. With a client deadline
                # set this is the request blowing its budget, which the
                # single-process tier reports as a query timeout.
                self._mark_dead(handle)
                if timeout_s is not None:
                    raise QueryTimeoutError(
                        f"query exceeded its {timeout_s:g}s deadline "
                        "(worker recycled)"
                    ) from None
                raise
            self._free.put(handle)
            with self._counter_lock:
                self.requests += 1
            if status != frames.OK:
                raise_remote(frames.unpack(response))
            return response
        raise WorkerCrashError(
            f"request failed on {attempts} workers in a row"
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, add=(), remove=()) -> dict:
        """Apply one batch everywhere: parent store, log, all workers.

        The parent store is the only encoder; the workers get what it
        committed (:meth:`replicate`). Serialized under
        ``_update_lock`` so every worker applies the committed updates
        in commit order.
        """
        with self._update_lock:
            version = self.store.data_version
            base_terms = len(self.store.dictionary)
            added = self.store.add_triples(add) if add else 0
            removed = self.store.remove_triples(remove) if remove else 0
            if added or removed:
                self.replicate(self.store.committed_since(version, base_terms))
            return {
                "added": added,
                "removed": removed,
                "data_version": self.store.data_version,
            }

    def replicate(self, update: CommittedUpdate) -> None:
        """Log and broadcast an update already committed to this pool's
        store; republish when the log is heavy.

        A worker that fails the update (an ERR answer, a crash, a
        wedge) no longer matches the parent: it is recycled, and its
        replacement replays the log, this update included.
        """
        with self._update_lock:
            self._replay_log.append(update)
            self._replay_rows += sum(batch.rows for batch in update.batches)
            payload = frames.pack(update)
            for handle in list(self._handles.values()):
                try:
                    with handle.lock:
                        frames.send_frame(
                            handle.conn, frames.UPDATE, payload
                        )
                        _, status, _ = frames.recv_frame(
                            handle.conn,
                            timeout_s=self.request_timeout_s,
                            is_alive=handle.process.is_alive,
                        )
                except (WorkerCrashError, ClusterError, OSError, EOFError):
                    status = frames.ERR
                if status == frames.OK:
                    handle.data_version = self.store.data_version
                else:
                    self._mark_dead(handle)
            if self._replay_rows > self.republish_fraction * max(
                self.store.num_triples, 1
            ):
                self._publisher.publish()
                self._replay_log.clear()
                self._replay_rows = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def publisher(self) -> SegmentPublisher:
        """The pool's segment publisher (benchmarks and tests)."""
        return self._publisher

    def worker_count(self) -> int:
        with self._update_lock:
            return sum(
                1
                for h in self._handles.values()
                if h.alive and h.process.is_alive()
            )

    def stats(self) -> dict:
        """Cluster-wide counters plus one entry per live worker."""
        with self._update_lock:
            handles = list(self._handles.values())
        current_version = self.store.data_version
        workers = []
        for handle in handles:
            entry = {
                "id": handle.worker_id,
                "pid": handle.pid,
                "epoch": handle.epoch,
                "requests": handle.requests,
            }
            try:
                with handle.lock:
                    frames.send_frame(
                        handle.conn, frames.STATS, frames.pack({})
                    )
                    _, status, payload = frames.recv_frame(
                        handle.conn,
                        timeout_s=10.0,
                        is_alive=handle.process.is_alive,
                    )
            except (WorkerCrashError, ClusterError) as exc:
                entry["error"] = str(exc)
            else:
                if status == frames.OK:
                    detail = frames.unpack(payload)
                    entry.update(detail)
                    entry["epoch_lag"] = current_version - detail.get(
                        "data_version", current_version
                    )
            workers.append(entry)
        with self._counter_lock:
            counters = {
                "requests": self.requests,
                "retries": self.retries,
                "respawns": self.respawns,
                "queue_depth": self._waiting,
            }
        return {
            "worker_count": len(workers),
            **counters,
            "published_epochs": self._publisher.published,
            "segment_bytes": self._publisher.segment_bytes(),
            "replay_batches": len(self._replay_log),
            "reclaimed_segments": list(self.reclaimed),
            "workers": workers,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down and unlink every shared segment."""
        if self._closed:
            return
        self._closed = True
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
        with self._update_lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.alive = False
            try:
                with handle.lock:
                    frames.send_frame(
                        handle.conn, frames.SHUTDOWN, frames.pack({})
                    )
                    frames.recv_frame(handle.conn, timeout_s=2.0)
            except (WorkerCrashError, ClusterError, OSError):
                pass
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        for handle in handles:
            handle.process.join(timeout=3.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - stuck
                handle.process.kill()
                handle.process.join(timeout=1.0)
        self._publisher.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<WorkerPool engine={self.engine!r} "
            f"workers={self.worker_count()}/{self.workers} "
            f"respawns={self.respawns}>"
        )


__all__ = ["HELLO_TIMEOUT_S", "WorkerHandle", "WorkerPool", "raise_remote"]
