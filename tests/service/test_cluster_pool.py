"""Worker pool: serving, crash retry, respawn, spawn-retry, differential.

Fault injection uses real ``kill -9`` on real forked processes — the
pool must hide the crash from the client (retry on a sibling) and heal
the fleet in the background.
"""

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro.engines import ENGINE_NAMES
from repro.errors import ParseError, QueryTimeoutError
from repro.service.cluster import frames
from repro.service.cluster.shm import shm_dir, shm_supported
from repro.service.cluster.service import ClusterQueryService
from repro.service.protocol import UpdateRequest
from repro.service.query_service import QueryService
from repro.storage.vertical import vertically_partition

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="shared memory unavailable in this sandbox"
)

EX = "http://ex/"
PREFIX = "repro-testpool"

QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}"


def _triples(n=60):
    return [
        (
            f"<{EX}s{i}>",
            f"<{EX}p{i % 3}>",
            f"<{EX}o{i % 5}>" if i % 4 else f'"lit{i}"',
        )
        for i in range(n)
    ]


def _store():
    return vertically_partition(_triples())


def _segment_names():
    directory = shm_dir()
    if directory is None:
        return []
    return sorted(
        p.name for p in directory.iterdir() if p.name.startswith(PREFIX)
    )


def _wait_for(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture()
def cluster():
    service = ClusterQueryService(
        _store(),
        workers=2,
        prefix=PREFIX,
        allow_test_hooks=True,
        checkout_timeout_s=30.0,
        timeout_grace_s=0.2,
    )
    with service:
        yield service
    assert _segment_names() == [], "segments leaked past close()"


class TestServing:
    def test_matches_in_process_rows(self, cluster):
        local = QueryService(
            ENGINE_NAMES["emptyheaded"](cluster.store)
        ).execute_decoded(QUERY)
        assert cluster.execute_decoded(QUERY) == local

    def test_requests_round_robin_across_workers(self, cluster):
        for _ in range(6):
            cluster.execute_decoded(QUERY)
        stats = cluster.stats()["cluster"]
        assert stats["worker_count"] == 2
        assert [w["requests"] > 0 for w in stats["workers"]] == [True, True]

    def test_worker_error_carries_taxonomy_code(self, cluster):
        with pytest.raises(ParseError):
            cluster.execute_decoded("SELEC nope")

    def test_timeout_surfaces_as_query_timeout(self, cluster):
        with pytest.raises(QueryTimeoutError):
            cluster.session().execute(
                QUERY,
                parameters={"__test_delay_s": 2.0},
                timeout_s=0.05,
            )

    def test_update_visible_on_every_worker(self, cluster):
        session = cluster.session()
        response = session.update(
            UpdateRequest(add=((f"<{EX}ghost>", f"<{EX}p0>", f"<{EX}o0>"),))
        )
        assert response.added == 1
        probe = f"SELECT ?o WHERE {{ <{EX}ghost> <{EX}p0> ?o }}"
        # More queries than workers: every worker must answer with it.
        for _ in range(6):
            assert cluster.execute_decoded(probe) == [(f"<{EX}o0>",)]
        session.update(
            UpdateRequest(
                remove=((f"<{EX}ghost>", f"<{EX}p0>", f"<{EX}o0>"),)
            )
        )
        for _ in range(6):
            assert cluster.execute_decoded(probe) == []

    def test_epoch_lag_zero_after_update(self, cluster):
        cluster.session().update(
            UpdateRequest(add=((f"<{EX}g2>", f"<{EX}p1>", f"<{EX}o1>"),))
        )
        stats = cluster.stats()["cluster"]
        assert all(w["epoch_lag"] == 0 for w in stats["workers"])


class TestCrashRecovery:
    def _busy_worker(self, pool):
        """The handle currently serving a request (not in the free queue)."""
        with pool._update_lock:
            handles = list(pool._handles.values())
        free_ids = {h.worker_id for h in list(pool._free.queue)}
        busy = [h for h in handles if h.worker_id not in free_ids]
        assert len(busy) == 1
        return busy[0]

    def test_kill9_mid_query_retries_on_sibling(self, cluster):
        pool = cluster.pool
        result: dict = {}

        def run():
            result["rows"] = cluster.session().execute(
                QUERY, parameters={"__test_delay_s": 1.5}
            ).fetch_all()

        thread = threading.Thread(target=run)
        thread.start()
        assert _wait_for(lambda: len(pool._free.queue) == 1, timeout_s=5)
        victim = self._busy_worker(pool)
        os.kill(victim.pid, signal.SIGKILL)
        thread.join(timeout=30)
        assert not thread.is_alive()
        # The client never saw the crash: full, correct rows.
        local = QueryService(
            ENGINE_NAMES["emptyheaded"](cluster.store)
        ).execute_decoded(QUERY)
        assert result["rows"] == local
        assert pool.retries >= 1

    def test_fleet_heals_after_kill(self, cluster):
        pool = cluster.pool
        victim = next(iter(pool._handles.values()))
        os.kill(victim.pid, signal.SIGKILL)
        assert _wait_for(
            lambda: pool.respawns >= 1 and pool.worker_count() == 2
        )
        # The respawned worker serves correctly.
        for _ in range(4):
            assert cluster.execute_decoded(QUERY)

    def test_respawned_worker_catches_up_replay_log(self, cluster):
        session = cluster.session()
        session.update(
            UpdateRequest(add=((f"<{EX}late>", f"<{EX}p0>", f"<{EX}o1>"),))
        )
        pool = cluster.pool
        victim = next(iter(pool._handles.values()))
        os.kill(victim.pid, signal.SIGKILL)
        assert _wait_for(
            lambda: pool.respawns >= 1 and pool.worker_count() == 2
        )
        probe = f"SELECT ?o WHERE {{ <{EX}late> <{EX}p0> ?o }}"
        for _ in range(6):
            assert cluster.execute_decoded(probe) == [(f"<{EX}o1>",)]


    def test_worker_failing_an_update_is_recycled(self, cluster, monkeypatch):
        """A worker that answers UPDATE with ERR no longer matches the
        parent: the pool recycles it instead of serving from it, and the
        replacement replays the log."""
        pool = cluster.pool
        victim = next(iter(pool._handles.values()))
        real_send = frames.send_frame

        def send(conn, kind, payload, status=frames.OK):
            if kind == frames.UPDATE and conn is victim.conn:
                # Out of step: the victim's dictionary does not end
                # where this update starts.
                update = frames.unpack(payload)
                payload = frames.pack(
                    dataclasses.replace(
                        update, base_terms=update.base_terms + 1
                    )
                )
            real_send(conn, kind, payload, status)

        monkeypatch.setattr(frames, "send_frame", send)
        response = cluster.session().update(
            UpdateRequest(add=((f"<{EX}late>", f"<{EX}p0>", f"<{EX}o1>"),))
        )
        assert response.added == 1
        assert victim.worker_id not in pool._handles
        assert victim.data_version < cluster.store.data_version
        assert _wait_for(
            lambda: pool.respawns >= 1 and pool.worker_count() == 2
        )
        local = QueryService(ENGINE_NAMES["emptyheaded"](cluster.store))
        for text in (QUERY, f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }}"):
            expected = local.execute_decoded(text)
            # More queries than workers: every worker must answer.
            for _ in range(6):
                assert cluster.execute_decoded(text) == expected


class TestSpawnRetry:
    def test_stale_name_mid_attach_republishes_and_recovers(self):
        """A worker handed a vanished segment name reports HELLO ERR
        ``segment_retired``; the pool republishes and retries."""
        from repro.service.cluster.pool import WorkerPool

        pool = WorkerPool(_store(), workers=1, prefix=PREFIX)
        publisher = pool.publisher
        real_acquire = publisher.acquire
        calls = {"n": 0}

        def flaky_acquire(epoch):
            name = real_acquire(epoch)  # keep the pin _forget releases
            calls["n"] += 1
            if calls["n"] == 1:
                # Simulate the epoch being swept between acquire and
                # the worker's attach: hand out a name that is gone.
                return f"{PREFIX}-{os.getpid():x}-e999"
            return name

        publisher.acquire = flaky_acquire
        try:
            pool.start()
            assert calls["n"] >= 2  # first attempt failed, retried
            response = pool.request(
                frames.QUERY,
                {"text": QUERY, "parameters": {}, "page_size": 64},
            )
            assert response  # served after recovery
        finally:
            publisher.acquire = real_acquire
            pool.close()
        assert _segment_names() == []


ENGINES = sorted(ENGINE_NAMES)


class TestDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_cluster_matches_single_process_with_midstream_updates(
        self, engine
    ):
        """cluster ≡ single-process across every engine, including
        visibility of add/remove batches applied mid-stream."""
        reference_store = _store()
        reference = QueryService(ENGINE_NAMES[engine](reference_store))
        cluster_store = _store()
        queries = [
            QUERY,
            f"SELECT ?s WHERE {{ ?s <{EX}p1> <{EX}o1> }}",
            f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }}",
        ]
        batches = [
            ((f"<{EX}d{i}>", f"<{EX}p{i % 3}>", f'"v{i}"'),)
            for i in range(3)
        ]
        with ClusterQueryService(
            cluster_store, engine=engine, workers=2, prefix=PREFIX
        ) as cluster:
            session = cluster.session()
            for batch in batches:
                for text in queries:
                    assert sorted(
                        cluster.execute_decoded(text)
                    ) == sorted(reference.execute_decoded(text)), (
                        engine,
                        text,
                    )
                session.update(UpdateRequest(add=batch))
                reference_store.add_triples(batch)
            # Remove the middle batch mid-stream and re-check.
            session.update(UpdateRequest(remove=batches[1]))
            reference_store.remove_triples(batches[1])
            for text in queries:
                assert sorted(cluster.execute_decoded(text)) == sorted(
                    reference.execute_decoded(text)
                ), (engine, text)
        assert _segment_names() == []
