"""Cluster-tier benchmark: multi-process serving vs single-process.

Starts a real :class:`~repro.service.cluster.ClusterQueryService` (the
shared-memory segment store + pre-fork worker pool) as the backend of a
:class:`~repro.service.http.SparqlHttpServer` and drives the service
benchmark's parameterized template family against a 1→N worker scaling
curve:

* **correctness** — every pool-backed HTTP response (JSON *and* binary)
  is compared **byte for byte** against the same server class over an
  in-process :class:`~repro.service.QueryService` answering the same
  request over the same store: same rows, same serialization, same
  page geometry. A mid-run ``/update`` round-trip must become visible
  on every worker and then restore.
* **throughput** — each worker count runs a closed-loop multi-client
  leg (``clients`` keep-alive connections, one request per family
  member each) reporting aggregate req/s and p50/p99 latency.
* **hygiene** — after shutdown the benchmark's shared-memory prefix
  must have zero segments left in ``/dev/shm`` and re-attaching a
  published segment name must fail.

The scaling gate adapts to the machine: with ``E = min(workers,
cpu_count)`` *effective* workers, the N-worker leg must reach
``min_scaling`` (default 2.5x) the 1-worker throughput when ``E >= 4``,
a modest 1.3x when ``E`` is 2–3, and no timing gate at ``E == 1``
(a single core cannot run workers in parallel; correctness and hygiene
still gate). The p99 target is likewise enforced only when ``E >= 2``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.parse

from repro.bench.http_bench import _Client, _sparql_path
from repro.bench.report import percentile
from repro.bench.service_bench import TEMPLATE, _professors
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.errors import SegmentAttachError, SegmentRetiredError
from repro.lubm import generate_dataset
from repro.service.http import SparqlHttpServer
from repro.service.query_service import QueryService

_PREFIX = "repro-clbench"


def _effective_workers(workers: int) -> int:
    return min(workers, os.cpu_count() or 1)


def _required_scaling(workers: int, min_scaling: float) -> float:
    effective = _effective_workers(workers)
    if effective >= 4:
        return min_scaling
    if effective >= 2:
        return min(min_scaling, 1.3)
    return 0.0


def _collect_bodies(
    url: str, professors: list[str], formats: tuple[str, ...]
) -> dict[tuple[str, str], bytes]:
    """Full response bodies for every (professor, format) pair."""
    parsed = urllib.parse.urlsplit(url)
    client = _Client(parsed.hostname, parsed.port)
    bodies: dict[tuple[str, str], bytes] = {}
    try:
        for professor in professors:
            for format_name in formats:
                status, body = client.get(
                    _sparql_path(professor, format_name)
                )
                assert status == 200, (status, body[:200])
                bodies[(professor, format_name)] = body
    finally:
        client.close()
    return bodies


def _closed_loop_leg(
    url: str, professors: list[str], clients: int, rounds: int
) -> dict:
    """``clients`` connections, each replaying the family ``rounds``x."""
    parsed = urllib.parse.urlsplit(url)
    latencies: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()

    def run() -> None:
        client = _Client(parsed.hostname, parsed.port)
        local_lat: list[float] = []
        local_bad: list[str] = []
        for _ in range(rounds):
            for professor in professors:
                start = time.perf_counter()
                status, body = client.get(_sparql_path(professor, "json"))
                local_lat.append((time.perf_counter() - start) * 1e3)
                if status != 200:
                    local_bad.append(professor)
        client.close()
        with lock:
            latencies.extend(local_lat)
            failures.extend(local_bad)

    threads = [threading.Thread(target=run) for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    requests = clients * rounds * len(professors)
    return {
        "clients": clients,
        "requests": requests,
        "failures": len(failures),
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(requests / wall_s, 2) if wall_s else 0.0,
        "p50_ms": round(percentile(latencies, 0.50), 4),
        "p99_ms": round(percentile(latencies, 0.99), 4),
    }


def _update_probe(url: str, professor: str, worker_count: int) -> dict:
    """An update must become visible on *every* worker, then restore."""
    parsed = urllib.parse.urlsplit(url)
    client = _Client(parsed.hostname, parsed.port)
    try:
        rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        ub = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#"
        ghost = "<http://www.Department0.University0.edu/ClusterBenchGhost>"
        added = [
            [ghost, f"<{ub}advisor>", professor],
            [ghost, rdf_type, f"<{ub}GraduateStudent>"],
        ]

        def counts(samples: int) -> set[int]:
            """Row counts over enough requests to hit every worker."""
            return {
                len(
                    json.loads(
                        client.get(_sparql_path(professor, "json"))[1]
                    )["results"]["bindings"]
                )
                for _ in range(samples)
            }

        samples = max(worker_count * 3, 4)
        before = counts(samples)
        status, body = client.post(
            "/update",
            json.dumps({"add": added}).encode(),
            "application/json",
        )
        applied = status == 200 and json.loads(body)["added"] == len(added)
        during = counts(samples)
        client.post(
            "/update",
            json.dumps({"remove": added}).encode(),
            "application/json",
        )
        after = counts(samples)
        visible_everywhere = (
            len(before) == 1
            and during == {next(iter(before)) + 1}
            and after == before
        )
        return {
            "applied": applied,
            "visible_on_all_workers": visible_everywhere,
            "ok": applied and visible_everywhere,
        }
    finally:
        client.close()


def _shm_sweep(segment_name: str | None) -> dict:
    """Post-shutdown hygiene: nothing left under the bench prefix."""
    from repro.service.cluster.shm import (
        attach_shared_memory,
        detach,
        shm_dir,
    )

    directory = shm_dir()
    leftovers = (
        sorted(
            path.name
            for path in directory.iterdir()
            if path.name.startswith(_PREFIX)
        )
        if directory is not None
        else []
    )
    attach_fails = True
    if segment_name is not None:
        try:
            segment = attach_shared_memory(segment_name)
        except (SegmentRetiredError, SegmentAttachError):
            pass
        else:
            attach_fails = False
            detach(segment)
    return {
        "leftover_segments": leftovers,
        "retired_attach_fails": attach_fails,
        "ok": not leftovers and attach_fails,
    }


def run_cluster_bench(
    universities: int = 1,
    seed: int = 0,
    family: int = 30,
    rounds: int = 2,
    workers: int = 2,
    clients: int = 4,
    p99_target_ms: float = 750.0,
    min_scaling: float = 2.5,
    engine: str = "emptyheaded",
) -> dict:
    """Run the cluster gate; returns the JSON-ready report.

    ``ok`` requires: byte-identical responses vs the single-process
    server (both wire formats), the update probe visible on every
    worker and restored, zero leftover shared-memory segments after
    shutdown — plus the adaptive scaling/p99 gates described in the
    module docstring.
    """
    from repro.service.cluster import ClusterQueryService

    dataset = generate_dataset(universities=universities, seed=seed)
    store = dataset.store
    professors = _professors(store, family)
    formats = ("json", "binary")

    # --- Single-process reference bodies --------------------------------
    service = QueryService(EmptyHeadedEngine(store))
    with SparqlHttpServer(service, port=0) as reference:
        reference_bodies = _collect_bodies(
            reference.url, professors, formats
        )

    # --- 1 -> N worker scaling curve ------------------------------------
    legs: list[dict] = []
    byte_identical = True
    update_probe: dict = {}
    segment_name: str | None = None
    worker_counts = sorted({1, workers})
    for count in worker_counts:
        with ClusterQueryService(
            store, engine=engine, workers=count, prefix=_PREFIX
        ) as cluster:
            with SparqlHttpServer(cluster, port=0) as server:
                bodies = _collect_bodies(server.url, professors, formats)
                identical = bodies == reference_bodies
                byte_identical = byte_identical and identical
                leg = _closed_loop_leg(
                    server.url, professors, clients, rounds
                )
                leg["workers"] = count
                leg["byte_identical"] = identical
                legs.append(leg)
                if count == workers:
                    update_probe = _update_probe(
                        server.url, professors[0], count
                    )
                    stats = cluster.stats()["cluster"]
                    leg["worker_stats"] = {
                        "respawns": stats["respawns"],
                        "retries": stats["retries"],
                        "max_epoch_lag": max(
                            (w["epoch_lag"] for w in stats["workers"]),
                            default=0,
                        ),
                    }
                    publisher = cluster.pool.publisher
                    epoch = publisher.current_epoch
                    segment_name = publisher.acquire(epoch)
                    publisher.release(epoch)

    shm = _shm_sweep(segment_name)

    base = legs[0]["throughput_rps"]
    peak = legs[-1]["throughput_rps"]
    scaling = round(peak / base, 3) if base else 0.0
    required = _required_scaling(workers, min_scaling)
    scaling_ok = required == 0.0 or scaling >= required
    p99_gated = _effective_workers(workers) >= 2
    p99_ok = not p99_gated or legs[-1]["p99_ms"] <= p99_target_ms
    no_failures = all(leg["failures"] == 0 for leg in legs)

    return {
        "bench": "cluster",
        "config": {
            "universities": universities,
            "seed": seed,
            "family": family,
            "rounds": rounds,
            "workers": workers,
            "clients": clients,
            "engine": engine,
            "triples": store.num_triples,
            "cpu_count": os.cpu_count() or 1,
            "effective_workers": _effective_workers(workers),
            "p99_target_ms": p99_target_ms,
            "min_scaling": min_scaling,
            "required_scaling": required,
        },
        "template": TEMPLATE,
        "legs": legs,
        "scaling": scaling,
        "scaling_ok": scaling_ok,
        "p99_gated": p99_gated,
        "p99_ok": p99_ok,
        "byte_identical": byte_identical,
        "update": update_probe,
        "shm": shm,
        "ok": (
            byte_identical
            and no_failures
            and update_probe.get("ok", False)
            and shm["ok"]
            and scaling_ok
            and p99_ok
        ),
    }


def render(report: dict) -> str:
    """Human-readable summary of :func:`run_cluster_bench` output."""
    config = report["config"]
    lines = [
        f"cluster bench over {config['triples']} triples "
        f"({config['family']}-parameter family, {config['clients']} "
        f"clients, {config['cpu_count']} cpu)",
    ]
    for leg in report["legs"]:
        lines.append(
            f"  workers={leg['workers']}: "
            f"{leg['throughput_rps']:.1f} req/s  "
            f"p50 {leg['p50_ms']:.2f}ms  p99 {leg['p99_ms']:.2f}ms  "
            f"byte-identical: {leg['byte_identical']}"
        )
    lines += [
        f"  scaling {report['scaling']:.2f}x "
        f"(required {config['required_scaling']:g}x on "
        f"{config['effective_workers']} effective workers): "
        f"{report['scaling_ok']}",
        f"  p99 gate (<= {config['p99_target_ms']:g}ms, "
        f"enforced={report['p99_gated']}): {report['p99_ok']}",
        f"  update visible on all workers: "
        f"{report['update'].get('ok', False)}",
        f"  shm clean after shutdown: {report['shm']['ok']} "
        f"(leftovers: {report['shm']['leftover_segments']})",
        f"  ok: {report['ok']}",
    ]
    return "\n".join(lines)
