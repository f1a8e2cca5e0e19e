"""Live-server HTTP benchmark: wire-format serving vs in-process calls.

Starts a real :class:`~repro.service.http.SparqlHttpServer` (ephemeral
port, in-process thread — exactly what CI runs) and replays the service
benchmark's 100-parameter template family three ways:

* **inproc** — ``PreparedStatement.execute`` with the result cache off:
  the join work a serving tier must perform per distinct request, the
  baseline the acceptance gate compares against;
* **inproc_cached** — the same statement with its result cache on
  (steady-state repeated traffic; reported for context);
* **http_json / http_binary** — GET ``/sparql`` over a keep-alive
  connection with streamed SPARQL-JSON / length-prefixed binary
  responses (the server runs the default serving stack: statement,
  bound-plan, and result caches all on).

Also measured: **serialize-only** legs (serializer bytes produced from
an already-executed cursor — the wire format's own cost without
transport), a **concurrent** leg (``workers`` client threads, each with
its own connection, must match serial results), and a **smoke** section
probing the protocol itself (error-code conformance for malformed
requests, ``/stats``, ``/explain``, and an ``/update`` round-trip that
must change and then restore an answer).

Every HTTP row is cross-checked **row-for-row** against in-process
execution (JSON bindings and binary cells are decoded back to lexical
terms and compared in order), and the report gates
``http_*_p50 <= max_overhead * inproc_p50`` (default 2x).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from collections.abc import Callable

from repro.bench.report import percentile
from repro.bench.service_bench import (
    TEMPLATE,
    _measure,
    _professors,
)
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.lubm import generate_dataset
from repro.service import PreparedStatement, QueryService
from repro.service.formats import (
    SERIALIZERS,
    lexical_from_json,
    read_binary,
)
from repro.service.http import SparqlHttpServer


class _Client:
    """A keep-alive HTTP client bound to one server."""

    def __init__(self, host: str, port: int) -> None:
        self.connection = http.client.HTTPConnection(host, port)

    def get(self, path: str) -> tuple[int, bytes]:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return response.status, response.read()

    def post(
        self, path: str, body: bytes, content_type: str
    ) -> tuple[int, bytes]:
        self.connection.request(
            "POST", path, body=body, headers={"Content-Type": content_type}
        )
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


def _sparql_path(professor: str, format_name: str) -> str:
    return "/sparql?" + urllib.parse.urlencode(
        {"query": TEMPLATE, "$prof": professor, "format": format_name}
    )


def _json_rows(body: bytes) -> list[tuple[str | None, ...]]:
    payload = json.loads(body.decode("utf-8"))
    columns = payload["head"]["vars"]
    return [
        tuple(
            lexical_from_json(binding[name]) if name in binding else None
            for name in columns
        )
        for binding in payload["results"]["bindings"]
    ]


def _http_leg(
    client: _Client,
    professors: list[str],
    rounds: int,
    format_name: str,
    decode: Callable[[bytes], list],
) -> tuple[dict, dict[str, list]]:
    """Measure one wire format; returns (report, first-pass rows)."""
    rows: dict[str, list] = {}
    latencies: list[float] = []
    first_pass_s = 0.0
    start_total = time.perf_counter()
    for round_index in range(rounds):
        start_round = time.perf_counter()
        for professor in professors:
            start = time.perf_counter()
            status, body = client.get(_sparql_path(professor, format_name))
            latencies.append((time.perf_counter() - start) * 1e3)
            assert status == 200, (status, body[:200])
            if round_index == 0:
                rows[professor] = decode(body)
        if round_index == 0:
            first_pass_s = time.perf_counter() - start_round
    total_s = time.perf_counter() - start_total
    return (
        {
            "requests": len(latencies),
            "total_s": round(total_s, 6),
            "first_pass_s": round(first_pass_s, 6),
            "p50_ms": round(percentile(latencies, 0.50), 4),
            "p95_ms": round(percentile(latencies, 0.95), 4),
        },
        rows,
    )


def _serialize_leg(
    service: QueryService, professors: list[str], format_name: str
) -> dict:
    """Serializer cost alone: bytes from an already-executed cursor."""
    serializer = SERIALIZERS[format_name]
    session = service.session()
    statement = service.prepare(TEMPLATE)
    latencies: list[float] = []
    payload_bytes = 0
    for professor in professors:
        statement.execute(prof=professor)  # result now cached
        cursor = session.execute(TEMPLATE, parameters={"prof": professor})
        start = time.perf_counter()
        payload = serializer.serialize(cursor)
        latencies.append((time.perf_counter() - start) * 1e3)
        payload_bytes += len(payload)
        cursor.close()
    session.close()
    return {
        "p50_ms": round(percentile(latencies, 0.50), 4),
        "p95_ms": round(percentile(latencies, 0.95), 4),
        "total_bytes": payload_bytes,
    }


def _concurrent_leg(
    server: SparqlHttpServer,
    professors: list[str],
    workers: int,
    serial_rows: dict[str, list],
) -> dict:
    """``workers`` client threads; every response must match serial."""
    host, port = server.server_address[:2]
    mismatches: list[str] = []
    lock = threading.Lock()

    def run(worker: int) -> None:
        client = _Client(host, port)
        for index, professor in enumerate(professors):
            if index % workers != worker:
                continue
            status, body = client.get(_sparql_path(professor, "json"))
            rows = _json_rows(body) if status == 200 else None
            if status != 200 or rows != serial_rows[professor]:
                with lock:
                    mismatches.append(professor)
        client.close()

    start = time.perf_counter()
    threads = [
        threading.Thread(target=run, args=(worker,))
        for worker in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "workers": workers,
        "total_s": round(time.perf_counter() - start, 6),
        "matches_serial": not mismatches,
    }


def _saturation_leg(
    server: SparqlHttpServer,
    professors: list[str],
    client_counts: list[int],
    serial_rows: dict[str, list],
) -> dict:
    """Closed-loop multi-client saturation: throughput vs client count.

    Each level runs ``clients`` keep-alive connections, every client
    issuing one request per family member (so offered load scales with
    the client count), and reports aggregate throughput plus latency
    percentiles. Every response is decoded and checked against the
    serial rows — saturation must never trade correctness for rate.
    """
    host, port = server.server_address[:2]
    levels: list[dict] = []
    all_match = True
    for clients in client_counts:
        latencies: list[float] = []
        mismatches: list[str] = []
        lock = threading.Lock()

        def run() -> None:
            client = _Client(host, port)
            local_lat: list[float] = []
            local_bad: list[str] = []
            for professor in professors:
                start = time.perf_counter()
                status, body = client.get(_sparql_path(professor, "json"))
                local_lat.append((time.perf_counter() - start) * 1e3)
                if status != 200 or _json_rows(body) != serial_rows[professor]:
                    local_bad.append(professor)
            client.close()
            with lock:
                latencies.extend(local_lat)
                mismatches.extend(local_bad)

        threads = [threading.Thread(target=run) for _ in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        requests = clients * len(professors)
        all_match = all_match and not mismatches
        levels.append(
            {
                "clients": clients,
                "requests": requests,
                "wall_s": round(wall_s, 6),
                "throughput_rps": round(requests / wall_s, 2)
                if wall_s
                else 0.0,
                "p50_ms": round(percentile(latencies, 0.50), 4),
                "p99_ms": round(percentile(latencies, 0.99), 4),
                "matches_serial": not mismatches,
            }
        )
    return {"levels": levels, "matches_serial": all_match}


def _smoke_probes(client: _Client, professors: list[str]) -> dict:
    """Protocol conformance: error codes, stats, explain, update."""
    probes: dict[str, bool] = {}

    status, body = client.get(
        "/sparql?" + urllib.parse.urlencode({"query": "SELEC nope"})
    )
    error = json.loads(body)["error"]
    probes["malformed_query_400_parse_error"] = (
        status == 400 and error["code"] == "parse_error"
    )

    status, body = client.get(
        "/sparql?"
        + urllib.parse.urlencode({"query": TEMPLATE, "format": "xml"})
    )
    probes["unknown_format_406"] = (
        status == 406
        and json.loads(body)["error"]["code"] == "unsupported_format"
    )

    status, body = client.get(
        "/sparql?" + urllib.parse.urlencode({"query": TEMPLATE})
    )
    probes["missing_parameter_400"] = (
        status == 400
        and json.loads(body)["error"]["code"] == "parameter_error"
    )

    status, body = client.get("/stats")
    stats = json.loads(body)
    probes["stats_ok"] = status == 200 and "triples" in stats
    # The bench client drives one keep-alive connection, so by the
    # time this probe runs the server must report connection reuse and
    # its admission-pool configuration under the "http" section.
    http_stats = stats.get("http", {})
    probes["stats_http_keepalive"] = (
        http_stats.get("requests", {}).get("served", 0) > 0
        and http_stats.get("requests", {}).get("keepalive_reuses", 0) > 0
        and http_stats.get("connections", {}).get("opened", 0) >= 1
        and http_stats.get("pool", {}).get("max_workers", 0) > 0
        and http_stats.get("pool", {}).get("max_pending", 0) > 0
    )

    status, body = client.get(
        "/explain?"
        + urllib.parse.urlencode(
            {"query": TEMPLATE, "$prof": professors[0]}
        )
    )
    probes["explain_ok"] = status == 200 and b"plan" in body
    status, body = client.get(
        "/explain?" + urllib.parse.urlencode({"query": TEMPLATE})
    )
    probes["explain_missing_parameter_400"] = (
        status == 400
        and json.loads(body)["error"]["code"] == "parameter_error"
    )

    # Update round-trip: add a matching student, the template family's
    # answer must grow by one row, then restore.
    professor = professors[0]
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    ub = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#"
    ghost = "<http://www.Department0.University0.edu/HttpBenchGhost>"
    added = [
        [ghost, f"<{ub}advisor>", professor],
        [ghost, rdf_type, f"<{ub}GraduateStudent>"],
    ]
    before = len(_json_rows(client.get(_sparql_path(professor, "json"))[1]))
    status, body = client.post(
        "/update", json.dumps({"add": added}).encode(), "application/json"
    )
    probes["update_applied"] = (
        status == 200 and json.loads(body)["added"] == len(added)
    )
    during = len(_json_rows(client.get(_sparql_path(professor, "json"))[1]))
    client.post(
        "/update",
        json.dumps({"remove": added}).encode(),
        "application/json",
    )
    after = len(_json_rows(client.get(_sparql_path(professor, "json"))[1]))
    probes["update_visible_and_restored"] = (
        during == before + 1 and after == before
    )

    probes["ok"] = all(probes.values())
    return probes


def run_http_bench(
    universities: int = 1,
    seed: int = 0,
    family: int = 100,
    rounds: int = 4,
    workers: int = 4,
    max_overhead: float = 2.0,
) -> dict:
    """Run the live-server benchmark; returns the JSON-ready report.

    The acceptance gate: streamed JSON and binary serving must keep
    ``p50 <= max_overhead * inproc_p50``, where *inproc* is
    ``PreparedStatement.execute`` with the result cache off — the join
    each distinct request costs a server. Every HTTP response is
    cross-checked row-for-row against in-process execution first.
    """
    dataset = generate_dataset(universities=universities, seed=seed)
    store = dataset.store
    professors = _professors(store, family)
    service = QueryService(EmptyHeadedEngine(store))

    # --- In-process baselines ------------------------------------------
    nocache = PreparedStatement(
        service.engine, TEMPLATE, result_cache_size=0
    )
    nocache.execute(prof=professors[0])  # warm tries + plan
    inproc, inproc_rows = _measure(
        lambda prof: nocache.execute(prof=prof), professors, rounds
    )
    cached_statement = service.prepare(TEMPLATE)
    inproc_cached, _ = _measure(
        lambda prof: cached_statement.execute(prof=prof),
        professors,
        rounds,
    )
    decoded_rows = {
        prof: service.engine.decode(nocache.execute(prof=prof))
        for prof in professors
    }

    # --- The live server -----------------------------------------------
    with SparqlHttpServer(service, port=0, max_workers=workers) as server:
        host, port = server.server_address[:2]
        client = _Client(host, port)

        http_json, json_rows = _http_leg(
            client, professors, rounds, "json", _json_rows
        )
        http_binary, binary_rows = _http_leg(
            client,
            professors,
            rounds,
            "binary",
            lambda body: read_binary(body)[1],
        )

        json_agrees = all(
            json_rows[prof] == decoded_rows[prof] for prof in professors
        )
        binary_agrees = all(
            binary_rows[prof] == decoded_rows[prof] for prof in professors
        )

        serialize_json = _serialize_leg(service, professors, "json")
        serialize_binary = _serialize_leg(service, professors, "binary")

        concurrent = _concurrent_leg(
            server, professors, workers, json_rows
        )
        saturation = _saturation_leg(
            server,
            professors,
            sorted({1, 2, workers}),
            json_rows,
        )
        smoke = _smoke_probes(client, professors)
        client.close()

    inproc_p50 = inproc.report()["p50_ms"]
    json_overhead = (
        http_json["p50_ms"] / inproc_p50 if inproc_p50 else float("inf")
    )
    binary_overhead = (
        http_binary["p50_ms"] / inproc_p50 if inproc_p50 else float("inf")
    )
    within_gate = (
        json_overhead <= max_overhead and binary_overhead <= max_overhead
    )
    agrees = json_agrees and binary_agrees

    return {
        "bench": "http",
        "config": {
            "universities": universities,
            "seed": seed,
            "family": family,
            "rounds": rounds,
            "workers": workers,
            "max_overhead": max_overhead,
            "engine": "emptyheaded",
            "triples": store.num_triples,
        },
        "template": TEMPLATE,
        "inproc": inproc.report(),
        "inproc_cached": inproc_cached.report(),
        "http_json": http_json,
        "http_binary": http_binary,
        "serialize_json": serialize_json,
        "serialize_binary": serialize_binary,
        "json_p50_overhead": round(json_overhead, 3),
        "binary_p50_overhead": round(binary_overhead, 3),
        "rows_crosschecked": {
            "json": json_agrees,
            "binary": binary_agrees,
        },
        "concurrent": concurrent,
        "saturation": saturation,
        "smoke": smoke,
        "agrees": agrees,
        "within_overhead_gate": within_gate,
        "ok": agrees
        and within_gate
        and concurrent["matches_serial"]
        and saturation["matches_serial"]
        and smoke["ok"],
    }


def render(report: dict) -> str:
    """Human-readable summary of :func:`run_http_bench` output."""
    config = report["config"]
    lines = [
        f"http bench over {config['triples']} triples "
        f"({config['family']}-parameter family, {config['rounds']} "
        f"rounds, live server)",
        f"  inproc (no result cache): "
        f"p50 {report['inproc']['p50_ms']:.2f}ms  "
        f"p95 {report['inproc']['p95_ms']:.2f}ms",
        f"  inproc (result cache):    "
        f"p50 {report['inproc_cached']['p50_ms']:.2f}ms",
        f"  http json:    p50 {report['http_json']['p50_ms']:.2f}ms  "
        f"p95 {report['http_json']['p95_ms']:.2f}ms  "
        f"({report['json_p50_overhead']:.2f}x inproc, "
        f"serialize-only p50 {report['serialize_json']['p50_ms']:.2f}ms)",
        f"  http binary:  p50 {report['http_binary']['p50_ms']:.2f}ms  "
        f"p95 {report['http_binary']['p95_ms']:.2f}ms  "
        f"({report['binary_p50_overhead']:.2f}x inproc, "
        f"serialize-only p50 {report['serialize_binary']['p50_ms']:.2f}ms)",
        f"  overhead gate (<= {config['max_overhead']:g}x): "
        f"{report['within_overhead_gate']}   rows cross-checked: "
        f"json={report['rows_crosschecked']['json']} "
        f"binary={report['rows_crosschecked']['binary']}",
        f"  concurrent[{report['concurrent']['workers']}]: "
        f"{report['concurrent']['total_s']:.3f}s  matches serial: "
        f"{report['concurrent']['matches_serial']}",
    ]
    for level in report["saturation"]["levels"]:
        lines.append(
            f"  saturation[{level['clients']} clients]: "
            f"{level['throughput_rps']:.1f} req/s  "
            f"p50 {level['p50_ms']:.2f}ms  p99 {level['p99_ms']:.2f}ms  "
            f"matches: {level['matches_serial']}"
        )
    lines.append(f"  smoke probes ok: {report['smoke']['ok']}")
    return "\n".join(lines)
