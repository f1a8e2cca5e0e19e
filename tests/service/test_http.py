"""HTTP front-end: concurrency, wire conformance, error codes.

One conformance matrix, two backends: the server under test is a real
:class:`SparqlHttpServer` on an ephemeral loopback port — requests go
through sockets, chunked streaming, and the full
session/cursor/serializer stack — over an in-process
:class:`QueryService` and over a two-worker
:class:`ClusterQueryService`. Bodies (results and errors) are compared
byte for byte against an in-process reference server over an identical
store.
"""

import http.client
import itertools
import json
import threading
import time
import urllib.parse
from contextlib import contextmanager

import pytest

from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.errors import ERROR_CODES
from repro.service import QueryService
from repro.service.cluster import ClusterHttpServer, ClusterQueryService
from repro.service.cluster.shm import shm_supported
from repro.service.formats import lexical_from_json, read_binary
from repro.service.http import MAX_BODY_BYTES, SparqlHttpServer
from repro.storage.vertical import vertically_partition

EX = "http://ex/"
PREFIX = "repro-testhttp"
_cluster_ids = itertools.count()


def _triples(n=30):
    return [
        (
            f"<{EX}s{i}>",
            f"<{EX}p{i % 3}>",
            f"<{EX}o{i % 5}>" if i % 4 else f'"lit{i}"@en',
        )
        for i in range(n)
    ]


@contextmanager
def _serve(kind, triples=None, pool_options=None, **server_options):
    """A live server over a fresh store behind the ``kind`` backend."""
    store = vertically_partition(triples or _triples())
    if kind == "inproc":
        backend = QueryService(EmptyHeadedEngine(store))
        with SparqlHttpServer(backend, port=0, **server_options) as srv:
            yield srv
    else:
        # Segment names are prefix-pid-epoch: clusters alive at the same
        # time in this process need distinct prefixes.
        with ClusterQueryService(
            store,
            workers=2,
            prefix=f"{PREFIX}{next(_cluster_ids)}",
            **(pool_options or {}),
        ) as backend:
            with SparqlHttpServer(backend, port=0, **server_options) as srv:
                yield srv


@pytest.fixture(
    scope="module",
    params=[
        "inproc",
        pytest.param(
            "pool",
            marks=pytest.mark.skipif(
                not shm_supported(),
                reason="shared memory unavailable in this sandbox",
            ),
        ),
    ],
)
def kind(request):
    return request.param


@pytest.fixture(scope="module")
def server(kind):
    # Shared by the module's tests: a test that updates the store
    # restores it, so the data stays identical to ``reference``.
    with _serve(kind, max_workers=4) as srv:
        yield srv


@pytest.fixture(scope="module")
def reference():
    """An in-process server over an identical, never-updated store."""
    with _serve("inproc") as srv:
        yield srv


def _expected_rows(reference, text, parameters=None):
    service = reference.service
    return service.engine.decode(
        service.execute(text, parameters=parameters)
    )


def test_cluster_server_name_is_the_one_server():
    assert ClusterHttpServer is SparqlHttpServer


def _get(server, path):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        connection.close()


def _post(server, path, body, content_type):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": content_type}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _sparql(params):
    return "/sparql?" + urllib.parse.urlencode(params)


def _json_rows(body):
    payload = json.loads(body)
    columns = payload["head"]["vars"]
    return [
        tuple(
            lexical_from_json(binding[name]) if name in binding else None
            for name in columns
        )
        for binding in payload["results"]["bindings"]
    ]


# ---------------------------------------------------------------------------
# Concurrency: N threads x M templates == serial in-process execution
# ---------------------------------------------------------------------------
def test_concurrent_clients_match_serial_in_process(server, reference):
    templates = [
        (f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}", {}),
        (f"SELECT ?s WHERE {{ ?s <{EX}p1> ?o }} ", {}),
        (f"SELECT ?o WHERE {{ $who <{EX}p2> ?o }}", {"$who": f"<{EX}s2>"}),
        (f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }} LIMIT 7", {}),
        (
            f"SELECT ?s ?x WHERE {{ ?s <{EX}p0> ?o . "
            f"OPTIONAL {{ ?s <{EX}p1> ?x }} }}",
            {},
        ),
    ]
    expected = {}
    for text, params in templates:
        values = {k[1:]: v for k, v in params.items()}
        expected[text] = _expected_rows(reference, text, values)

    n_threads, per_thread = 8, 6
    results: dict[tuple[int, int], tuple] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client(thread_id: int) -> None:
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port)
        try:
            for i in range(per_thread):
                text, params = templates[(thread_id + i) % len(templates)]
                connection.request(
                    "GET", _sparql({"query": text, **params})
                )
                response = connection.getresponse()
                body = response.read()
                with lock:
                    results[(thread_id, i)] = (
                        text,
                        response.status,
                        body,
                    )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(exc)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(t,)) for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(results) == n_threads * per_thread
    # Byte-level check: identical requests get byte-identical bodies,
    # and every body decodes to exactly the serial in-process rows.
    bodies_by_text: dict[str, set[bytes]] = {}
    for text, status, body in results.values():
        assert status == 200
        bodies_by_text.setdefault(text, set()).add(body)
        assert _json_rows(body) == expected[text]
    for text, bodies in bodies_by_text.items():
        assert len(bodies) == 1, f"non-deterministic bytes for {text!r}"


# ---------------------------------------------------------------------------
# Malformed requests and the error-code contract
# ---------------------------------------------------------------------------
def _error(server, path):
    status, _, body = _get(server, path)
    payload = json.loads(body)["error"]
    return status, payload["code"]


def test_malformed_query_is_400_parse_error(server):
    assert _error(server, _sparql({"query": "SELEC nope"})) == (
        400,
        "parse_error",
    )


def test_unsupported_construct_is_400_translate_error(server):
    # Parses, but OPTIONAL-in-OPTIONAL is rejected at translation.
    query = (
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o . OPTIONAL {{ "
        f"?o <{EX}p1> ?x . OPTIONAL {{ ?x <{EX}p2> ?y }} }} }}"
    )
    assert _error(server, _sparql({"query": query})) == (
        400,
        "translate_error",
    )


def test_missing_query_is_400(server):
    assert _error(server, "/sparql") == (400, "parse_error")


def test_unknown_parameter_is_400(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert _error(server, _sparql({"query": query, "oops": "1"})) == (
        400,
        "parse_error",
    )


def test_parameter_mismatch_is_400_parameter_error(server):
    template = f"SELECT ?o WHERE {{ $who <{EX}p0> ?o }}"
    assert _error(server, _sparql({"query": template})) == (
        400,
        "parameter_error",
    )
    assert _error(
        server,
        _sparql({"query": template, "$who": f"<{EX}s0>", "$bad": "x"}),
    ) == (400, "parameter_error")


def test_unknown_format_is_406(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert _error(server, _sparql({"query": query, "format": "xml"})) == (
        406,
        "unsupported_format",
    )


def test_bad_page_size_is_400(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    # Not an integer at all: a parse error.
    assert _error(
        server, _sparql({"query": query, "page_size": "zero"})
    ) == (400, "parse_error")
    # Well-formed but out of domain: a parameter error, like the
    # in-process cursor raises.
    assert _error(
        server, _sparql({"query": query, "page_size": "0"})
    ) == (400, "parameter_error")
    assert _error(
        server, _sparql({"query": query, "page_size": "-3"})
    ) == (400, "parameter_error")


def test_streamed_response_is_byte_identical(server):
    query = (
        f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }} LIMIT 5 OFFSET 2"
    )
    plain = _get(server, _sparql({"query": query, "format": "json"}))
    streamed = _get(
        server,
        _sparql({"query": query, "format": "json", "stream": "true"}),
    )
    assert plain[0] == streamed[0] == 200
    assert plain[2] == streamed[2]


def test_bad_stream_flag_is_400(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert _error(
        server, _sparql({"query": query, "stream": "maybe"})
    ) == (400, "parse_error")


def test_unknown_endpoint_is_404(server):
    assert _error(server, "/nope") == (404, "not_found")


def test_malformed_update_body_is_400(server):
    status, body = _post(server, "/update", b"not json", "application/json")
    assert status == 400
    assert json.loads(body)["error"]["code"] == "parse_error"
    status, body = _post(
        server,
        "/update",
        json.dumps({"add": [["only", "two"]]}).encode(),
        "application/json",
    )
    assert status == 400


def test_error_code_table_is_consistent():
    for code, (status, cls) in ERROR_CODES.items():
        assert cls.code == code
        assert cls.http_status == status


# ---------------------------------------------------------------------------
# Formats, pagination, and POST bodies over the wire
# ---------------------------------------------------------------------------
def test_page_size_does_not_change_bytes(server):
    query = f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }}"
    _, _, one = _get(server, _sparql({"query": query, "page_size": "1"}))
    _, _, big = _get(server, _sparql({"query": query, "page_size": "1000"}))
    assert one == big
    assert len(_json_rows(one)) == 30


def test_binary_format_roundtrips(server, reference):
    query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}"
    _, content_type, body = _get(
        server, _sparql({"query": query, "format": "binary", "page_size": "2"})
    )
    assert content_type == "application/x-sparql-binary-rows"
    columns, rows = read_binary(body)
    assert columns == ("s", "o")
    assert rows == _expected_rows(reference, query)


def test_numeric_template_parameter_matches_by_value(kind):
    # A FILTER template with a numeric $min: the wire value "30" must
    # behave like the in-process number 30, not like the string "30".
    triples = [
        (f"<{EX}a>", f"<{EX}age>", '"20"'),
        (f"<{EX}b>", f"<{EX}age>", '"40"'),
    ]
    service = QueryService(EmptyHeadedEngine(vertically_partition(triples)))
    template = (
        f"SELECT ?s WHERE {{ ?s <{EX}age> ?v . FILTER(?v > $min) }}"
    )
    expected = service.engine.decode(
        service.execute(template, parameters={"min": 30})
    )
    assert expected == [(f"<{EX}b>",)]
    with _serve(kind, triples=triples) as srv:
        _, _, body = _get(
            srv, _sparql({"query": template, "$min": "30"})
        )
        assert _json_rows(body) == expected


def test_explain_rejects_unknown_and_duplicate_parameters(server):
    query = f"SELECT ?o WHERE {{ $who <{EX}p0> ?o }}"
    status, _, body = _get(
        server,
        "/explain?"
        + urllib.parse.urlencode({"query": query, "fromat": "json"}),
    )
    assert status == 400
    assert json.loads(body)["error"]["code"] == "parse_error"
    status, _, body = _get(
        server,
        "/explain?"
        + urllib.parse.urlencode(
            [("query", query), ("$who", "<a>"), ("$who", "<b>")]
        ),
    )
    assert status == 400
    # A template explains with its parameters bound, not without them.
    status, _, body = _get(
        server,
        "/explain?"
        + urllib.parse.urlencode({"query": query, "$who": f"<{EX}s0>"}),
    )
    assert status == 200 and b"plan" in body
    assert _error(
        server, "/explain?" + urllib.parse.urlencode({"query": query})
    ) == (400, "parameter_error")


def test_post_form_and_raw_query_bodies(server):
    query = f"SELECT ?o WHERE {{ $who <{EX}p2> ?o }}"
    body = urllib.parse.urlencode(
        {"query": query, "$who": f"<{EX}s2>"}
    ).encode()
    status, response = _post(
        server, "/sparql", body, "application/x-www-form-urlencoded"
    )
    assert status == 200
    expected = _json_rows(response)

    plain = f"SELECT ?o WHERE {{ <{EX}s2> <{EX}p2> ?o }}"
    status, response = _post(
        server, "/sparql", plain.encode(), "application/sparql-query"
    )
    assert status == 200
    assert _json_rows(response) == expected
    assert response == _get(server, _sparql({"query": plain}))[2]


def test_update_visible_to_following_queries(server):
    query = f"SELECT ?o WHERE {{ <{EX}ghost> <{EX}p0> ?o }}"

    def rows():
        return _json_rows(_get(server, _sparql({"query": query}))[2])

    assert rows() == []
    batch = [[f"<{EX}ghost>", f"<{EX}p0>", f"<{EX}o1>"]]
    status, body = _post(
        server,
        "/update",
        json.dumps({"add": batch}).encode(),
        "application/json",
    )
    assert status == 200 and json.loads(body)["added"] == 1
    # More samples than pool workers: the batch is visible on all of them.
    for _ in range(6):
        assert rows() == [(f"<{EX}o1>",)]
    status, body = _post(
        server,
        "/update",
        json.dumps({"remove": batch}).encode(),
        "application/json",
    )
    assert status == 200 and json.loads(body)["removed"] == 1
    for _ in range(6):
        assert rows() == []


def test_stats_and_explain_endpoints(server):
    status, _, body = _get(server, "/stats")
    payload = json.loads(body)
    assert status == 200 and payload["triples"] == 30
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    status, content_type, body = _get(
        server, "/explain?" + urllib.parse.urlencode({"query": query})
    )
    assert status == 200
    assert content_type.startswith("text/plain")
    assert b"plan" in body


def test_stats_reports_keepalive_and_pool_metrics(server, kind):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port)
    try:
        # Six requests down one keep-alive connection: every one after
        # the first is a reuse.
        for _ in range(5):
            connection.request("GET", _sparql({"query": query}))
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["results"]["bindings"]
        connection.request("GET", "/stats")
        payload = json.loads(connection.getresponse().read())
    finally:
        connection.close()

    assert payload["triples"] == 30  # session stats still present
    http_stats = payload["http"]
    assert http_stats["connections"]["opened"] >= 1
    assert http_stats["requests"]["served"] >= 6
    assert http_stats["requests"]["keepalive_reuses"] >= 5
    if kind == "inproc":
        # The server's own execution slots; all work in this process.
        assert http_stats["pool"]["max_workers"] == 4
        assert http_stats["pool"]["worker_count"] == 1
        assert payload["service"]["executions"] >= 5
    else:
        # The pool's real worker count, plus its aggregated section.
        assert http_stats["pool"]["max_workers"] == 2
        assert http_stats["pool"]["worker_count"] == 2
        assert payload["cluster"]["worker_count"] == 2
        assert len(payload["cluster"]["workers"]) == 2
    assert payload["session"]["open_cursors"] == 0
    assert http_stats["pool"]["max_pending"] == 64
    assert http_stats["pool"]["in_flight"] == 0
    assert http_stats["pool"]["in_flight_peak"] >= 1

    # A fresh connection is a new open, not a reuse.
    before = http_stats["connections"]["opened"]
    _, _, body = _get(server, "/stats")
    after = json.loads(body)["http"]["connections"]
    assert after["opened"] == before + 1
    # Closes are counted when the handler thread notices EOF, which may
    # lag the client's close() — poll rather than assert a snapshot.
    deadline = time.time() + 2.0
    while (
        server.http_stats()["connections"]["closed"] < before
        and time.time() < deadline
    ):
        time.sleep(0.02)
    assert server.http_stats()["connections"]["closed"] >= before


def test_capacity_error_when_admission_bound_hit(kind):
    with _serve(kind, max_pending=1) as srv:
        # Hold the only admission slot, then issue a request.
        assert srv._admitted.acquire(blocking=False)
        try:
            status, code = (
                lambda r: (r[0], json.loads(r[2])["error"]["code"])
            )(_get(srv, _sparql({"query": f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"})))
            assert (status, code) == (503, "capacity")
        finally:
            srv._admitted.release()


def test_timeout_parameter_maps_to_503(kind, monkeypatch):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    params = {"query": query, "timeout": "0.05"}
    with _serve(
        kind, pool_options={"allow_test_hooks": True, "timeout_grace_s": 0.2}
    ) as srv:
        if kind == "inproc":
            statement = srv.service.prepare(query)
            original = statement.execute

            def slow(**values):
                time.sleep(0.3)
                return original(**values)

            monkeypatch.setattr(statement, "execute", slow)
        else:
            # The worker-side fault-injection hook holds the request
            # past its wire deadline; the pool recycles that worker.
            params["$__test_delay_s"] = "2.0"
        status, code = (
            lambda r: (r[0], json.loads(r[2])["error"]["code"])
        )(_get(srv, _sparql(params)))
        assert (status, code) == (503, "timeout")
        # An abandoned execution finishes in the background; it must
        # never register a cursor and leak a session slot.
        deadline = time.time() + 2.0
        while srv.session.open_cursors() and time.time() < deadline:
            time.sleep(0.02)
        assert srv.session.open_cursors() == 0


# ---------------------------------------------------------------------------
# Byte parity with the in-process reference server
# ---------------------------------------------------------------------------
QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}"


@pytest.mark.parametrize(
    "params",
    [
        {"query": QUERY, "format": "json"},
        {"query": QUERY, "format": "binary"},
        {"query": QUERY, "format": "tsv"},
        {"query": QUERY, "format": "csv"},
        {"query": QUERY, "page_size": 3},
        {"query": QUERY, "stream": "true"},
        {
            "query": f"SELECT ?o WHERE {{ $who <{EX}p2> ?o }}",
            "$who": f"<{EX}s2>",
        },
    ],
    ids=["json", "binary", "tsv", "csv", "paged", "stream", "template"],
)
def test_result_bodies_match_reference(server, reference, params):
    answer = _get(server, _sparql(params))
    assert answer == _get(reference, _sparql(params))
    assert answer[0] == 200


def test_explain_matches_reference(server, reference):
    path = "/explain?" + urllib.parse.urlencode({"query": QUERY})
    assert _get(server, path) == _get(reference, path)


@pytest.mark.parametrize(
    "path",
    [
        _sparql({"query": "SELEC nope"}),
        "/sparql",
        _sparql({"query": QUERY, "oops": "1"}),
        _sparql({"query": f"SELECT ?o WHERE {{ $who <{EX}p0> ?o }}"}),
        _sparql({"query": QUERY, "format": "xml"}),
        _sparql({"query": QUERY, "page_size": "0"}),
        _sparql({"query": QUERY, "stream": "maybe"}),
        "/explain",
        "/nope",
    ],
)
def test_error_bodies_match_reference(server, reference, path):
    answer = _get(server, path)
    assert answer == _get(reference, path)
    assert 400 <= answer[0] < 500
    assert set(json.loads(answer[2])["error"]) == {"code", "message"}


# ---------------------------------------------------------------------------
# Request bodies are outside input
# ---------------------------------------------------------------------------
def _post_with_length(server, path, length, body=b""):
    """POST with a hand-written Content-Length; returns the status, the
    error code and whether the server announced closing the connection."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders(body)
        response = connection.getresponse()
        payload = json.loads(response.read())
        closed = response.getheader("Connection") == "close"
        return response.status, payload["error"]["code"], closed
    finally:
        connection.close()


@pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
def test_malformed_content_length_is_400(server, length):
    assert _post_with_length(server, "/update", length) == (
        400,
        "parse_error",
        True,
    )
    assert _post_with_length(server, "/sparql", length) == (
        400,
        "parse_error",
        True,
    )


@pytest.mark.parametrize(
    "length", [str(MAX_BODY_BYTES + 1), "9" * 5000]
)
def test_oversized_body_is_rejected_before_reading(server, length):
    # No body bytes are ever sent: the answer cannot have waited for them.
    assert _post_with_length(server, "/update", length) == (
        400,
        "parse_error",
        True,
    )


@pytest.mark.parametrize(
    "content_type",
    ["application/sparql-query", "application/x-www-form-urlencoded"],
)
def test_undecodable_query_body_is_400(server, content_type):
    status, body = _post(server, "/sparql", b"query=\xff\xfe", content_type)
    assert status == 400
    assert json.loads(body)["error"]["code"] == "parse_error"
    status, body = _post(server, "/update", b"\xff\xfe", "application/json")
    assert status == 400
    assert json.loads(body)["error"]["code"] == "parse_error"
