"""SPARQL-Protocol-style HTTP front-end (stdlib only).

The network boundary the RDF-store literature treats as what makes an
engine a *store*, and the repo's only HTTP server: a
:class:`SparqlHttpServer` is a ``http.server.ThreadingHTTPServer``
speaking a SPARQL-1.1-Protocol-style interface over one shared protocol
:class:`~repro.service.protocol.Session`, so every HTTP client rides the
same serving path as in-process callers. The session's backend decides
where queries run: a :class:`~repro.service.QueryService` (this process,
plain or sharded engine) or a
:class:`~repro.service.cluster.ClusterQueryService` (the worker pool —
the handler thread exchanges one frame pair with a worker and only
serializes pages onto the socket).

Endpoints
---------
``GET/POST /sparql``
    Execute a query. ``query`` carries the SPARQL text (for POST also
    as an ``application/x-www-form-urlencoded`` field or a raw
    ``application/sparql-query`` body). ``$name=value`` parameters bind
    a prepared template's placeholders — the text is prepared once and
    cached, each request late-binds its values. ``format`` picks the
    result serialization (``json``/``csv``/``tsv``/``binary``, or via
    ``Accept``); ``page_size`` sets the streaming page granularity;
    ``timeout`` a per-request deadline in seconds. Results stream as
    chunked transfer encoding, one chunk per page — a huge result never
    materializes decoded on the server.
``GET /explain``
    The engine's plan description (the GHD decomposition for the
    EmptyHeaded family) for ``query``; ``text/plain``.
``GET /stats``
    Service/store counters as JSON.
``POST /update``
    A JSON body ``{"add": [[s, p, o], ...], "remove": [...]}`` applied
    through the store's incremental delta path (engines patch indexes,
    surviving bound plans are retained).

Concurrency and failure model
-----------------------------
``max_pending`` bounds admitted requests over their **whole life**
(execution and response streaming) — past it the server answers ``503``
with code ``capacity`` instead of queueing unboundedly — and at most
``max_workers`` executions run concurrently. Deadlines (``timeout`` per
request, or a server-wide default) are handed to the backend by the
shared session; a timed-out execution never registers a cursor. Request
bodies are outside input: a malformed, negative or over-cap
``Content-Length`` and a body that is not UTF-8 are ``400 parse_error``
(the first three also close the connection, since the body's end is
unknown or not worth reading). Template parameters
arrive as strings; bare numeric values are coerced to numbers (the
in-process value-matching semantics — quote a value, ``"30"``, to mean
the string literal). Every error is a JSON body
``{"error": {"code": ..., "message": ...}}`` whose stable ``code`` and
status come from the taxonomy in :mod:`repro.errors`.

Run a toy server::

    PYTHONPATH=src python -m repro.service.http --universities 1 --port 8035
    curl 'localhost:8035/sparql?query=SELECT%20...&format=csv'
"""

from __future__ import annotations

import argparse
import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    CapacityError,
    ParameterError,
    ParseError,
    error_code,
    http_status,
)
from repro.service.formats import serializer_for
from repro.service.protocol import (
    DEFAULT_PAGE_SIZE,
    QueryRequest,
    Session,
    UpdateRequest,
)
from repro.service.query_service import QueryService

#: Upper bound a client may set ``page_size`` to.
MAX_PAGE_SIZE = 100_000

#: Largest accepted request body (updates; query texts are small).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Reserved request parameters (everything ``$``-prefixed is a template
#: parameter; anything else is rejected so typos fail loudly).
_RESERVED_PARAMS = {"query", "format", "page_size", "timeout", "stream"}


def _single(params: dict[str, list[str]], name: str) -> str | None:
    values = params.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise ParseError(f"parameter {name!r} given more than once")
    return values[0]


def _parameter_value(raw: str) -> str | int | float:
    """The in-process :data:`ParameterValue` a wire parameter denotes.

    Lexical terms (``<iri>``, ``"literal"``) pass through verbatim. A
    bare numeric string becomes a number — in-process callers pass
    Python numbers for value-matched parameters, and a bare ``30`` is
    not a lexical term anyway, so the coercion is unambiguous (send
    ``"30"``, quoted, for the string literal).
    """
    if raw[:1] in ("<", '"'):
        return raw
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _template_parameters(
    params: dict[str, list[str]], reserved: set[str]
) -> dict[str, str | int | float]:
    """Collect ``$name`` values; reject typos and duplicates loudly
    (both ``/sparql`` and ``/explain`` share this contract)."""
    parameters: dict[str, str | int | float] = {}
    for name, values in params.items():
        if name.startswith("$"):
            if len(values) > 1:
                raise ParseError(
                    f"template parameter {name!r} given more than once"
                )
            parameters[name[1:]] = _parameter_value(values[0])
        elif name not in reserved:
            raise ParseError(
                f"unknown parameter {name!r} (template parameters are "
                f"$-prefixed; reserved: {', '.join(sorted(reserved))})"
            )
    return parameters


def _parse_query_request(
    params: dict[str, list[str]], default_page_size: int
) -> tuple[QueryRequest, str | None]:
    """Build a typed :class:`QueryRequest` from decoded parameters.

    Returns the request plus the explicit ``format`` name (``None``
    when the Accept header should decide).
    """
    text = _single(params, "query")
    if text is None:
        raise ParseError("missing required parameter 'query'")
    parameters = _template_parameters(params, _RESERVED_PARAMS)
    page_size = default_page_size
    raw = _single(params, "page_size")
    if raw is not None:
        try:
            page_size = int(raw)
        except ValueError:
            raise ParseError(f"page_size must be an integer, got {raw!r}")
        if page_size < 1:
            # Well-formed but out of domain: a parameter error (400,
            # code "parameter_error"), matching the in-process cursor.
            raise ParameterError(f"page_size must be >= 1, got {page_size}")
        if page_size > MAX_PAGE_SIZE:
            raise ParameterError(
                f"page_size must be in [1, {MAX_PAGE_SIZE}], got {page_size}"
            )
    timeout_s = None
    raw = _single(params, "timeout")
    if raw is not None:
        try:
            timeout_s = float(raw)
        except ValueError:
            raise ParseError(f"timeout must be a number, got {raw!r}")
        if timeout_s <= 0:
            raise ParseError(f"timeout must be positive, got {timeout_s}")
    stream = False
    raw = _single(params, "stream")
    if raw is not None:
        lowered = raw.lower()
        if lowered not in ("true", "false", "1", "0"):
            raise ParseError(
                f"stream must be true or false, got {raw!r}"
            )
        stream = lowered in ("true", "1")
    return (
        QueryRequest(
            text=text,
            parameters=parameters,
            page_size=page_size,
            timeout_s=timeout_s,
            stream=stream,
        ),
        _single(params, "format"),
    )


def parse_update_payload(body: bytes) -> UpdateRequest:
    """Validate a ``POST /update`` JSON body into an ``UpdateRequest``."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"update body is not valid JSON: {exc}")
    if not isinstance(payload, dict) or not (
        set(payload) <= {"add", "remove"}
    ):
        raise ParseError(
            'update body must be {"add": [[s,p,o],...], '
            '"remove": [[s,p,o],...]}'
        )

    def triples(key: str) -> tuple[tuple[str, str, str], ...]:
        rows = payload.get(key, [])
        if not isinstance(rows, list) or any(
            not isinstance(row, (list, tuple))
            or len(row) != 3
            or not all(isinstance(term, str) for term in row)
            for row in rows
        ):
            raise ParseError(
                f'update "{key}" must be a list of [s, p, o] '
                "string triples"
            )
        return tuple(tuple(row) for row in rows)

    return UpdateRequest(add=triples("add"), remove=triples("remove"))


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request (ThreadingHTTPServer gives it its own thread)."""

    protocol_version = "HTTP/1.1"
    #: Small chunked writes must not wait out Nagle + delayed ACK
    #: (~40ms per response on loopback without this).
    disable_nagle_algorithm = True
    server: "SparqlHttpServer"

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _send_body(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_body(
            status,
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
            "application/json",
        )

    def _send_error_payload(self, exc: BaseException) -> None:
        self._send_json(
            http_status(exc),
            {"error": {"code": error_code(exc), "message": str(exc)}},
        )

    def _stream_chunks(self, content_type: str, chunks) -> None:
        """Send an iterator of byte chunks as a chunked response."""
        self._response_started = True
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for chunk in chunks:
            if not chunk:
                continue
            # One write per chunk: framing + payload + trailer together
            # (separate small writes would ping-pong with delayed ACKs).
            self.wfile.write(
                f"{len(chunk):X}\r\n".encode("ascii") + chunk + b"\r\n"
            )
        self.wfile.write(b"0\r\n\r\n")

    # ------------------------------------------------------------------
    # Connection lifecycle (keep-alive metrics)
    # ------------------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        # One handler instance per TCP connection; requests beyond the
        # first on this instance are keep-alive reuses.
        self._conn_requests = 0
        self.server._note_connection_opened()

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server._note_connection_closed()

    def _note_request(self) -> None:
        self._conn_requests += 1
        self.server._note_request(reused=self._conn_requests > 1)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        split = urlsplit(self.path)
        params = parse_qs(split.query, keep_blank_values=True)
        self._response_started = False
        self._note_request()
        try:
            if split.path == "/sparql":
                self._handle_sparql(params)
            elif split.path == "/explain":
                self._handle_explain(params)
            elif split.path == "/stats":
                self._send_json(200, self.server.stats_payload())
            else:
                self._send_json(
                    404,
                    {
                        "error": {
                            "code": "not_found",
                            "message": f"no endpoint {split.path!r}",
                        }
                    },
                )
        except BrokenPipeError:  # client went away mid-stream
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - boundary translation
            if self._response_started:
                # Headers are on the wire: a second status line would
                # corrupt the stream — drop the connection instead.
                self.close_connection = True
            else:
                self._send_error_payload(exc)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        split = urlsplit(self.path)
        self._response_started = False
        self._note_request()
        try:
            if split.path == "/sparql":
                params = parse_qs(split.query, keep_blank_values=True)
                self._merge_post_params(params)
                self._handle_sparql(params)
            elif split.path == "/update":
                self._handle_update()
            else:
                self._send_json(
                    404,
                    {
                        "error": {
                            "code": "not_found",
                            "message": f"no endpoint {split.path!r}",
                        }
                    },
                )
        except BrokenPipeError:
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - boundary translation
            if self._response_started:
                self.close_connection = True
            else:
                self._send_error_payload(exc)

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        # A length this handler cannot trust leaves the body's end
        # unknown (or not worth reading): answer, then drop the
        # connection instead of parsing body bytes as the next request.
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            raise ParseError(
                f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        # int() refuses strings of thousands of digits; any length that
        # long is over the cap anyway.
        length = int(raw) if len(raw) <= 18 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ParseError(
                f"request body too large ({raw} bytes; the limit is "
                f"{MAX_BODY_BYTES})"
            )
        return self.rfile.read(length) if length else b""

    def _read_text(self) -> str:
        try:
            return self._read_body().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"request body is not valid UTF-8: {exc}")

    def _merge_post_params(self, params: dict[str, list[str]]) -> None:
        """Fold the POST body into the URL parameters (SPARQL protocol:
        form-encoded fields, or a raw ``application/sparql-query``)."""
        body = self._read_text()
        if not body:
            return
        content_type = (self.headers.get("Content-Type") or "").split(";")[
            0
        ].strip().lower()
        if content_type == "application/sparql-query":
            params.setdefault("query", []).append(body)
            return
        for name, values in parse_qs(body, keep_blank_values=True).items():
            params.setdefault(name, []).extend(values)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _handle_sparql(self, params: dict[str, list[str]]) -> None:
        request, format_name = _parse_query_request(
            params, self.server.page_size
        )
        serializer = serializer_for(
            format_name, self.headers.get("Accept")
        )
        # Admission covers the *whole* request — execution and response
        # streaming — so max_pending truly bounds unfinished work.
        with self.server.admission():
            cursor = self.server.execute(request)
            try:
                self._stream_chunks(
                    serializer.content_type, serializer.stream(cursor)
                )
            finally:
                cursor.close()

    def _handle_explain(self, params: dict[str, list[str]]) -> None:
        text = _single(params, "query")
        if text is None:
            raise ParseError("missing required parameter 'query'")
        parameters = _template_parameters(params, {"query"})
        body = self.server.session.explain(text, parameters).encode(
            "utf-8"
        )
        self._send_body(200, body + b"\n", "text/plain; charset=utf-8")

    def _handle_update(self) -> None:
        response = self.server.session.update(
            parse_update_payload(self._read_body())
        )
        self._send_json(
            200,
            {
                "added": response.added,
                "removed": response.removed,
                "data_version": response.data_version,
            },
        )

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class SparqlHttpServer(ThreadingHTTPServer):
    """A SPARQL-protocol endpoint over one backend.

    ``service`` is a :class:`QueryService` or a started
    :class:`~repro.service.cluster.ClusterQueryService` (anything
    answering the four backend calls of :mod:`repro.service.protocol`
    plus ``workers()``). ``max_workers`` bounds the executions the
    handler threads run at once (the same bounded-concurrency model as
    ``QueryService.execute_concurrent``); ``max_pending`` bounds
    admitted-but-unfinished requests before ``503 capacity``.
    Use as a context manager or call :meth:`start` / :meth:`stop`::

        with SparqlHttpServer(service, port=0) as server:
            print(server.url)  # http://127.0.0.1:<ephemeral>
    """

    daemon_threads = True

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_workers: int = 8,
        max_pending: int = 64,
        page_size: int = DEFAULT_PAGE_SIZE,
        timeout_s: float | None = None,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self.session = Session(
            service,
            max_open_cursors=max(max_pending * 2, 16),
            timeout_s=timeout_s,
        )
        self.page_size = page_size
        self.verbose = verbose
        self.max_pending = max_pending
        self.max_workers = max_workers
        self._admitted = threading.BoundedSemaphore(max_pending)
        self._exec_slots = threading.Semaphore(max_workers)
        self._serve_thread: threading.Thread | None = None
        # Connection / keep-alive counters (served under /stats).
        self._http_lock = threading.Lock()
        self._connections_opened = 0
        self._connections_closed = 0
        self._requests_served = 0
        self._keepalive_reuses = 0
        self._in_flight = 0
        self._in_flight_peak = 0

    # ------------------------------------------------------------------
    @contextmanager
    def admission(self):
        """Admit one request or answer ``503 capacity`` immediately.

        Held for the request's whole life — execution *and* response
        streaming — so ``max_pending`` genuinely bounds unfinished
        work (a slow client paging a huge result still occupies its
        slot).
        """
        if not self._admitted.acquire(blocking=False):
            raise CapacityError(
                f"server is at its {self.max_pending} in-flight "
                "request bound; retry later"
            )
        with self._http_lock:
            self._in_flight += 1
            self._in_flight_peak = max(self._in_flight_peak, self._in_flight)
        try:
            yield
        finally:
            with self._http_lock:
                self._in_flight -= 1
            self._admitted.release()

    def execute(self, request: QueryRequest):
        """Run one admitted query under the execution-concurrency bound.

        At most ``max_workers`` executions run at once — many HTTP
        clients multiplex onto the same thread-safe serving path a
        ``QueryService.execute_concurrent`` batch uses. Deadlines
        (``timeout`` on the request, or the server-wide default passed
        at construction) go to the backend through the session: on a
        timeout no cursor is ever registered, so an abandoned execution
        cannot pin a session slot.
        """
        with self._exec_slots:
            return self.session.execute(request)

    # ------------------------------------------------------------------
    # Connection-pool metrics
    # ------------------------------------------------------------------
    def _note_connection_opened(self) -> None:
        with self._http_lock:
            self._connections_opened += 1

    def _note_connection_closed(self) -> None:
        with self._http_lock:
            self._connections_closed += 1

    def _note_request(self, *, reused: bool) -> None:
        with self._http_lock:
            self._requests_served += 1
            if reused:
                self._keepalive_reuses += 1

    def http_stats(self) -> dict:
        """Connection, keep-alive and admission-pool counters."""
        worker_count, configured = self.service.workers()
        with self._http_lock:
            return {
                "connections": {
                    "opened": self._connections_opened,
                    "closed": self._connections_closed,
                    "active": (
                        self._connections_opened - self._connections_closed
                    ),
                },
                "requests": {
                    "served": self._requests_served,
                    "keepalive_reuses": self._keepalive_reuses,
                },
                "pool": {
                    # A backend with its own worker bound (the pool)
                    # reports that; in-process the bound is this
                    # server's execution slots.
                    "max_workers": configured or self.max_workers,
                    "max_pending": self.max_pending,
                    "in_flight": self._in_flight,
                    "in_flight_peak": self._in_flight_peak,
                    "worker_count": worker_count,
                },
            }

    def stats_payload(self) -> dict:
        """The ``/stats`` body: session/store counters plus ``http``."""
        payload = self.session.stats()
        payload["http"] = self.http_stats()
        return payload

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "SparqlHttpServer":
        """Serve in a background thread (returns immediately)."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever,
                name="repro-http-accept",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and release its session."""
        self.shutdown()
        self.server_close()
        self.session.close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
            self._serve_thread = None

    def __enter__(self) -> "SparqlHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> None:
    """Serve a generated LUBM instance (demo / curl playground)."""
    parser = argparse.ArgumentParser(
        prog="repro-sparql-server",
        description="SPARQL-protocol HTTP endpoint over a LUBM instance",
    )
    parser.add_argument("--universities", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8035)
    parser.add_argument("--max-workers", type=int, default=8)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    from repro.engines.emptyheaded import EmptyHeadedEngine
    from repro.lubm import generate_dataset

    dataset = generate_dataset(
        universities=args.universities, seed=args.seed
    )
    service = QueryService(EmptyHeadedEngine(dataset.store))
    server = SparqlHttpServer(
        service,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        verbose=not args.quiet,
    )
    print(
        f"serving {dataset.store.num_triples} triples on {server.url} "
        "(endpoints: /sparql /explain /stats /update; Ctrl-C stops)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


if __name__ == "__main__":
    main()


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_PAGE_SIZE",
    "SparqlHttpServer",
    "main",
    "parse_update_payload",
]
