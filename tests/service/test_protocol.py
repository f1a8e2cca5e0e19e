"""Session/cursor protocol: lifecycle, paging, deadlines, capacity.

The contract tests run over both backends — an in-process
:class:`QueryService` and a :class:`ClusterQueryService` worker pool —
since the one ``Session``/``Cursor`` must behave alike over either; a
fake in-memory backend pins down that they need nothing but the four
backend calls.
"""

import pytest

from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.errors import (
    CapacityError,
    ConfigError,
    CursorClosedError,
    CursorExhaustedError,
    ParameterError,
    ParseError,
    QueryTimeoutError,
    SessionClosedError,
    SessionError,
    UnknownCursorError,
)
from repro.service import QueryService
from repro.service.cluster import ClusterQueryService
from repro.service.cluster.shm import shm_supported
from repro.service.protocol import (
    QueryRequest,
    Session,
    UpdateRequest,
    UpdateResponse,
)
from repro.storage.vertical import vertically_partition

EX = "http://ex/"


def _store(n=10):
    return vertically_partition(
        [(f"<{EX}s{i}>", f"<{EX}p>", f"<{EX}o{i % 3}>") for i in range(n)]
    )


def _service(n=10):
    return QueryService(EmptyHeadedEngine(_store(n)))


@pytest.fixture(
    params=[
        "inproc",
        pytest.param(
            "pool",
            marks=pytest.mark.skipif(
                not shm_supported(),
                reason="shared memory unavailable in this sandbox",
            ),
        ),
    ]
)
def backend(request):
    """A factory ``backend(n)`` for a fresh n-triple backend."""
    clusters = []

    def make(n=10):
        if request.param == "inproc":
            return _service(n)
        cluster = ClusterQueryService(
            _store(n), workers=1, prefix=f"repro-testproto{len(clusters)}"
        )
        clusters.append(cluster)
        return cluster.start()

    make.in_process = request.param == "inproc"
    yield make
    for cluster in clusters:
        cluster.close()


QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"


# ---------------------------------------------------------------------------
# Cursor paging
# ---------------------------------------------------------------------------
def test_cursor_pages_cover_rows_in_order(backend):
    service = _service(10)
    session = backend(10).session()
    cursor = session.execute(QUERY, page_size=3)
    assert cursor.columns == ("s", "o")
    assert cursor.num_rows == 10
    pages = list(cursor.pages())
    assert [len(page.rows) for page in pages] == [3, 3, 3, 1]
    assert [page.offset for page in pages] == [0, 3, 6, 9]
    assert [page.done for page in pages] == [False, False, False, True]
    rows = [row for page in pages for row in page.rows]
    assert rows == service.engine.decode(service.execute(QUERY))


def test_fetch_after_final_page_raises_typed_error(backend):
    session = backend(2).session()
    cursor = session.execute(QUERY, page_size=10)
    first = cursor.fetch()
    assert first.done and len(first.rows) == 2
    with pytest.raises(CursorExhaustedError) as excinfo:
        cursor.fetch()
    # Session-protocol misuse: code "session_error", HTTP 409.
    assert excinfo.value.code == "session_error"
    assert excinfo.value.http_status == 409


def test_first_fetch_on_empty_result_is_a_done_page_not_an_error(backend):
    session = backend(2).session()
    cursor = session.execute(
        f"SELECT ?s WHERE {{ ?s <{EX}p> <{EX}nothing> }}"
    )
    page = cursor.fetch()
    assert page.done and page.rows == ()
    with pytest.raises(CursorExhaustedError):
        cursor.fetch()


def test_fetch_all_and_iteration_match(backend):
    session = backend(7).session()
    rows = session.execute(QUERY, page_size=2).fetch_all()
    iterated = list(session.execute(QUERY, page_size=3))
    assert rows == iterated


def test_cursor_pagination_interacts_with_limit_offset(backend):
    session = backend(10).session()
    full = session.execute(QUERY).fetch_all()
    sliced = session.execute(QUERY + " LIMIT 5 OFFSET 2", page_size=2)
    rows = sliced.fetch_all()
    # The query-level slice happens in the engine; the cursor then pages
    # over exactly those 5 rows.
    assert rows == full[2:7]
    assert sliced.num_rows == 5


def _mutate(session):
    """Add one matching triple and remove another through the session."""
    session.update(
        UpdateRequest(
            add=((f"<{EX}new>", f"<{EX}p>", f"<{EX}o0>"),),
            remove=((f"<{EX}s1>", f"<{EX}p>", f"<{EX}o1>"),),
        )
    )


def test_cursor_survives_mid_stream_update(backend):
    session = backend(10).session()
    cursor = session.execute(QUERY, page_size=4)
    first = cursor.fetch()
    _mutate(session)
    rest = cursor.fetch_all()
    # The cursor pages the snapshot taken at execute time: exactly the
    # original 10 rows, no torn mixture.
    assert len(first.rows) + len(rest) == 10
    # A fresh execute sees the mutated store (one added, one removed).
    rows = session.execute(QUERY).fetch_all()
    assert len(rows) == 10 and (f"<{EX}new>", f"<{EX}o0>") in rows


def test_closed_cursor_raises_and_releases_slot(backend):
    session = backend().session(max_open_cursors=1)
    cursor = session.execute(QUERY)
    with pytest.raises(CapacityError):
        session.execute(QUERY)
    cursor.close()
    replacement = session.execute(QUERY)  # slot free again
    with pytest.raises(CursorClosedError):
        cursor.fetch()
    replacement.close()


def test_cursor_lookup_by_id(backend):
    session = backend().session()
    cursor = session.execute(QUERY)
    assert session.cursor(cursor.cursor_id) is cursor
    cursor.close()
    with pytest.raises(UnknownCursorError):
        session.cursor(cursor.cursor_id)


def test_invalid_page_size_rejected(backend):
    session = backend().session()
    with pytest.raises(ParameterError) as excinfo:
        session.execute(QUERY, page_size=0)
    # Request-shaped misuse: code "parameter_error", HTTP 400 (and still
    # a ConfigError subclass for callers catching broadly).
    assert excinfo.value.code == "parameter_error"
    assert excinfo.value.http_status == 400
    assert isinstance(excinfo.value, ConfigError)
    with pytest.raises(ParameterError):
        session.execute(QUERY).fetch(-1)


# ---------------------------------------------------------------------------
# Streaming cursors
# ---------------------------------------------------------------------------
def test_streaming_cursor_matches_materialized_rows(backend):
    session = backend(10).session()
    for text in (QUERY, QUERY + " LIMIT 5 OFFSET 2"):
        materialized = session.execute(text).fetch_all()
        streamed = session.execute(text, page_size=3, stream=True)
        # Lazy row production is the in-process backend's; a pool
        # worker streams on its side and replies with the whole result.
        assert streamed.streaming == backend.in_process
        assert streamed.columns == ("s", "o")
        assert streamed.fetch_all() == materialized


def test_streaming_cursor_row_count_unknown_until_drained():
    session = _service(10).session()
    cursor = session.execute(QUERY, stream=True)
    with pytest.raises(SessionError):
        cursor.num_rows
    rows = cursor.fetch_all()
    assert cursor.num_rows == len(rows) == 10


def test_streaming_cursor_survives_mid_stream_update(backend):
    session = backend(10).session()
    cursor = session.execute(QUERY, page_size=4, stream=True)
    first = cursor.fetch()
    _mutate(session)
    rest = cursor.fetch_all()
    # The stream reads the epoch pinned at execute time: exactly the
    # original 10 rows, no torn mixture.
    assert len(first.rows) + len(rest) == 10
    # A fresh streamed execute sees the mutated store.
    assert len(session.execute(QUERY, stream=True).fetch_all()) == 10


def test_streaming_cursor_close_stops_the_engine_iterator(backend):
    session = backend(10).session()
    cursor = session.execute(QUERY, page_size=2, stream=True)
    cursor.fetch()
    cursor.close()
    with pytest.raises(CursorClosedError):
        cursor.fetch()
    assert session.open_cursors() == 0


# ---------------------------------------------------------------------------
# Session lifecycle and errors
# ---------------------------------------------------------------------------
def test_closed_session_rejects_everything(backend):
    session = backend().session()
    session.close()
    with pytest.raises(SessionClosedError):
        session.execute(QUERY)
    with pytest.raises(SessionClosedError):
        session.stats()
    with pytest.raises(SessionClosedError):
        session.explain(QUERY)
    with pytest.raises(SessionClosedError):
        session.update(UpdateRequest())
    session.close()  # idempotent


def test_session_context_manager_closes_cursors(backend):
    with backend().session() as session:
        cursor = session.execute(QUERY)
    assert session.closed
    with pytest.raises(CursorClosedError):
        cursor.fetch()


def test_parse_and_parameter_errors_pass_through(backend):
    session = backend().session()
    with pytest.raises(ParseError):
        session.execute("SELEC nope")
    template = f"SELECT ?o WHERE {{ $who <{EX}p> ?o }}"
    with pytest.raises(ParameterError):
        session.execute(template)  # missing value
    with pytest.raises(ParameterError):
        session.execute(template, parameters={"who": "<x>", "oops": "y"})


def test_timeout_raises_query_timeout(monkeypatch):
    import time

    service = _service()
    session = service.session()
    statement = service.prepare(QUERY)
    original = statement.execute

    def slow(**values):
        time.sleep(0.3)
        return original(**values)

    monkeypatch.setattr(statement, "execute", slow)
    with pytest.raises(QueryTimeoutError):
        session.execute(QueryRequest(text=QUERY, timeout_s=0.05))
    # Without a deadline the slow execution still completes.
    cursor = session.execute(QUERY)
    assert cursor.num_rows == 10


# ---------------------------------------------------------------------------
# Updates and shims
# ---------------------------------------------------------------------------
def test_update_request_roundtrip(backend):
    service = backend()
    session = service.session()
    before = session.execute(QUERY).num_rows
    triple = (f"<{EX}ghost>", f"<{EX}p>", f"<{EX}o0>")
    response = session.update(UpdateRequest(add=(triple,)))
    assert response.added == 1 and response.removed == 0
    assert response.data_version == session.stats()["data_version"]
    assert session.execute(QUERY).num_rows == before + 1
    response = session.update(UpdateRequest(remove=(triple,)))
    assert response.removed == 1
    assert session.execute(QUERY).num_rows == before


def test_query_service_entry_points_share_the_backend_run():
    service = _service()
    relation = service.execute(QUERY)
    decoded = service.execute_decoded(QUERY)
    assert decoded == service.engine.decode(relation)
    assert decoded == service.session().execute(QUERY).fetch_all()
    assert service.stats.executions == 3


def test_session_stats_shape(backend):
    session = backend().session()
    session.execute(QUERY).close()
    held = session.execute(QUERY)
    stats = session.stats()
    assert stats["engine"] == "emptyheaded"
    assert stats["triples"] == 10
    if backend.in_process:
        assert stats["service"]["executions"] == 2
    else:
        assert stats["cluster"]["requests"] == 2
    assert stats["session"]["open_cursors"] == 1
    held.close()


# ---------------------------------------------------------------------------
# Session/Cursor over a fake backend: nothing but the four calls
# ---------------------------------------------------------------------------
class _FakeRows:
    columns = ("n",)

    def __init__(self, count):
        self.num_rows = count
        self.left = [(str(i),) for i in range(count)]
        self.closed = False

    def take(self, n):
        page, self.left = self.left[:n], self.left[n:]
        return page, not self.left

    def close(self):
        self.closed = True


class _FakeBackend:
    """Any attribute beyond the four calls is an ``AttributeError``."""

    def __init__(self):
        self.ran = []

    def run(self, request, timeout_s):
        self.ran.append((request.text, timeout_s))
        return _FakeRows(int(request.text))

    def update(self, request):
        return UpdateResponse(len(request.add), len(request.remove), 7)

    def explain(self, text, parameters):
        return f"plan({text}, {sorted(parameters)})"

    def stats_payload(self):
        return {"engine": "fake"}


def test_session_and_cursor_need_only_the_four_backend_calls():
    fake = _FakeBackend()
    session = Session(fake, max_open_cursors=1, timeout_s=1.5)
    cursor = session.execute("5", page_size=2)
    assert cursor.columns == ("n",) and cursor.num_rows == 5
    # The bound is reserved before the backend runs anything.
    with pytest.raises(CapacityError):
        session.execute("3")
    assert fake.ran == [("5", 1.5)]
    pages = list(cursor.pages())
    assert [len(page.rows) for page in pages] == [2, 2, 1]
    assert [page.offset for page in pages] == [0, 2, 4]
    assert pages[-1].done
    with pytest.raises(CursorExhaustedError):
        cursor.fetch()
    cursor.close()
    assert cursor._rows.closed and session.open_cursors() == 0
    # A request's own deadline wins over the session default.
    held = session.execute(QueryRequest("0", timeout_s=0.2))
    assert fake.ran[-1] == ("0", 0.2)
    assert held.fetch().done
    assert session.explain("q", {"a": 1}) == "plan(q, ['a'])"
    assert session.update(UpdateRequest(add=(("s", "p", "o"),))) == (
        UpdateResponse(1, 0, 7)
    )
    assert session.stats() == {
        "engine": "fake",
        "session": {"open_cursors": 1},
    }
    session.close()
    assert held.closed and held._rows.closed
    assert "_FakeBackend" in repr(session)
