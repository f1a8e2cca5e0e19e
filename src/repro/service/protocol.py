"""Transport-ready query protocol: sessions, cursors, typed messages.

This module is the serving tier's *protocol layer* — the API a network
front-end (or an embedding application) drives, shaped like the wire
protocols real RDF stores speak: **open → execute → fetch in pages →
close**. It holds the only :class:`Session` and the only
:class:`Cursor`; where a query's rows come from is the business of a
**backend**, which the session drives through four calls:

``run(request, timeout_s)``
    Execute one :class:`QueryRequest` under a deadline and return a
    *rows source*: ``columns`` (projected names), ``num_rows`` (the
    total, or ``None`` when rows are produced lazily),
    ``take(n) -> (rows, done)`` (the next at most ``n`` decoded rows
    and whether the source is now exhausted) and ``close()``.
``update(request)``
    Apply an :class:`UpdateRequest`, return an :class:`UpdateResponse`.
``explain(text, parameters)``
    The plan description for a query text.
``stats_payload()``
    The ``/stats`` body (named apart from ``QueryService.stats``, the
    in-process service's counters attribute).

Two backends implement them: :class:`~repro.service.QueryService`
(in-process, over a plain engine or a sharded one — sources decode
page-wise from the encoded result or the engine's live iterator, pinned
to the epoch observed at execute time) and
:class:`~repro.service.cluster.ClusterQueryService` (one frame exchange
with the worker pool; the source pages the decoded rows the reply
carried). Everything else is written once, here:

* :class:`Session` — one client's context: open/closed checks, cursor
  ids, the reserve-before-execute bound on open cursors
  (:class:`~repro.errors.CapacityError`), default page size and
  deadline merging. Sessions are thread-safe; one session may serve
  many transport threads.
* :class:`Cursor` — paging over a rows source: one fixed-size
  :class:`Page` per fetch, so a client paging a large result never
  materializes the whole decoded row list, with the typed
  ``ParameterError`` / ``CursorExhaustedError`` / ``CursorClosedError``
  contract.
* Typed request/response messages — :class:`QueryRequest`,
  :class:`UpdateRequest`/:class:`UpdateResponse` — the structured form
  the HTTP front-end parses into, with every failure mapped onto the
  stable error taxonomy of :mod:`repro.errors`.

Example::

    service = QueryService(EmptyHeadedEngine(dataset.store))
    with service.session() as session:
        cursor = session.execute(
            "SELECT ?x WHERE { ?x ub:advisor $prof }",
            parameters={"prof": "<http://...Professor0>"},
            page_size=100,
        )
        for page in cursor.pages():
            handle(page.rows)
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.core.query import ParameterValue
from repro.errors import (
    CapacityError,
    ConfigError,
    CursorClosedError,
    CursorExhaustedError,
    ParameterError,
    SessionClosedError,
    SessionError,
    UnknownCursorError,
)

#: Default rows per fetched page.
DEFAULT_PAGE_SIZE = 256


@dataclass(frozen=True)
class QueryRequest:
    """One query over the protocol: a template text plus its values."""

    text: str
    parameters: Mapping[str, ParameterValue] = field(default_factory=dict)
    page_size: int = DEFAULT_PAGE_SIZE
    timeout_s: float | None = None
    name: str = "query"
    #: Feed the cursor from the engine's live result iterator instead of
    #: a materialized snapshot: a streaming-capable engine then stops
    #: enumerating when the client stops fetching (top-k short-circuit).
    #: Deadlines bound only the streaming *setup* — the join work is
    #: deferred into fetches, which a deadline cannot observe.
    stream: bool = False


@dataclass(frozen=True)
class UpdateRequest:
    """One update batch: string triples to add and/or remove."""

    add: tuple[tuple[str, str, str], ...] = ()
    remove: tuple[tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class UpdateResponse:
    """What an update changed (``data_version`` is the new epoch)."""

    added: int
    removed: int
    data_version: int


@dataclass(frozen=True)
class Page:
    """One fetched slice of a cursor's rows (decoded lexical terms)."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str | None, ...], ...]
    #: Index of ``rows[0]`` within the whole result.
    offset: int
    #: True when this page exhausts the cursor.
    done: bool


class Cursor:
    """A paged read over one executed query's rows source.

    The source is whatever the session's backend returned from ``run``
    (see the module docstring): the cursor only counts rows, cuts them
    into :class:`Page` objects and enforces the fetch contract. A source
    that knows its row count is materialized; one that does not
    (``num_rows is None``) is *streaming* — it produces rows on demand
    and stops producing when the client stops fetching. Either way the
    rows belong to the epoch observed at execute time: store updates
    after execution do not disturb an open cursor; they only affect the
    *next* execute.

    Parameter misuse raises typed taxonomy errors: a non-positive
    ``page_size`` or negative fetch count is a
    :class:`~repro.errors.ParameterError` (HTTP 400), fetching again
    after the final ``done`` page was served is a
    :class:`~repro.errors.CursorExhaustedError` (HTTP 409).
    """

    def __init__(
        self, session: "Session", cursor_id: int, rows, page_size: int
    ) -> None:
        if page_size < 1:
            raise ParameterError("cursor page_size must be >= 1")
        self.session = session
        self.cursor_id = cursor_id
        self.page_size = page_size
        self.position = 0
        self.closed = False
        self._rows = rows
        self._done_served = False

    @property
    def streaming(self) -> bool:
        """Whether rows are produced lazily as pages are fetched."""
        return self._rows.num_rows is None

    @property
    def columns(self) -> tuple[str, ...]:
        """The projected variable names, in SELECT order."""
        return self._rows.columns

    @property
    def num_rows(self) -> int:
        """Total result rows.

        A streaming cursor does not know its total until drained (not
        counting it is the point); asking early raises
        :class:`~repro.errors.SessionError`. Once the final page was
        served the count of streamed rows is returned.
        """
        total = self._rows.num_rows
        if total is not None:
            return total
        if not self._done_served:
            raise SessionError(
                f"cursor {self.cursor_id} is streaming: its row count "
                "is unknown until it is drained"
            )
        return self.position

    def fetch(self, n: int | None = None) -> Page:
        """Return the next ``n`` rows (default: one page).

        The page that exhausts the result is marked ``done``; fetching
        *again* after it raises
        :class:`~repro.errors.CursorExhaustedError`, and a closed cursor
        raises :class:`~repro.errors.CursorClosedError`.
        """
        if self.closed:
            raise CursorClosedError(
                f"cursor {self.cursor_id} is closed"
            )
        if self._done_served:
            raise CursorExhaustedError(
                f"cursor {self.cursor_id} is exhausted (its final page "
                "was already served)"
            )
        count = self.page_size if n is None else n
        if count < 0:
            raise ParameterError("fetch count must be non-negative")
        start = self.position
        rows, done = self._rows.take(count)
        self.position = start + len(rows)
        if done:
            self._done_served = True
        return Page(
            columns=self.columns,
            rows=tuple(rows),
            offset=start,
            done=done,
        )

    def fetch_all(self) -> list[tuple[str | None, ...]]:
        """Every remaining row, decoded (drains the cursor)."""
        rows: list[tuple[str | None, ...]] = []
        while True:
            page = self.fetch()
            rows.extend(page.rows)
            if page.done:
                return rows

    def pages(self) -> Iterator[Page]:
        """Iterate the remaining rows as fixed-size pages."""
        while True:
            page = self.fetch()
            yield page
            if page.done:
                return

    def __iter__(self) -> Iterator[tuple[str | None, ...]]:
        for page in self.pages():
            yield from page.rows

    def close(self) -> None:
        """Close the rows source and release the session slot
        (idempotent)."""
        if not self.closed:
            self.closed = True
            self._rows.close()
            self.session._release(self.cursor_id)

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"at {self.position}"
        rows = "?" if self.streaming else self._rows.num_rows
        return (
            f"<Cursor {self.cursor_id} rows={rows} "
            f"page={self.page_size} {state}>"
        )


class Session:
    """One client's protocol context over a backend.

    Thread-safe: the HTTP front-end shares one session across all its
    handler threads. ``max_open_cursors`` bounds unfetched results a
    client may pin (:class:`~repro.errors.CapacityError` past it);
    ``timeout_s`` (per request or session-wide) is the deadline handed
    to the backend's ``run`` (:class:`~repro.errors.QueryTimeoutError`).
    """

    def __init__(
        self,
        backend,
        *,
        max_open_cursors: int = 64,
        default_page_size: int = DEFAULT_PAGE_SIZE,
        timeout_s: float | None = None,
    ) -> None:
        if max_open_cursors < 1:
            raise ConfigError("Session max_open_cursors must be >= 1")
        if default_page_size < 1:
            raise ConfigError("Session default_page_size must be >= 1")
        self.backend = backend
        self.max_open_cursors = max_open_cursors
        self.default_page_size = default_page_size
        self.timeout_s = timeout_s
        self.closed = False
        self._cursors: dict[int, Cursor] = {}
        self._reserved = 0  # in-flight executes holding a cursor slot
        self._ids = itertools.count(1)
        self._lock = threading.RLock()

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosedError("session is closed")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        request: QueryRequest | str,
        *,
        parameters: Mapping[str, ParameterValue] | None = None,
        page_size: int | None = None,
        timeout_s: float | None = None,
        name: str = "query",
        stream: bool = False,
    ) -> Cursor:
        """Run one query on the backend and open a cursor over its rows.

        Accepts either a :class:`QueryRequest` or a bare text plus
        keyword options. With ``stream=True`` an in-process backend
        feeds the cursor from the engine's live result iterator (top-k
        short-circuit; see :class:`QueryRequest.stream` for the deadline
        caveat). Failures surface as taxonomy errors: bad
        syntax → :class:`~repro.errors.ParseError` /
        :class:`~repro.errors.TranslationError`; parameter mismatches →
        :class:`~repro.errors.ParameterError`; a well-formed query the
        planner rejects → :class:`~repro.errors.BindingError`.
        """
        if isinstance(request, str):
            request = QueryRequest(
                text=request,
                parameters=dict(parameters or {}),
                page_size=(
                    page_size
                    if page_size is not None
                    else self.default_page_size
                ),
                timeout_s=timeout_s,
                name=name,
                stream=stream,
            )
        self._check_open()
        if request.page_size < 1:
            raise ParameterError("cursor page_size must be >= 1")
        # Reserve the cursor slot *before* executing: at the bound the
        # request fails fast instead of running the full query and then
        # discarding the result (and two racing requests cannot both
        # slip past a len() check).
        with self._lock:
            occupied = len(self._cursors) + self._reserved
            if occupied >= self.max_open_cursors:
                raise CapacityError(
                    f"session has {occupied} open or in-flight cursors "
                    f"(max {self.max_open_cursors}); close some first"
                )
            self._reserved += 1
        try:
            rows = self.backend.run(
                request,
                request.timeout_s
                if request.timeout_s is not None
                else self.timeout_s,
            )
            try:
                with self._lock:
                    self._check_open()
                    cursor_id = next(self._ids)
                    cursor = Cursor(
                        self, cursor_id, rows, request.page_size
                    )
                    self._cursors[cursor_id] = cursor
            except BaseException:
                # Don't leave a rejected request's rows source (a live
                # engine iterator, in-process) enumerating in limbo.
                rows.close()
                raise
        finally:
            with self._lock:
                self._reserved -= 1
        return cursor

    # ------------------------------------------------------------------
    # Cursor bookkeeping
    # ------------------------------------------------------------------
    def cursor(self, cursor_id: int) -> Cursor:
        """Look an open cursor up by id."""
        self._check_open()
        with self._lock:
            cursor = self._cursors.get(cursor_id)
        if cursor is None:
            raise UnknownCursorError(
                f"no open cursor with id {cursor_id}"
            )
        return cursor

    def open_cursors(self) -> int:
        with self._lock:
            return len(self._cursors)

    def _release(self, cursor_id: int) -> None:
        with self._lock:
            self._cursors.pop(cursor_id, None)

    # ------------------------------------------------------------------
    # Introspection and updates
    # ------------------------------------------------------------------
    def explain(
        self,
        text: str,
        parameters: Mapping[str, ParameterValue] | None = None,
    ) -> str:
        """The backend's plan description for a query text.

        A ``$name`` template needs its ``parameters`` supplied, exactly
        like execution.
        """
        self._check_open()
        return self.backend.explain(text, parameters or {})

    def stats(self) -> dict:
        """The ``/stats`` body: the backend's counters plus this
        session's open-cursor count."""
        self._check_open()
        payload = dict(self.backend.stats_payload())
        payload["session"] = {"open_cursors": self.open_cursors()}
        return payload

    def update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply one add/remove batch through the backend."""
        self._check_open()
        return self.backend.update(request)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the session and every cursor it still holds."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            cursors = list(self._cursors.values())
            self._cursors.clear()
        for cursor in cursors:
            cursor.closed = True
            cursor._rows.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"<Session {state} backend={self.backend!r} "
            f"cursors={self.open_cursors()}/{self.max_open_cursors}>"
        )


__all__ = [
    "DEFAULT_PAGE_SIZE",
    "Cursor",
    "Page",
    "QueryRequest",
    "Session",
    "UpdateRequest",
    "UpdateResponse",
]
