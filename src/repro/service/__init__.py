"""Serving layer: prepared statements, sessions, and wire formats.

The subsystem exists so repeated query traffic — the dominant
production pattern the RDF-store literature optimizes for — skips the
SPARQL front-end and planner entirely after the first request, runs
concurrently over read-only catalogs, and invalidates itself when the
underlying store is updated.

Layers, bottom up:

* :mod:`repro.service.prepared` — :class:`PreparedStatement`, the unit
  of repeated work (parse/translate once, late-bind values per request);
* :mod:`repro.service.protocol` — the one :class:`Session` and the
  one :class:`Cursor`: the transport-ready protocol (open → execute →
  fetch in pages → close) over a four-call backend;
* :mod:`repro.service.query_service` — :class:`QueryService`, the
  statement cache + concurrency + warming tier, and the in-process
  backend (:mod:`repro.service.cluster` holds the worker-pool one);
* :mod:`repro.service.formats` — streaming result serializers (SPARQL
  JSON, CSV/TSV, length-prefixed binary rows);
* :mod:`repro.service.http` — the one stdlib SPARQL-protocol HTTP
  endpoint (:class:`SparqlHttpServer`), serving either backend.
"""

from repro.service.formats import SERIALIZERS, serializer_for
from repro.service.prepared import PreparedStatement, StatementStats
from repro.service.protocol import (
    Cursor,
    Page,
    QueryRequest,
    Session,
    UpdateRequest,
    UpdateResponse,
)
from repro.service.query_service import QueryService, ServiceStats

__all__ = [
    "Cursor",
    "Page",
    "PreparedStatement",
    "QueryRequest",
    "QueryService",
    "SERIALIZERS",
    "ServiceStats",
    "Session",
    "StatementStats",
    "UpdateRequest",
    "UpdateResponse",
    "serializer_for",
]
