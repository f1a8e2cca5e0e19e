"""Result wire formats: streaming serializers over protocol cursors.

Each serializer turns a :class:`~repro.service.protocol.Cursor` into an
iterator of ``bytes`` chunks — one chunk per fetched page — so a large
result streams to the client in fixed-size pages without the server
ever materializing the whole decoded row list (rows are decoded
page-by-page via :meth:`~repro.engines.base.Engine.decode_rows`).

Formats
-------
``json``
    SPARQL 1.1 Query Results JSON: ``{"head": {"vars": [...]},
    "results": {"bindings": [...]}}`` with per-term type objects
    (``uri`` / ``literal`` with optional ``xml:lang`` / ``datatype``).
    Unbound variables are omitted from their binding object, per spec.
``csv``
    SPARQL 1.1 CSV: header row of variable names, then raw values —
    IRIs bare, literal *content* without quotes/tags, empty for
    unbound. Lossy by design (the spec's "for spreadsheets" format).
``tsv``
    SPARQL 1.1 TSV: header row of ``?var`` names, then full RDF term
    syntax (``<iri>``, ``"literal"@tag``), empty for unbound. Lossless.
``binary``
    A length-prefixed row format for programmatic clients (dense
    results without JSON overhead): magic ``SPB1``, ``uint16`` column
    count, each column name as ``uint16`` length + UTF-8 bytes, then
    per cell a ``uint32`` byte length (``0xFFFFFFFF`` marks unbound)
    followed by the term's lexical form in UTF-8. Little-endian
    throughout; :func:`read_binary` decodes it. Lossless.

Term *content* is emitted exactly as stored (escape sequences are not
interpreted), so the lossless formats round-trip byte-identically to
the engine's decoded lexical forms — the property the benchmark's
row-for-row cross-check and the differential tests rely on. (TSV
additionally backslash-escapes tab/newline/backslash characters so a
literal containing them cannot break row framing, per the TSV spec.)
"""

from __future__ import annotations

import json
import re
import struct
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.errors import ParseError, UnsupportedFormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.protocol import Cursor

_TERM_RE = re.compile(
    r'^"(?P<content>(?:[^"\\]|\\.)*)"'
    r"(?:@(?P<lang>[A-Za-z0-9\-]+)|\^\^<(?P<datatype>[^<>]*)>)?$"
)

#: Cell-length sentinel marking an unbound variable in the binary format.
BINARY_NULL = 0xFFFFFFFF

#: Magic prefix of the binary row format.
BINARY_MAGIC = b"SPB1"


def json_term(lexical: str) -> dict:
    """The SPARQL-results-JSON object for one bound lexical term."""
    if lexical.startswith("<") and lexical.endswith(">"):
        return {"type": "uri", "value": lexical[1:-1]}
    match = _TERM_RE.match(lexical)
    if match is None:
        # A bare term (not produced by the loader, but be total).
        return {"type": "literal", "value": lexical}
    term: dict = {"type": "literal", "value": match.group("content")}
    if match.group("lang"):
        term["xml:lang"] = match.group("lang")
    elif match.group("datatype"):
        term["datatype"] = match.group("datatype")
    return term


def lexical_from_json(term: dict) -> str:
    """Invert :func:`json_term` (clients and cross-checks)."""
    if term["type"] == "uri":
        return f"<{term['value']}>"
    lexical = f'"{term["value"]}"'
    if "xml:lang" in term:
        return f"{lexical}@{term['xml:lang']}"
    if "datatype" in term:
        return f"{lexical}^^<{term['datatype']}>"
    return lexical


class Serializer:
    """One result wire format (subclasses stream pages as bytes)."""

    name: str = ""
    content_type: str = "application/octet-stream"

    def stream(self, cursor: "Cursor") -> Iterator[bytes]:
        """Byte chunks of the serialized result (one per page or
        head/tail framing piece), draining ``cursor``."""
        # Abstract stub: the registry only hands out concrete
        # serializers, so this never reaches a serving path.
        # repro: allow[error-taxonomy]
        raise NotImplementedError

    def serialize(self, cursor: "Cursor") -> bytes:
        """The whole serialized result (tests and small responses)."""
        return b"".join(self.stream(cursor))


class SparqlJsonSerializer(Serializer):
    """SPARQL 1.1 Query Results JSON, streamed binding-array pages."""

    name = "json"
    content_type = "application/sparql-results+json"

    def stream(self, cursor: "Cursor") -> Iterator[bytes]:
        head = {"vars": list(cursor.columns)}
        yield (
            '{"head": ' + json.dumps(head) + ', "results": {"bindings": ['
        ).encode("utf-8")
        first = True
        for page in cursor.pages():
            chunks: list[str] = []
            for row in page.rows:
                binding = {
                    name: json_term(value)
                    for name, value in zip(page.columns, row)
                    if value is not None
                }
                chunks.append(
                    ("" if first else ",") + json.dumps(binding)
                )
                first = False
            if chunks:
                yield "".join(chunks).encode("utf-8")
        yield b"]}}"


def _csv_value(lexical: str | None) -> str:
    if lexical is None:
        return ""
    if lexical.startswith("<") and lexical.endswith(">"):
        return lexical[1:-1]
    match = _TERM_RE.match(lexical)
    return match.group("content") if match else lexical


def _csv_quote(value: str) -> str:
    if any(c in value for c in (",", '"', "\n", "\r")):
        return '"' + value.replace('"', '""') + '"'
    return value


class CsvSerializer(Serializer):
    """SPARQL 1.1 CSV: raw values, lossy, spreadsheet-friendly."""

    name = "csv"
    content_type = "text/csv; charset=utf-8"

    def stream(self, cursor: "Cursor") -> Iterator[bytes]:
        yield (",".join(cursor.columns) + "\r\n").encode("utf-8")
        for page in cursor.pages():
            if not page.rows:
                continue
            yield "".join(
                ",".join(_csv_quote(_csv_value(value)) for value in row)
                + "\r\n"
                for row in page.rows
            ).encode("utf-8")


def _tsv_value(value: str | None) -> str:
    """One TSV cell: full term syntax with framing characters escaped.

    SPARQL 1.1 TSV requires ``\\t``/``\\n``/``\\r`` (and the backslash
    itself) escaped inside terms so a literal containing them cannot
    break row/cell framing.
    """
    if value is None:
        return ""
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


class TsvSerializer(Serializer):
    """SPARQL 1.1 TSV: full RDF term syntax, lossless."""

    name = "tsv"
    content_type = "text/tab-separated-values; charset=utf-8"

    def stream(self, cursor: "Cursor") -> Iterator[bytes]:
        yield (
            "\t".join(f"?{name}" for name in cursor.columns) + "\n"
        ).encode("utf-8")
        for page in cursor.pages():
            if not page.rows:
                continue
            yield "".join(
                "\t".join(_tsv_value(value) for value in row) + "\n"
                for row in page.rows
            ).encode("utf-8")


class BinarySerializer(Serializer):
    """Length-prefixed binary rows (``SPB1``), lossless and dense."""

    name = "binary"
    content_type = "application/x-sparql-binary-rows"

    def stream(self, cursor: "Cursor") -> Iterator[bytes]:
        header = [BINARY_MAGIC, struct.pack("<H", len(cursor.columns))]
        for name in cursor.columns:
            encoded = name.encode("utf-8")
            header.append(struct.pack("<H", len(encoded)))
            header.append(encoded)
        yield b"".join(header)
        for page in cursor.pages():
            if not page.rows:
                continue
            chunk: list[bytes] = []
            for row in page.rows:
                for value in row:
                    if value is None:
                        chunk.append(struct.pack("<I", BINARY_NULL))
                        continue
                    encoded = value.encode("utf-8")
                    chunk.append(struct.pack("<I", len(encoded)))
                    chunk.append(encoded)
            yield b"".join(chunk)


def read_binary(
    data: bytes,
) -> tuple[tuple[str, ...], list[tuple[str | None, ...]]]:
    """Decode a :class:`BinarySerializer` payload to columns + rows.

    The payload crosses a process boundary (worker → front door), so
    every malformed one — truncated, non-UTF-8, torn mid-cell, trailing
    bytes — raises :class:`~repro.errors.ParseError`; a short final
    cell is caught by the end-offset check, not per cell.
    """
    if data[:4] != BINARY_MAGIC:
        raise ParseError("not an SPB1 binary result payload")
    try:
        offset = 4
        (ncols,) = struct.unpack_from("<H", data, offset)
        offset += 2
        columns: list[str] = []
        for _ in range(ncols):
            (length,) = struct.unpack_from("<H", data, offset)
            offset += 2
            columns.append(data[offset : offset + length].decode("utf-8"))
            offset += length
        rows: list[tuple[str | None, ...]] = []
        # Zero-column rows occupy no bytes: nothing may follow the header.
        total = len(data) if ncols else offset
        while offset < total:
            row: list[str | None] = []
            for _ in range(ncols):
                (length,) = struct.unpack_from("<I", data, offset)
                offset += 4
                if length == BINARY_NULL:
                    row.append(None)
                    continue
                row.append(data[offset : offset + length].decode("utf-8"))
                offset += length
            rows.append(tuple(row))
    except (struct.error, UnicodeDecodeError) as error:
        raise ParseError(f"malformed SPB1 payload: {error}") from error
    if offset != len(data):
        raise ParseError(
            f"malformed SPB1 payload: decoding ended at byte {offset} "
            f"of {len(data)}"
        )
    return tuple(columns), rows


#: The format registry, keyed by the ``format=`` request parameter.
SERIALIZERS: dict[str, Serializer] = {
    serializer.name: serializer
    for serializer in (
        SparqlJsonSerializer(),
        CsvSerializer(),
        TsvSerializer(),
        BinarySerializer(),
    )
}

#: Content-type → format name (HTTP ``Accept`` negotiation).
_ACCEPT_FORMATS = {
    "application/sparql-results+json": "json",
    "application/json": "json",
    "text/csv": "csv",
    "text/tab-separated-values": "tsv",
    "application/x-sparql-binary-rows": "binary",
}


def serializer_for(
    format_name: str | None = None, accept: str | None = None
) -> Serializer:
    """Resolve a serializer from an explicit name or an Accept header.

    An explicit ``format=`` wins; otherwise the first recognizable
    content type in ``accept`` decides; the default is SPARQL JSON.
    Unknown explicit names raise
    :class:`~repro.errors.UnsupportedFormatError`.
    """
    if format_name:
        serializer = SERIALIZERS.get(format_name.lower())
        if serializer is None:
            raise UnsupportedFormatError(
                format_name, list(SERIALIZERS)
            )
        return serializer
    if accept:
        for part in accept.split(","):
            media = part.split(";")[0].strip().lower()
            name = _ACCEPT_FORMATS.get(media)
            if name is not None:
                return SERIALIZERS[name]
    return SERIALIZERS["json"]


__all__ = [
    "BINARY_MAGIC",
    "BINARY_NULL",
    "BinarySerializer",
    "CsvSerializer",
    "SERIALIZERS",
    "Serializer",
    "SparqlJsonSerializer",
    "TsvSerializer",
    "json_term",
    "lexical_from_json",
    "read_binary",
    "serializer_for",
]
