"""Wire-format serializers: structure, streaming, round-trips."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.errors import ParseError, UnsupportedFormatError
from repro.service import QueryService
from repro.service.formats import (
    SERIALIZERS,
    json_term,
    lexical_from_json,
    read_binary,
    serializer_for,
)
from repro.storage.vertical import vertically_partition

EX = "http://ex/"

TRIPLES = [
    (f"<{EX}s1>", f"<{EX}knows>", f"<{EX}s2>"),
    (f"<{EX}s2>", f"<{EX}knows>", f"<{EX}s3>"),
    (f"<{EX}s3>", f"<{EX}knows>", f"<{EX}s1>"),  # s3 has no name: NULL ?n
    (f"<{EX}s1>", f"<{EX}name>", '"Alice"@en'),
    (f"<{EX}s2>", f"<{EX}name>", '"B,ob\nX"'),
    (f"<{EX}s3>", f"<{EX}age>", '"33"^^<http://www.w3.org/2001/XMLSchema#integer>'),
]

#: Binds ?n only for s1/s2 — an unbound cell exercises NULL handling.
QUERY = (
    f"SELECT ?a ?n WHERE {{ ?a <{EX}knows> ?b . "
    f"OPTIONAL {{ ?a <{EX}name> ?n }} }}"
)


def _cursor(page_size=2, query=QUERY):
    service = QueryService(EmptyHeadedEngine(vertically_partition(TRIPLES)))
    return service.session().execute(query, page_size=page_size)


def _decoded(query=QUERY):
    service = QueryService(EmptyHeadedEngine(vertically_partition(TRIPLES)))
    return service.engine.decode(service.execute(query))


# ---------------------------------------------------------------------------
# Term typing
# ---------------------------------------------------------------------------
def test_json_term_typing():
    assert json_term(f"<{EX}a>") == {"type": "uri", "value": f"{EX}a"}
    assert json_term('"x"') == {"type": "literal", "value": "x"}
    assert json_term('"x"@en') == {
        "type": "literal",
        "value": "x",
        "xml:lang": "en",
    }
    assert json_term('"5"^^<http://int>') == {
        "type": "literal",
        "value": "5",
        "datatype": "http://int",
    }


@pytest.mark.parametrize(
    "lexical",
    [f"<{EX}a>", '"x"', '"x"@en-GB', '"5"^^<http://int>'],
)
def test_json_term_roundtrip(lexical):
    assert lexical_from_json(json_term(lexical)) == lexical


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------
def test_sparql_json_structure_and_rows():
    payload = json.loads(SERIALIZERS["json"].serialize(_cursor()))
    assert payload["head"]["vars"] == ["a", "n"]
    bindings = payload["results"]["bindings"]
    rows = [
        tuple(
            lexical_from_json(b[name]) if name in b else None
            for name in ("a", "n")
        )
        for b in bindings
    ]
    assert rows == _decoded()
    # Unbound variables are omitted from their binding object, per spec.
    assert any("n" not in b for b in bindings)


def test_json_streams_valid_pages():
    chunks = list(SERIALIZERS["json"].stream(_cursor(page_size=1)))
    assert len(chunks) > 3  # head + one chunk per page + tail
    json.loads(b"".join(chunks))  # the concatenation is valid JSON


def test_json_empty_result():
    cursor = _cursor(
        query=f"SELECT ?a WHERE {{ ?a <{EX}knows> <{EX}nobody> }}"
    )
    payload = json.loads(SERIALIZERS["json"].serialize(cursor))
    assert payload["results"]["bindings"] == []


# ---------------------------------------------------------------------------
# CSV / TSV
# ---------------------------------------------------------------------------
def test_csv_values_and_quoting():
    body = SERIALIZERS["csv"].serialize(_cursor()).decode()
    lines = body.split("\r\n")
    assert lines[0] == "a,n"
    # IRIs bare, literal content raw, embedded comma/newline quoted.
    assert f"{EX}s1,Alice" in body
    assert '"B,ob\nX"' in body


def test_tsv_is_lossless_term_syntax():
    body = SERIALIZERS["tsv"].serialize(_cursor()).decode()
    lines = body.rstrip("\n").split("\n")
    assert lines[0] == "?a\t?n"
    # First data row: full lossless term syntax, tags intact.
    a, n = lines[1].split("\t", 1)
    assert (a, n) == _decoded()[0]
    # Unbound cells serialize as empty fields.
    assert any(line.endswith("\t") for line in lines[1:])


# ---------------------------------------------------------------------------
# Binary
# ---------------------------------------------------------------------------
def test_tsv_escapes_framing_characters():
    triples = [
        (f"<{EX}s1>", f"<{EX}v>", '"a\tb"'),
        (f"<{EX}s2>", f"<{EX}v>", '"c\nd"'),
    ]
    service = QueryService(EmptyHeadedEngine(vertically_partition(triples)))
    cursor = service.session().execute(
        f"SELECT ?s ?o WHERE {{ ?s <{EX}v> ?o }}"
    )
    body = SERIALIZERS["tsv"].serialize(cursor).decode()
    lines = body.rstrip("\n").split("\n")
    # One header + one line per row: embedded tab/newline are escaped,
    # and each data line still has exactly one real cell separator.
    assert len(lines) == 3
    assert all(line.count("\t") == 1 for line in lines)
    assert '"a\\tb"' in body and '"c\\nd"' in body


def test_binary_roundtrip_including_nulls():
    columns, rows = read_binary(
        SERIALIZERS["binary"].serialize(_cursor(page_size=1))
    )
    assert columns == ("a", "n")
    assert rows == _decoded()
    assert any(value is None for row in rows for value in row)


def test_binary_rejects_other_payloads():
    # A taxonomy error (registered code), not a bare ValueError — the
    # serving layer maps unregistered exceptions to internal_error/500.
    with pytest.raises(ParseError):
        read_binary(b"nope")


@pytest.mark.parametrize(
    "payload",
    [
        b"SPB1\x01",  # header cut inside the column count
        b"SPB1\x01\x00\x01\x00\xff",  # column name is not UTF-8
        b"SPB1\x01\x00\x01\x00a\x05\x00\x00\x00ab",  # 5-byte cell, 2 present
        b"SPB1\x00\x00x",  # bytes after a zero-column header
    ],
    ids=["truncated-header", "bad-utf8-column", "torn-cell", "trailing"],
)
def test_binary_malformed_payload_is_parse_error(payload):
    with pytest.raises(ParseError):
        read_binary(payload)


_VALID_BINARY = SERIALIZERS["binary"].serialize(_cursor(page_size=1))


@given(
    st.integers(0, len(_VALID_BINARY) - 1),
    st.integers(1, 255),
    st.booleans(),
)
def test_binary_damaged_payload_is_parse_error_or_well_formed(
    position, mask, truncate
):
    # read_binary decodes worker bytes in the front door: damage must
    # surface as ParseError or a well-formed table, never a torn row or
    # another exception type.
    if truncate:
        payload = _VALID_BINARY[:position]
    else:
        damaged = bytearray(_VALID_BINARY)
        damaged[position] ^= mask
        payload = bytes(damaged)
    try:
        columns, rows = read_binary(payload)
    except ParseError:
        return
    assert all(isinstance(name, str) for name in columns)
    for row in rows:
        assert len(row) == len(columns)
        assert all(v is None or isinstance(v, str) for v in row)


# ---------------------------------------------------------------------------
# Negotiation
# ---------------------------------------------------------------------------
def test_serializer_for_explicit_name_wins():
    assert serializer_for("csv", "application/json").name == "csv"
    assert serializer_for("JSON").name == "json"


def test_serializer_for_accept_header():
    assert serializer_for(None, "text/csv").name == "csv"
    assert (
        serializer_for(None, "text/html, application/json;q=0.9").name
        == "json"
    )
    assert serializer_for(None, "text/html").name == "json"  # default
    assert serializer_for(None, None).name == "json"


def test_unknown_format_raises():
    with pytest.raises(UnsupportedFormatError) as excinfo:
        serializer_for("xml")
    assert excinfo.value.code == "unsupported_format"
    assert excinfo.value.http_status == 406
