"""Streaming execution: chunked enumeration, dedup, short-circuit.

The contract under test (see ``GHDExecutor.execute_iter``): streamed
chunks concatenate to exactly the materialized result's rows before the
final offset/limit slice, in canonical sorted-by-projection order, with
duplicates already removed — and a consumer that stops pulling stops
the enumeration (the top-k short-circuit).
"""

import numpy as np
import pytest

from repro.core.executor import _drop_adjacent_duplicates
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.storage.relation import Relation
from repro.storage.vertical import vertically_partition

EX = "http://ex/"


def _engine(triples):
    return EmptyHeadedEngine(vertically_partition(triples))


def _drain(engine, text):
    query = engine.prepare_sparql(text)
    pages = list(engine.execute_iter(query))
    assert pages, "execute_iter must always yield at least one page"
    return [row for page in pages for row in engine.decode(page)]


def _star_triples(n):
    triples = []
    for i in range(n):
        triples.append((f"<{EX}s{i}>", f"<{EX}p>", f"<{EX}o{i % 7}>"))
        triples.append((f"<{EX}s{i}>", f"<{EX}q>", f"<{EX}v{i % 3}>"))
    return triples


# ---------------------------------------------------------------------------
# Streamed rows == materialized rows
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "text",
    [
        f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }} LIMIT 5",
        f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }} "
        "LIMIT 4 OFFSET 3",
        f"SELECT ?o ?s WHERE {{ ?s <{EX}p> ?o }} LIMIT 6",  # reordered proj
        f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }} OFFSET 2",  # no limit
        f"SELECT ?v WHERE {{ ?s <{EX}p> <{EX}o1> . ?s <{EX}q> ?v }} LIMIT 2",
        f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }} ORDER BY ?o LIMIT 3",
        f"SELECT ?s WHERE {{ ?s <{EX}p> ?o . "
        f"FILTER(?o != <{EX}o1>) }} LIMIT 3",
        f"SELECT ?s WHERE {{ {{ ?s <{EX}p> <{EX}o1> }} UNION "
        f"{{ ?s <{EX}q> <{EX}v0> }} }} LIMIT 6 OFFSET 1",
        f"SELECT ?s ?v WHERE {{ ?s <{EX}p> ?o "
        f"OPTIONAL {{ ?s <{EX}q> ?v }} }} LIMIT 4",
    ],
)
def test_streamed_rows_match_materialized(text):
    engine = _engine(_star_triples(60))
    assert _drain(engine, text) == engine.decode(engine.execute_sparql(text))


def test_streamed_chunks_are_the_canonical_prefix():
    # Tiny chunks force many chunk boundaries; order must still be the
    # materialized (sorted, distinct) order, row for row.
    engine = _engine(_star_triples(200))
    text = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }}"
    bound = engine.bind(engine.prepare_sparql(text))
    stream = engine.executor.execute_iter(
        engine.plan_for(bound), chunk_rows=7
    )
    assert stream is not None
    rows = []
    for chunk in stream:
        rows.extend(chunk.iter_rows())
    materialized = engine.execute_sparql(text)
    assert rows == list(materialized.iter_rows())


# ---------------------------------------------------------------------------
# DISTINCT under streaming (duplicate-heavy projections and branches)
# ---------------------------------------------------------------------------
def test_short_circuit_counts_distinct_rows_not_enumerated_rows():
    # 120 matching rows project onto only 7 distinct ?o values: LIMIT
    # must be satisfied by *distinct* rows — 5 means 5 distinct, and
    # asking for more than exist yields them all, never padding.
    engine = _engine(_star_triples(120))
    base = f"SELECT ?o WHERE {{ ?s <{EX}p> ?o }}"
    assert len(_drain(engine, base + " LIMIT 5")) == 5
    assert len(set(_drain(engine, base + " LIMIT 5"))) == 5
    assert len(_drain(engine, base + " LIMIT 50")) == 7
    assert _drain(engine, base + " LIMIT 50") == engine.decode(
        engine.execute_sparql(base + " LIMIT 50")
    )


def test_union_merge_counts_distinct_rows_across_branches():
    # Both branches stream the same duplicate-heavy rows; the merge must
    # dedup across branches before counting toward the cap.
    engine = _engine(_star_triples(90))
    text = (
        f"SELECT ?o WHERE {{ {{ ?s <{EX}p> ?o }} UNION "
        f"{{ ?s <{EX}p> ?o }} }} LIMIT 5 OFFSET 1"
    )
    streamed = _drain(engine, text)
    assert streamed == engine.decode(engine.execute_sparql(text))
    assert len(streamed) == len(set(streamed)) == 5


def test_enumerated_tuples_bounded_by_cap_not_store_size():
    # The streaming claim as an exact counter: the same LIMIT 10 query
    # over an 8x bigger store must not enumerate 8x the tuples, while
    # the materializing path (the whole join, then the slice) does.
    counts, materialized = {}, {}
    for scale in (1, 8):
        engine = _engine(_star_triples(120 * scale))
        text = (
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }} "
            "LIMIT 10"
        )
        before = engine.executor_stats.enumerated_tuples
        rows = _drain(engine, text)
        counts[scale] = engine.executor_stats.enumerated_tuples - before
        assert len(rows) == 10
        before = engine.executor_stats.enumerated_tuples
        engine.execute_sparql(text)
        materialized[scale] = engine.executor_stats.enumerated_tuples - before
    assert counts[8] <= counts[1] * 2, counts
    assert materialized[8] >= materialized[1] * 4, materialized


def test_materialized_path_counts_every_join_level():
    engine = _engine(_star_triples(50))
    text = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }}"
    before = engine.executor_stats.enumerated_tuples
    engine.execute_sparql(text)
    assert engine.executor_stats.enumerated_tuples > before


# ---------------------------------------------------------------------------
# Fallbacks and epoch pinning
# ---------------------------------------------------------------------------
def test_modifier_queries_fall_back_to_materialization():
    # ORDER BY / FILTER genuinely need the whole result; the iterator
    # then serves the materialized relation as one page.
    engine = _engine(_star_triples(30))
    text = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }} ORDER BY ?s LIMIT 4"
    query = engine.prepare_sparql(text)
    pages = list(engine.execute_iter(query))
    assert len(pages) == 1
    assert engine.decode(pages[0]) == engine.decode(
        engine.execute_sparql(text)
    )


def test_missing_table_streams_one_empty_page():
    engine = _engine(_star_triples(10))
    text = f"SELECT ?s WHERE {{ ?s <{EX}nosuch> ?o }} LIMIT 3"
    query = engine.prepare_sparql(text)
    pages = list(engine.execute_iter(query))
    assert len(pages) == 1 and pages[0].num_rows == 0
    assert pages[0].attributes == ("s",)


def test_open_stream_pins_its_epoch_across_updates():
    engine = _engine(_star_triples(40))
    store = engine.store
    text = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
    query = engine.prepare_sparql(text)
    before = engine.decode(engine.execute_sparql(text))
    stream = engine.execute_iter(query)
    first = next(stream)
    store.add_triples([(f"<{EX}zz>", f"<{EX}p>", f"<{EX}o0>")])
    store.remove_triples([(f"<{EX}s1>", f"<{EX}p>", f"<{EX}o{1 % 7}>")])
    rows = engine.decode(first) + [
        row for page in stream for row in engine.decode(page)
    ]
    assert rows == before
    # A fresh execution sees the new epoch.
    assert len(engine.decode(engine.execute_sparql(text))) == len(before)


def test_abandoned_stream_stops_enumerating():
    engine = _engine(_star_triples(500))
    text = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }}"
    bound = engine.bind(engine.prepare_sparql(text))
    stream = engine.executor.execute_iter(
        engine.plan_for(bound), chunk_rows=16
    )
    before = engine.executor_stats.enumerated_tuples
    next(stream)
    stream.close()
    spent = engine.executor_stats.enumerated_tuples - before
    # One 16-row chunk was completed (plus its deeper bindings), far
    # from the 500-row frontier a full enumeration carries.
    assert spent < 100, spent


# ---------------------------------------------------------------------------
# The sorted-stream dedup helper
# ---------------------------------------------------------------------------
def _rel(rows):
    return Relation.from_rows("r", ["a", "b"], rows)


def test_drop_adjacent_duplicates_within_and_across_chunks():
    chunk, last = _drop_adjacent_duplicates(
        _rel([(1, 1), (1, 1), (1, 2), (2, 1), (2, 1)]), None
    )
    assert list(chunk.iter_rows()) == [(1, 1), (1, 2), (2, 1)]
    assert last == (2, 1)
    chunk, last = _drop_adjacent_duplicates(_rel([(2, 1), (3, 0)]), last)
    assert list(chunk.iter_rows()) == [(3, 0)]
    assert last == (3, 0)
    chunk, last = _drop_adjacent_duplicates(_rel([]), last)
    assert chunk.num_rows == 0 and last == (3, 0)
