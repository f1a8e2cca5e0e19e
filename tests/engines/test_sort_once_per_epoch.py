"""Clock-free guards that a stored table is sorted once per epoch, not
once per engine.

A trie over a store table in (object, subject) order needs the table's
rows sorted that way; ``Relation.sorted_columns`` keeps that sort with
the table. Over one test-local LUBM(1) store (the ``sort_calls``
fixture's spies would see another test's sorts on a shared store), a
second fresh engine running the twelve paper queries must sort no store
column, and after a commit touches ``type`` the engine that catches up
(``Catalog.apply_delta`` splices its tries) sorts no store column while
the next fresh engine sorts ``type`` once and nothing else of the store.
"""

import numpy as np
import pytest

from repro import EmptyHeadedEngine, generate_dataset, lubm_queries
from repro.rdf.vocabulary import RDF_TYPE, UB
from repro.storage.vertical import OBJECT, SUBJECT
from repro.trie.trie import Trie


@pytest.fixture
def lubm():
    dataset = generate_dataset(universities=1, seed=0)
    return dataset.store, list(lubm_queries(dataset.config).values())


def _run_fresh_engine(store, queries) -> EmptyHeadedEngine:
    engine = EmptyHeadedEngine(store)
    for sparql in queries:
        engine.execute_sparql(sparql)
    return engine


def _resorted_tables(engine, store) -> dict[str, int]:
    """Row counts of the store tables ``engine`` holds a trie over in
    an order other than the stored (subject, object) one."""
    return {
        name: store.tables[name].num_rows
        for name, order, _ in engine.catalog._trie_cache
        if order != store.tables[name].attributes
    }


def _store_sorts(sort_calls, resorted: dict[str, int]) -> list[int]:
    """Sizes of the recorded sorts at least as large as the smallest
    resorted table: a sort of a store column sorts all its rows, and
    the joins' own sorts are smaller."""
    smallest = min(resorted.values())
    return sorted(size for _, size in sort_calls if size >= smallest)


def test_second_engine_sorts_no_store_column(lubm, sort_calls):
    store, queries = lubm
    first = _run_fresh_engine(store, queries)
    resorted = _resorted_tables(first, store)
    assert {"type", "takesCourse"} <= set(resorted)
    assert resorted["type"] in _store_sorts(sort_calls, resorted)
    sort_calls.clear()
    second = _run_fresh_engine(store, queries)
    assert _resorted_tables(second, store) == resorted
    assert _store_sorts(sort_calls, resorted) == []


def test_commit_resorts_only_the_table_it_touches(lubm, sort_calls):
    store, queries = lubm
    first = _run_fresh_engine(store, queries)
    resorted = _resorted_tables(first, store)
    untouched = store.tables["takesCourse"]
    added = store.add_triples(
        [(f"<http://ex/student{i}>", RDF_TYPE, UB.GraduateStudent) for i in range(5)]
    )
    assert added == 5
    assert store.tables["takesCourse"] is untouched
    table = store.tables["type"]
    sort_calls.clear()
    for sparql in queries:
        first.execute_sparql(sparql)
    assert first.catalog.get("type").to_set() == table.to_set()
    assert _store_sorts(sort_calls, resorted) == []
    engine = _run_fresh_engine(store, queries)
    assert _store_sorts(sort_calls, resorted) == [table.num_rows]
    trie = engine.catalog.trie("type", (OBJECT, SUBJECT))
    built = Trie.build(
        [table.column(OBJECT), table.column(SUBJECT)], (OBJECT, SUBJECT)
    )
    assert trie.num_tuples == built.num_tuples == table.num_rows
    for ours, reference in zip(
        trie._values + trie._offsets, built._values + built._offsets
    ):
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference)
