"""Clock-free guards on engine catch-up: patching a k-row batch into
warm structures works in proportion to the batch.

The store holds one 100 000-row table and the engine has cached tries
in both orders over it and over the ``__triples__`` view. A batch of
``k`` added and removed rows is then committed and the engine catches
up, under spies on ``np.isin``, ``Trie.to_columns`` and the
``sort_calls`` fixture's sorts. Catch-up must hash nothing, flatten no
trie and sort nothing larger than the batch; the patched relation must
stay sorted-distinct, so a trie built over it sorts nothing.
"""

import numpy as np
import pytest

from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.nputil import pack_pairs
from repro.storage.vertical import (
    OBJECT,
    PREDICATE,
    SUBJECT,
    TRIPLES_RELATION,
    VerticallyPartitionedStore,
)
from repro.trie.trie import Trie

ROWS = 100_000
IRIS = {"p": "<http://ex/p>", "q": "<http://ex/q>"}


def _keys(subjects, objects):
    return pack_pairs(
        np.asarray(subjects, dtype=np.uint32),
        np.asarray(objects, dtype=np.uint32),
    )


@pytest.fixture
def warm():
    store = VerticallyPartitionedStore()
    for iri in IRIS.values():
        store.dictionary.encode(iri)
    rows = np.arange(ROWS)
    store.apply_pairs(
        {
            "p": _keys(rows // 4, (rows * 7) % 1000),
            "q": _keys(rows[:100], rows[:100]),
        },
        {},
        IRIS,
    )
    engine = EmptyHeadedEngine(store)
    catalog = engine.catalog
    for order in ((SUBJECT, OBJECT), (OBJECT, SUBJECT)):
        catalog.trie("p", order)
    engine.execute_sparql("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    catalog.trie(TRIPLES_RELATION, (PREDICATE, SUBJECT, OBJECT))
    catalog.trie(TRIPLES_RELATION, (OBJECT, PREDICATE, SUBJECT))
    return store, engine


def _commit(store):
    """Commit 12 added and 12 removed rows (new subjects at both ends
    of the table, removed rows in the middle); returns the batch size."""
    added = _keys([0, 5, 9, 24_000, 24_000, 30_000] * 2, range(2000, 2012))
    removed_rows = np.arange(50_000, 50_012)
    removed = _keys(removed_rows // 4, (removed_rows * 7) % 1000)
    assert store.apply_pairs({"p": added}, {"p": removed}, {}) == (12, 12)
    return 24


def test_catch_up_hashes_nothing_and_sorts_only_the_batch(
    warm, monkeypatch, sort_calls
):
    store, engine = warm
    batch = _commit(store)
    isin_calls: list[int] = []
    flattened: list[Trie] = []
    original_isin = np.isin

    def isin_spy(element, *args, **kwargs):
        isin_calls.append(int(np.asarray(element).size))
        return original_isin(element, *args, **kwargs)

    original_to_columns = getattr(Trie, "to_columns", None)

    def to_columns_spy(trie):
        flattened.append(trie)
        return original_to_columns(trie)

    monkeypatch.setattr(np, "isin", isin_spy)
    monkeypatch.setattr(Trie, "to_columns", to_columns_spy, raising=False)
    sort_calls.clear()
    engine.check_data_version()
    assert engine._data_version == store.data_version
    largest_sort = max(size for _, size in sort_calls)
    assert (len(isin_calls), len(flattened)) == (0, 0)
    assert largest_sort <= batch


def test_patched_relation_builds_a_trie_without_sorting(warm, sort_calls):
    store, engine = warm
    _commit(store)
    engine.check_data_version()
    patched = engine.catalog.get("p")
    assert patched.to_set() == store.tables["p"].to_set()
    sort_calls.clear()
    trie = Trie.from_relation(patched, (SUBJECT, OBJECT))
    assert sort_calls == []
    assert trie.num_tuples == patched.num_rows == ROWS
