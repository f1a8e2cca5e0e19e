"""VerticallyPartitionedStore.add_triples / remove_triples semantics."""

from repro.rdf.vocabulary import RDF_TYPE
from repro.storage.vertical import (
    TRIPLES_RELATION,
    vertically_partition,
)

EX = "http://ex/"

BASE = [
    (f"<{EX}a>", f"<{EX}knows>", f"<{EX}b>"),
    (f"<{EX}b>", f"<{EX}knows>", f"<{EX}c>"),
    (f"<{EX}a>", RDF_TYPE, f"<{EX}T>"),
]


def _store():
    return vertically_partition(BASE)


def test_add_bumps_version_and_extends_table():
    store = _store()
    assert store.data_version == 0
    added = store.add_triples([(f"<{EX}c>", f"<{EX}knows>", f"<{EX}a>")])
    assert added == 1
    assert store.data_version == 1
    assert store.tables["knows"].num_rows == 3
    assert store.num_triples == 4


def test_add_deduplicates_against_stored_triples():
    store = _store()
    added = store.add_triples(
        [
            (f"<{EX}a>", f"<{EX}knows>", f"<{EX}b>"),  # already stored
            (f"<{EX}a>", f"<{EX}knows>", f"<{EX}b>"),  # duplicate input
            (f"<{EX}c>", f"<{EX}knows>", f"<{EX}a>"),
        ]
    )
    assert added == 1
    assert store.tables["knows"].num_rows == 3


def test_add_creates_new_predicate_table():
    store = _store()
    store.add_triples([(f"<{EX}a>", f"<{EX}likes>", f"<{EX}c>")])
    assert "likes" in store.tables
    assert store.predicate_iris["likes"] == f"<{EX}likes>"
    # The predicate IRI is encoded so variable-predicate rows can bind.
    assert store.dictionary.lookup(f"<{EX}likes>") is not None
    assert "likes" in store.table_names()


def test_local_name_keeps_its_first_iri_after_its_table_empties():
    store = _store()
    store.remove_triples(BASE[:2])
    assert "knows" not in store.tables
    terms = len(store.dictionary)
    other = f"<{EX}other#knows>"
    store.add_triples([(f"<{EX}a>", other, f"<{EX}c>")])
    assert store.tables["knows"].num_rows == 1
    assert store.predicate_iris["knows"] == f"<{EX}knows>"
    assert len(store.dictionary) == terms  # `other` is never keyed
    assert store.dictionary.lookup(other) is None


def test_add_invalidates_triples_view():
    store = _store()
    before = store.triples_relation().num_rows
    store.add_triples([(f"<{EX}c>", f"<{EX}knows>", f"<{EX}a>")])
    after = store.triples_relation().num_rows
    assert (before, after) == (3, 4)


def test_remove_existing_triples():
    store = _store()
    removed = store.remove_triples(
        [(f"<{EX}a>", f"<{EX}knows>", f"<{EX}b>")]
    )
    assert removed == 1
    assert store.data_version == 1
    assert store.tables["knows"].num_rows == 1
    assert store.num_triples == 2


def test_remove_unknown_triples_is_a_noop():
    store = _store()
    removed = store.remove_triples(
        [
            (f"<{EX}zz>", f"<{EX}knows>", f"<{EX}b>"),  # unseen subject
            (f"<{EX}a>", f"<{EX}nosuch>", f"<{EX}b>"),  # unseen predicate
            (f"<{EX}a>", f"<{EX}knows>", f"<{EX}c>"),  # pair not stored
        ]
    )
    assert removed == 0
    assert store.data_version == 0  # nothing changed, no epoch bump
    assert store.tables["knows"].num_rows == 2


def test_removing_last_triple_drops_the_table():
    store = _store()
    store.remove_triples([(f"<{EX}a>", RDF_TYPE, f"<{EX}T>")])
    assert "type" not in store.tables
    assert "type" not in store.table_names()
    # Dictionary keys survive (other triples may reference the terms).
    assert store.dictionary.lookup(f"<{EX}T>") is not None


def test_empty_store_has_no_triples_view_name():
    store = _store()
    store.remove_triples(BASE)
    assert store.table_names() == set()
    assert store.num_triples == 0
    assert TRIPLES_RELATION not in store.table_names()


def test_add_then_remove_roundtrip_restores_answers():
    store = _store()
    extra = [(f"<{EX}x>", f"<{EX}knows>", f"<{EX}y>")]
    store.add_triples(extra)
    store.remove_triples(extra)
    assert store.tables["knows"].num_rows == 2
    assert store.data_version == 2
