"""Incremental index maintenance: every engine's apply_delta path must
answer exactly like an engine freshly built over the mutated store."""

import random

import pytest

from repro.engines import ALL_ENGINES, EmptyHeadedEngine, RDF3XLikeEngine
from repro.engines.triplebit import TripleBitLikeEngine
from repro.storage.vertical import (
    SUBJECT,
    OBJECT,
    DeltaConfig,
    vertically_partition,
)

EX = "http://ex/"

BASE = [
    (f"<{EX}a>", f"<{EX}knows>", f"<{EX}b>"),
    (f"<{EX}b>", f"<{EX}knows>", f"<{EX}c>"),
    (f"<{EX}c>", f"<{EX}knows>", f"<{EX}a>"),
    (f"<{EX}a>", f"<{EX}likes>", f"<{EX}c>"),
    (f"<{EX}b>", f"<{EX}likes>", f"<{EX}a>"),
]

QUERIES = [
    "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y }",
    "SELECT ?x WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/likes> ?z }",
    "SELECT ?x ?p ?y WHERE { ?x ?p ?y }",
    "SELECT ?x WHERE { ?x <http://ex/mentors> ?y }",
    "SELECT ?x WHERE { ?x <http://ex/knows> <http://ex/b> }",
]


def _answers(engine, texts=QUERIES):
    return [sorted(engine.decode(engine.execute_sparql(t))) for t in texts]


def _check_against_fresh(engines, store_triples):
    fresh_store = vertically_partition(sorted(store_triples))
    for engine in engines:
        fresh = type(engine)(fresh_store)
        assert _answers(engine) == _answers(fresh), engine.name


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_incremental_add_remove_matches_fresh_engine(engine_cls):
    store = vertically_partition(BASE)
    engine = engine_cls(store)
    _answers(engine)  # warm indexes and plans
    current = set(BASE)

    additions = [
        (f"<{EX}d>", f"<{EX}knows>", f"<{EX}a>"),
        (f"<{EX}d>", f"<{EX}mentors>", f"<{EX}b>"),  # creates a table
    ]
    assert store.add_triples(additions) == 2
    current |= set(additions)
    _check_against_fresh([engine], current)

    removals = [
        (f"<{EX}a>", f"<{EX}likes>", f"<{EX}c>"),
        (f"<{EX}b>", f"<{EX}likes>", f"<{EX}a>"),  # drops the table
        (f"<{EX}d>", f"<{EX}knows>", f"<{EX}a>"),  # removes a delta insert
    ]
    assert store.remove_triples(removals) == 3
    current -= set(removals)
    _check_against_fresh([engine], current)

    # Revive a previously dropped table.
    assert store.add_triples([(f"<{EX}z>", f"<{EX}likes>", f"<{EX}a>")]) == 1
    current.add((f"<{EX}z>", f"<{EX}likes>", f"<{EX}a>"))
    _check_against_fresh([engine], current)


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_incremental_survives_store_compaction(engine_cls):
    store = vertically_partition(BASE)
    store.delta_config = DeltaConfig(compact_fraction=0.0)  # always compact
    engine = engine_cls(store)
    _answers(engine)
    current = set(BASE)
    rng = random.Random(5)
    for step in range(6):
        triple = (
            f"<{EX}s{rng.randrange(5)}>",
            f"<{EX}knows>",
            f"<{EX}o{rng.randrange(5)}>",
        )
        if triple in current:
            store.remove_triples([triple])
            current.discard(triple)
        else:
            store.add_triples([triple])
            current.add(triple)
        assert store.compactions > step  # compaction really fired
        _check_against_fresh([engine], current)


def test_large_delta_falls_back_to_rebuild():
    store = vertically_partition(BASE)
    engine = RDF3XLikeEngine(store)
    _answers(engine)
    state_before = engine._state
    # A batch far past delta_rebuild_fraction of the 5-triple store.
    store.add_triples(
        [(f"<{EX}n{i}>", f"<{EX}knows>", f"<{EX}n{i + 1}>") for i in range(20)]
    )
    _answers(engine)
    state_after = engine._state
    assert not state_after.overlay  # rebuilt, not patched
    assert state_after.triples is not state_before.triples


def test_small_delta_is_patched_not_rebuilt():
    store = vertically_partition([
        (f"<{EX}s{i}>", f"<{EX}knows>", f"<{EX}o{i}>") for i in range(50)
    ])
    rdf3x = RDF3XLikeEngine(store)
    triplebit = TripleBitLikeEngine(store)
    for engine in (rdf3x, triplebit):
        _answers(engine, QUERIES[:1])
    triples_before = rdf3x._state.triples
    matrices_before = triplebit._state.matrices
    store.add_triples([(f"<{EX}x>", f"<{EX}knows>", f"<{EX}y>")])
    for engine in (rdf3x, triplebit):
        _answers(engine, QUERIES[:1])
    # Main structures are shared objects — only the overlay advanced.
    assert rdf3x._state.triples is triples_before
    assert rdf3x._state.overlay.rows == 1
    assert triplebit._state.matrices is matrices_before
    assert triplebit._state.overlay.rows == 1


def test_emptyheaded_keeps_plans_and_patches_cached_tries():
    store = vertically_partition([
        (f"<{EX}s{i}>", f"<{EX}knows>", f"<{EX}o{i}>") for i in range(50)
    ])
    engine = EmptyHeadedEngine(store)
    text = QUERIES[0]
    engine.execute_sparql(text)
    plans_before = dict(engine._plan_cache)
    assert plans_before
    cached_keys = [k for k in engine.catalog._trie_cache if k[0] == "knows"]
    assert cached_keys
    store.add_triples([(f"<{EX}x>", f"<{EX}knows>", f"<{EX}y>")])
    rows = engine.decode(engine.execute_sparql(text))
    assert (f"<{EX}x>", f"<{EX}y>") in set(rows)
    # The structural plan cache survived the update wholesale.
    assert list(engine._plan_cache) == list(plans_before)
    # The patched catalog still has (updated) tries under the same keys.
    for key in cached_keys:
        trie = engine.catalog._trie_cache[key]
        assert trie.num_tuples == 51


@pytest.mark.parametrize(
    "engine_cls", [RDF3XLikeEngine, TripleBitLikeEngine]
)
def test_threshold_rebuild_mid_catchup_does_not_double_apply(engine_cls):
    """Regression: when the overlay trips the rebuild threshold while
    several batches are being caught up, the rebuilt mains already
    contain the *later* batches — re-applying them as overlay inserts
    made subsequent deletions cancel the bogus insert instead of
    tombstoning the main copy (deleted triples stayed visible)."""
    base = [
        (f"<{EX}s{i}>", f"<{EX}knows>", f"<{EX}o{i}>") for i in range(20)
    ]
    store = vertically_partition(base)
    engine = engine_cls(store)
    query = QUERIES[0]
    _answers(engine, [query])
    # One small batch applied incrementally brings the overlay near the
    # engine's delta_rebuild_fraction (0.25 * 20 = 5 rows).
    store.add_triples(
        [(f"<{EX}a{i}>", f"<{EX}knows>", f"<{EX}b{i}>") for i in range(4)]
    )
    _answers(engine, [query])
    # Two more batches commit before the engine's next query; catching
    # up on the first must trip the threshold mid-loop.
    batch_b = [
        (f"<{EX}c{i}>", f"<{EX}knows>", f"<{EX}d{i}>") for i in range(3)
    ]
    batch_c = [
        (f"<{EX}e{i}>", f"<{EX}knows>", f"<{EX}f{i}>") for i in range(2)
    ]
    store.add_triples(batch_b)
    store.add_triples(batch_c)
    _answers(engine, [query])
    # Deleting the last batch must actually delete it.
    store.remove_triples(batch_c)
    rows = set(engine.decode(engine.execute_sparql(query)))
    assert (f"<{EX}e0>", f"<{EX}f0>") not in rows
    _check_against_fresh(
        [engine], set(base) | set(batch_b) | {
            (f"<{EX}a{i}>", f"<{EX}knows>", f"<{EX}b{i}>") for i in range(4)
        }
    )


def test_pairwise_distinct_cache_tracks_replaced_relations():
    from repro.engines.pairwise import ColumnStoreEngine

    store = vertically_partition(BASE)
    engine = ColumnStoreEngine(store)
    relation = engine.catalog.get("knows")
    assert engine._column_distinct(relation, 0) == 3
    store.add_triples([(f"<{EX}q>", f"<{EX}knows>", f"<{EX}r>")])
    engine.check_data_version()
    replaced = engine.catalog.get("knows")
    assert replaced is not relation
    assert engine._column_distinct(replaced, 0) == 4
