"""Prepared statements surviving updates: bound plans are pruned, not
cleared, when the store's data-version epoch moves."""

from repro.engines import EmptyHeadedEngine
from repro.service import PreparedStatement, QueryService
from repro.storage.vertical import vertically_partition

EX = "http://ex/"

BASE = [
    (f"<{EX}a>", f"<{EX}advisor>", f"<{EX}p1>"),
    (f"<{EX}b>", f"<{EX}advisor>", f"<{EX}p2>"),
    (f"<{EX}a>", f"<{EX}age>", '"42"'),
    (f"<{EX}a>", f"<{EX}likes>", f"<{EX}b>"),
]

TEMPLATE = "SELECT ?x WHERE { ?x <http://ex/advisor> $prof }"


def _service():
    store = vertically_partition(BASE)
    return store, QueryService(EmptyHeadedEngine(store))


def test_conjunctive_bound_plans_survive_updates():
    store, service = _service()
    statement = service.prepare(TEMPLATE)
    statement.execute(prof=f"<{EX}p1>")
    statement.execute(prof=f"<{EX}p2>")
    assert statement.stats.bind_misses == 2

    store.add_triples([(f"<{EX}c>", f"<{EX}advisor>", f"<{EX}p1>")])
    rows = statement.execute_decoded(prof=f"<{EX}p1>")
    assert sorted(rows) == [(f"<{EX}a>",), (f"<{EX}c>",)]
    # No re-bind happened: both values' plans outlived the epoch bump.
    assert statement.stats.bind_misses == 2
    assert statement.stats.bind_hits >= 1
    assert statement.stats.bound_retained == 2
    assert statement.stats.invalidations == 1


def test_result_cache_still_drops_on_update():
    store, service = _service()
    statement = service.prepare(TEMPLATE)
    before = statement.execute(prof=f"<{EX}p1>")
    assert statement.execute(prof=f"<{EX}p1>") is before  # cached
    store.add_triples([(f"<{EX}c>", f"<{EX}advisor>", f"<{EX}p1>")])
    after = statement.execute(prof=f"<{EX}p1>")
    assert after is not before
    assert after.num_rows == before.num_rows + 1


def test_binding_for_dropped_table_is_pruned():
    store, service = _service()
    statement = service.prepare("SELECT ?x WHERE { ?x <http://ex/likes> ?y }")
    assert statement.execute().num_rows == 1
    store.remove_triples([(f"<{EX}a>", f"<{EX}likes>", f"<{EX}b>")])
    # The likes table is gone: the old binding must not survive.
    assert statement.execute().num_rows == 0
    assert statement.stats.bound_retained == 0


def test_binding_pruned_when_table_drops_between_two_prunes():
    store, service = _service()
    likes = service.prepare("SELECT ?x WHERE { ?x <http://ex/likes> ?y }")
    fresh = service.prepare("SELECT ?x WHERE { ?x <http://ex/fresh> ?y }")
    assert likes.execute().num_rows == 1
    assert fresh.execute().num_rows == 0  # no such table: not retained
    # Prune 1: a table appears and none disappears, so the likes
    # binding is kept without a look at its atoms.
    store.add_triples([(f"<{EX}c>", f"<{EX}fresh>", f"<{EX}d>")])
    assert likes.execute().num_rows == 1
    assert fresh.execute().num_rows == 1
    assert likes.stats.bound_retained == 1
    assert likes.stats.bind_misses == 1
    # Prune 2: both tables are gone; neither binding may survive.
    store.remove_triples(
        [
            (f"<{EX}a>", f"<{EX}likes>", f"<{EX}b>"),
            (f"<{EX}c>", f"<{EX}fresh>", f"<{EX}d>"),
        ]
    )
    assert likes.execute().num_rows == 0
    assert fresh.execute().num_rows == 0
    assert likes.stats.bound_retained == 1
    assert fresh.stats.bound_retained == 0
    assert likes.stats.bind_misses == 2
    assert fresh.stats.bind_misses == 3


def test_provably_empty_binding_rebinds_after_update():
    store, service = _service()
    statement = service.prepare(TEMPLATE)
    ghost = f"<{EX}p9>"
    assert statement.execute(prof=ghost).num_rows == 0  # None binding
    store.add_triples([(f"<{EX}d>", f"<{EX}advisor>", ghost)])
    assert statement.execute_decoded(prof=ghost) == [(f"<{EX}d>",)]


def test_numeric_literal_bindings_are_not_retained():
    store, service = _service()
    engine = service.engine
    statement = PreparedStatement(
        engine, "SELECT ?x WHERE { ?x <http://ex/age> 42 }"
    )
    assert statement.execute().num_rows == 1
    # A new stored form of 42 widens the fan-out; the cached binding
    # must not survive the epoch bump.
    store.add_triples(
        [
            (
                f"<{EX}e>",
                f"<{EX}age>",
                '"42"^^<http://www.w3.org/2001/XMLSchema#integer>',
            )
        ]
    )
    assert statement.execute().num_rows == 2
    assert statement.stats.bound_retained == 0


def test_union_bindings_are_not_retained():
    store, service = _service()
    statement = service.prepare(
        "SELECT ?x WHERE { { ?x <http://ex/advisor> <http://ex/p1> } "
        "UNION { ?x <http://ex/mentor> <http://ex/p1> } }"
    )
    assert statement.execute_decoded() == [(f"<{EX}a>",)]
    # The mentor block was dropped at bind time (no such table); after
    # this update it must come back — a retained union plan would not.
    store.add_triples([(f"<{EX}m>", f"<{EX}mentor>", f"<{EX}p1>")])
    assert sorted(statement.execute_decoded()) == [
        (f"<{EX}a>",),
        (f"<{EX}m>",),
    ]
    assert statement.stats.bound_retained == 0
