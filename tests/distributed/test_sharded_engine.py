"""ShardedEngine over LocalShardTransport: parity, explain, streaming."""

import pytest

from repro.distributed import ShardedEngine, ShardedStore
from repro.engines import ALL_ENGINES
from repro.errors import ConfigError
from repro.lubm.generator import generate_triples
from repro.service import QueryService
from repro.service.formats import SERIALIZERS
from repro.storage.vertical import vertically_partition

EX = "http://ex/"


def _graph():
    triples = []
    for i in range(30):
        s = f"<{EX}s{i}>"
        triples.append((s, f"<{EX}advisor>", f"<{EX}s{(i * 7) % 30}>"))
        if i % 2 == 0:
            triples.append((s, f"<{EX}memberOf>", f"<{EX}org{i % 4}>"))
        if i % 5 == 0:
            triples.append((s, f"<{EX}rank>", f'"{i % 6}"'))
    for j in range(4):
        triples.append(
            (f"<{EX}org{j}>", f"<{EX}worksFor>", f"<{EX}dept{j % 2}>")
        )
    return sorted(set(triples))


QUERIES = [
    f"SELECT ?x ?y WHERE {{ ?x <{EX}advisor> ?y }}",
    f"SELECT ?x ?y WHERE {{ ?x <{EX}advisor> ?y . "
    f"?x <{EX}memberOf> <{EX}org0> }}",
    f"SELECT ?x ?z WHERE {{ ?x <{EX}memberOf> ?y . "
    f"?y <{EX}worksFor> ?z }}",
    f"SELECT ?y WHERE {{ <{EX}s3> <{EX}advisor> ?y }}",
    f"SELECT ?x ?y ?z WHERE {{ ?x <{EX}advisor> ?y . "
    f"?x <{EX}memberOf> ?z }} ORDER BY ?y LIMIT 7 OFFSET 1",
    f"SELECT ?x WHERE {{ {{ ?x <{EX}rank> ?r }} UNION "
    f"{{ ?x <{EX}memberOf> <{EX}org1> }} }}",
    f"SELECT ?x ?r WHERE {{ ?x <{EX}memberOf> ?m . "
    f"OPTIONAL {{ ?x <{EX}rank> ?r }} }}",
]


@pytest.fixture(scope="module")
def stores():
    graph = _graph()
    return vertically_partition(list(graph)), ShardedStore.partition(
        list(graph), 3
    )


def test_requires_a_sharded_store():
    single = vertically_partition(_graph())
    with pytest.raises(ConfigError):
        ShardedEngine(single)


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_rows_match_single_store_engine(stores, engine_cls):
    single_store, sharded_store = stores
    single = engine_cls(single_store)
    sharded = ShardedEngine(sharded_store, engine_cls.name)
    for text in QUERIES:
        expected = single.decode(single.execute_sparql(text))
        rows = sharded.decode(sharded.execute_sparql(text))
        assert rows == expected, (engine_cls.name, text)


def test_explain_reports_the_fragment_plan(stores):
    _, sharded_store = stores
    engine = ShardedEngine(sharded_store)
    explain = engine.explain_sparql(QUERIES[2])
    assert "scatter-gather plan" in explain
    assert "3 shard(s)" in explain
    assert "fragment 0" in explain
    union_explain = engine.explain_sparql(QUERIES[5])
    assert "union of 2 block(s)" in union_explain
    missing = engine.explain_sparql(
        f"SELECT ?x WHERE {{ ?x <{EX}advisor> <{EX}absent> }}"
    )
    assert "empty result" in missing


def test_streaming_pages_match_materialized(stores):
    single_store, sharded_store = stores
    single = QueryService(ALL_ENGINES[0](single_store))
    service = QueryService(ShardedEngine(sharded_store))
    for text in QUERIES[:3]:
        expected = single.engine.decode(single.execute(text))
        cursor = service.session().execute(
            text, page_size=3, stream=True
        )
        rows = []
        while True:
            page = cursor.fetch()
            rows.extend(page.rows)
            if page.done:
                break
        assert rows == expected, text


def test_queries_over_absent_predicates_are_empty(stores):
    _, sharded_store = stores
    engine = ShardedEngine(sharded_store)
    result = engine.execute_sparql(
        f"SELECT ?x WHERE {{ ?x <{EX}noSuchPred> ?y }}"
    )
    assert result.num_rows == 0


def test_service_surface_over_sharded_store(stores):
    _, sharded_store = stores
    service = QueryService(ShardedEngine(sharded_store))
    session = service.session()
    stats = session.stats()
    assert stats["triples"] == sharded_store.num_triples
    assert stats["tables"] == len(sharded_store.tables)
    assert stats["engine"] == "sharded"
    explain = session.explain(QUERIES[1])
    assert "partitioned" in explain


# ---------------------------------------------------------------------------
# Byte identity on the paper workload, through an update round
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module", params=[2, 3], ids=["2shards", "3shards"])
def lubm_stores(request, dataset):
    """LUBM(1) as (triples, single store, N-shard store), private to
    this module because the test below writes to both stores."""
    triples = list(generate_triples(dataset.config))
    return (
        triples,
        vertically_partition(list(triples)),
        ShardedStore.partition(list(triples), request.param),
    )


def _binary_body(session, text):
    with session.execute(text) as cursor:
        return SERIALIZERS["binary"].serialize(cursor)


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_paper_query_bodies_are_byte_identical_across_an_update(
    lubm_stores, queries, engine_cls
):
    triples, single_store, sharded_store = lubm_stores
    single = QueryService(engine_cls(single_store)).session()
    sharded = QueryService(
        ShardedEngine(sharded_store, engine_cls.name)
    ).session()
    texts = dict(queries)

    def assert_identical(stage):
        for qid, text in texts.items():
            assert _binary_body(sharded, text) == _binary_body(
                single, text
            ), (engine_cls.name, stage, qid)

    assert_identical("load")

    # The stores are shared by the five engine cases, so each case
    # brings its own never-seen predicate and deletes its own slice of
    # the original triples; every comparison is sharded vs single.
    offset = ALL_ENGINES.index(engine_cls)
    tag = f"<{EX}tag-{engine_cls.name}>"
    existing = sorted({s for s, _, _ in triples[:500]})[:8]
    add = [(s, tag, f"<{EX}t{i}>") for i, s in enumerate(existing)]
    add += [(f"<{EX}node{i}>", tag, f"<{EX}t{i % 3}>") for i in range(8)]
    remove = add[::2] + triples[offset :: len(triples) // 7][:7]
    assert sharded_store.add_triples(add) == single_store.add_triples(add)
    assert sharded_store.remove_triples(remove) == (
        single_store.remove_triples(remove)
    ) == len(remove)
    texts["tag"] = f"SELECT ?s ?o WHERE {{ ?s {tag} ?o }}"
    assert_identical("updated")
    with sharded.execute(texts["tag"]) as cursor:
        assert len(cursor.fetch_all()) == 8
