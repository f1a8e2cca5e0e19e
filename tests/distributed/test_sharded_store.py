"""ShardedStore: dictionary identity, facade parity, unified epoch."""

import random
import threading

import pytest

from repro.distributed import partition as partition_module
from repro.distributed.partition import shard_of
from repro.distributed.store import EpochLock, ShardedStore, _pair_present
from repro.distributed.engine import ShardedEngine
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.errors import ConfigError
from repro.storage.dictionary import Dictionary
from repro.storage.vertical import local_name, vertically_partition

EX = "http://ex/"


def _graph(n=60):
    return [
        (
            f"<{EX}s{i % 13}>",
            f"<{EX}p{i % 4}>",
            f"<{EX}o{i % 6}>" if i % 3 else f'"lit{i}"',
        )
        for i in range(n)
    ]


def _rows(relation):
    return sorted(relation.iter_rows())


@pytest.fixture()
def pair():
    graph = _graph()
    return (
        vertically_partition(list(graph)),
        ShardedStore.partition(list(graph), 3),
    )


def test_partition_requires_positive_shard_count():
    with pytest.raises(ConfigError):
        ShardedStore.partition(_graph(), 0)


def test_shards_must_share_the_dictionary():
    single = vertically_partition(_graph())
    with pytest.raises(ConfigError):
        ShardedStore([single], Dictionary())
    with pytest.raises(ConfigError):
        ShardedStore([], Dictionary())


def test_dictionary_identical_to_single_store(pair):
    single, sharded = pair
    assert list(sharded.dictionary.items()) == list(
        single.dictionary.items()
    )


def test_facade_parity_with_single_store(pair):
    single, sharded = pair
    assert sharded.num_triples == single.num_triples
    assert sharded.table_names() == single.table_names()
    assert sharded.predicate_iris == single.predicate_iris
    for name, table in single.tables.items():
        assert _rows(sharded.tables[name]) == _rows(table), name


def test_column_sketches_merge_is_exact(pair):
    single, sharded = pair
    mine = sharded.column_sketches()
    theirs = single.column_sketches()
    assert set(mine) == set(theirs)
    for table in theirs:
        for attr in theirs[table]:
            combined = mine[table][attr]
            reference = theirs[table][attr]
            assert combined.total == reference.total, (table, attr)


def test_update_routing_matches_single_store(pair):
    single, sharded = pair
    add = [
        (f"<{EX}s1>", f"<{EX}p0>", '"fresh"'),
        (f"<{EX}ghost>", f"<{EX}brandNew>", f"<{EX}s2>"),
        (f"<{EX}s5>", f"<{EX}brandNew>", f"<{EX}ghost>"),
    ]
    remove = [add[0], _graph()[0]]
    assert sharded.add_triples(add) == single.add_triples(add)
    assert list(sharded.dictionary.items()) == list(
        single.dictionary.items()
    )
    assert sharded.remove_triples(remove) == single.remove_triples(remove)
    assert sharded.num_triples == single.num_triples
    for name, table in single.tables.items():
        assert _rows(sharded.tables[name]) == _rows(table), name


def test_noop_batches_do_not_bump_the_epoch(pair):
    _, sharded = pair
    before = sharded.data_version
    assert sharded.add_triples([_graph()[0]]) == 0  # already present
    assert sharded.remove_triples(
        [(f"<{EX}nope>", f"<{EX}p0>", f"<{EX}nada>")]
    ) == 0
    assert sharded.add_triples([]) == 0
    assert sharded.data_version == before


def test_update_hooks_get_each_shards_committed_update(pair):
    _, sharded = pair
    seen = []
    hook = seen.append
    sharded.add_update_hook(hook)
    base_terms = len(sharded.dictionary)
    batch = [(f"<{EX}hooked>", f"<{EX}hookPred>", f"<{EX}s0>")]
    sharded.add_triples(batch)
    assert len(seen) == 1
    updates = seen[0]
    assert len(updates) == sharded.shard_count
    home = sharded.shard_for_subject(batch[0][0])
    for index, update in enumerate(updates):
        # Every shard gets the appended terms, rows or not.
        assert update.base_terms == base_terms
        assert update.terms == (f"<{EX}hooked>", f"<{EX}hookPred>")
        if index == home:
            (committed,) = update.batches
            assert committed.version == sharded.stores[index].data_version
            assert update.created_iris == (
                ("hookPred", f"<{EX}hookPred>"),
            )
        else:
            assert update.batches == () and update.created_iris == ()
    sharded.remove_update_hook(hook)
    sharded.remove_triples(batch)
    assert len(seen) == 1


def test_update_colliding_local_name_matches_single_store():
    """A table that exists only on some shards keeps the union's IRI
    when an update brings it to another shard under a different IRI
    with the same local name."""
    knows_a = f"<{EX}a#knows>"
    knows_b = f"<{EX}b/knows>"
    shard_count = 2
    subjects = [f"<{EX}x{i}>" for i in range(40)]
    holder = subjects[0]
    newcomer = next(
        s for s in subjects
        if shard_of(s, shard_count) != shard_of(holder, shard_count)
    )
    graph = [
        (holder, knows_a, f"<{EX}y>"),
        (newcomer, f"<{EX}name>", '"n"'),
    ]
    single = vertically_partition(list(graph))
    sharded = ShardedStore.partition(list(graph), shard_count)
    assert "knows" not in sharded.stores[
        shard_of(newcomer, shard_count)
    ].tables
    batch = [(newcomer, knows_b, f"<{EX}z>")]
    assert sharded.add_triples(batch) == single.add_triples(batch) == 1

    assert list(sharded.dictionary.items()) == list(
        single.dictionary.items()
    )
    for store in sharded.stores:
        assert store.predicate_iris == {
            name: single.predicate_iris[name] for name in store.tables
        }
    query = f"SELECT ?p ?o WHERE {{ {newcomer} ?p ?o }}"
    reference = EmptyHeadedEngine(single)
    expected = sorted(reference.decode(reference.execute_sparql(query)))
    assert (knows_a, f"<{EX}z>") in expected
    engine = ShardedEngine(sharded)
    try:
        assert sorted(engine.decode(engine.execute_sparql(query))) == (
            expected
        )
    finally:
        engine.transport.close()


def test_epoch_write_excludes_readers():
    lock = EpochLock()
    order: list[str] = []
    ready = threading.Event()
    release = threading.Event()

    def reader():
        with lock.read():
            order.append("read-start")
            ready.set()
            release.wait(timeout=10)
            order.append("read-end")

    thread = threading.Thread(target=reader)
    thread.start()
    assert ready.wait(timeout=10)

    def writer():
        with lock.write():
            order.append("write")

    wthread = threading.Thread(target=writer)
    wthread.start()
    # The writer must queue behind the open reader.
    wthread.join(timeout=0.3)
    assert wthread.is_alive()
    release.set()
    wthread.join(timeout=10)
    thread.join(timeout=10)
    assert order == ["read-start", "read-end", "write"]


def test_coordinator_membership_probes(pair):
    single, sharded = pair
    s, p, o = _graph()[0]
    s_key = sharded.dictionary.encode(s)
    p_key = sharded.dictionary.encode(p)
    o_key = sharded.dictionary.encode(o)
    with sharded.read_epoch():
        name = p.strip("<>").rsplit("/", 1)[-1]
        assert sharded.contains_pair_locked(name, s_key, o_key)
        assert not sharded.contains_pair_locked(name, o_key, s_key) or (
            (o, p, s) in _graph()
        )
        assert sharded.contains_triple_locked(s_key, p_key, o_key)


def _mixed_graph(seed=11, n=3000):
    """Duplicates, literals, non-ASCII subjects, and a predicate used by
    one subject only (so every shard but one lacks that table)."""
    rng = random.Random(seed)
    subjects = [f"<{EX}s{i}>" for i in range(150)] + [
        f"<{EX}sé{i}>" for i in range(10)
    ] + [f"<{EX}s\U0001f600{i}>" for i in range(5)]
    objects = subjects[:40] + [f'"lit{i}"' for i in range(30)]
    graph = [
        (rng.choice(subjects), f"<{EX}p{rng.randrange(6)}>",
         rng.choice(objects))
        for _ in range(n)
    ]
    graph.append((subjects[0], f"<{EX}lonely>", objects[0]))
    return graph


def _reference_partition(triples, shard_count, dictionary):
    """The string-routing load this store used to run: key-assign the
    stream in single-store order, route the strings by subject hash,
    then load every bucket against the shared dictionary."""
    encode = dictionary.encode
    predicate_iris = {}
    for subject, predicate, obj in triples:
        encode(subject)
        encode(obj)
        predicate_iris.setdefault(local_name(predicate), predicate)
    for iri in predicate_iris.values():
        encode(iri)
    buckets = [[] for _ in range(shard_count)]
    for triple in triples:
        buckets[shard_of(triple[0], shard_count)].append(triple)
    return [vertically_partition(bucket, dictionary) for bucket in buckets]


def _prepopulated():
    dictionary = Dictionary()
    for term in (f"<{EX}unrelated>", f"<{EX}s3>", f"<{EX}p2>", '"lit4"'):
        dictionary.encode(term)
    return dictionary


@pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
@pytest.mark.parametrize("prepopulate", [False, True])
def test_partition_matches_string_routing_reference(
    shard_count, prepopulate
):
    graph = _mixed_graph()
    make = _prepopulated if prepopulate else Dictionary
    reference = _reference_partition(list(graph), shard_count, make())
    sharded = ShardedStore.partition(iter(graph), shard_count, make())
    assert list(sharded.dictionary.items()) == list(
        reference[0].dictionary.items()
    )
    assert len(sharded.stores) == shard_count
    for mine, theirs in zip(sharded.stores, reference):
        assert mine.dictionary is sharded.dictionary
        assert set(mine.tables) == set(theirs.tables)
        assert mine.predicate_iris == theirs.predicate_iris
        assert mine.num_triples == theirs.num_triples
        for name, table in theirs.tables.items():
            columns = mine.tables[name].columns
            assert columns[0].size > 0, name
            for ours, expected in zip(columns, table.columns):
                assert ours.dtype == expected.dtype
                assert ours.tobytes() == expected.tobytes(), name
    if shard_count > 1:
        assert any("lonely" not in store.tables for store in sharded.stores)


def test_colliding_local_names_keep_single_store_dictionary():
    """Two IRIs sharing a local name: the single store keys and names
    the table after the first one only, whichever shard sees which."""
    graph = [
        (f"<{EX}s{i}>", f"<{EX}{'a' if i % 2 else 'b'}/knows>", f"<{EX}o>")
        for i in range(20)
    ]
    single = vertically_partition(list(graph))
    sharded = ShardedStore.partition(list(graph), 3)
    assert list(sharded.dictionary.items()) == list(
        single.dictionary.items()
    )
    assert sharded.predicate_iris == single.predicate_iris


def test_partition_encodes_once_and_hashes_per_subject(monkeypatch):
    """Clock-free guard on the load path: no scalar subject hash, and
    exactly the encodes a single-store load of the stream makes."""
    graph = _mixed_graph(n=600)
    calls = {"hash": 0, "encode": 0}
    real_hash = partition_module.subject_hash
    real_encode = Dictionary.encode

    def counting_hash(subject):
        calls["hash"] += 1
        return real_hash(subject)

    def counting_encode(self, term):
        calls["encode"] += 1
        return real_encode(self, term)

    monkeypatch.setattr(partition_module, "subject_hash", counting_hash)
    monkeypatch.setattr(Dictionary, "encode", counting_encode)
    vertically_partition(list(graph))
    single_encodes = calls["encode"]
    calls["encode"] = 0
    ShardedStore.partition(list(graph), 3)
    assert calls["hash"] == 0
    assert calls["encode"] == single_encodes


def _scan_present(table, subject_key, object_key):
    return bool(
        (
            (table.column("subject") == subject_key)
            & (table.column("object") == object_key)
        ).any()
    )


def _assert_probes_match_scan(sharded, rng):
    for store in sharded.stores:
        for table in store.tables.values():
            subjects = table.column("subject")
            objects = table.column("object")
            rows = rng.sample(range(table.num_rows), min(20, table.num_rows))
            probes = [(int(subjects[i]), int(objects[i])) for i in rows]
            keys = len(sharded.dictionary)
            probes += [
                (rng.randrange(keys + 2), rng.randrange(keys + 2))
                for _ in range(40)
            ]
            probes += [(int(subjects[0]), key) for key in range(keys + 1)]
            for s_key, o_key in probes:
                assert _pair_present(table, s_key, o_key) == _scan_present(
                    table, s_key, o_key
                ), (table.name, s_key, o_key)


def test_pair_probe_agrees_with_scan_across_updates():
    rng = random.Random(5)
    graph = _mixed_graph(n=800)
    sharded = ShardedStore.partition(list(graph), 2)
    _assert_probes_match_scan(sharded, rng)
    batch = [
        (f"<{EX}s{rng.randrange(200)}>", f"<{EX}p{rng.randrange(8)}>",
         f"<{EX}o{rng.randrange(50)}>")
        for _ in range(120)
    ]
    assert sharded.add_triples(batch)
    _assert_probes_match_scan(sharded, rng)
    removed = batch[:60] + graph[:200]
    assert sharded.remove_triples(removed)
    _assert_probes_match_scan(sharded, rng)
    present = (set(graph) | set(batch)) - set(removed)
    with sharded.read_epoch():
        for triple in rng.sample(graph, 50) + batch:
            keys = [sharded.dictionary.lookup(term) for term in triple]
            assert sharded.contains_triple_locked(*keys) == (
                triple in present
            )
