"""Replicas apply what the parent committed and end byte-identical.

A pool worker or a shard replica starts from a snapshot and catches up
by applying :class:`~repro.storage.vertical.CommittedUpdate` payloads
with :func:`~repro.service.cluster.worker.apply_update` — no process
is started here. The property drives one random sequence of add/remove
batches through a single store, a sharded store and snapshot replicas
of both taken at random points; all must agree on dictionary terms,
table bytes, predicate IRIs, epochs and sketch bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.store import ShardedStore
from repro.errors import ClusterError
from repro.service.cluster.worker import apply_update
from repro.storage import vertical
from repro.storage.dictionary import Dictionary
from repro.storage.vertical import (
    VerticallyPartitionedStore,
    vertically_partition,
)

EX = "http://ex/"

SUBJECTS = [f"<{EX}s{i}>" for i in range(6)]
OBJECTS = [f"<{EX}o{i}>" for i in range(4)] + ['"lit"', SUBJECTS[0]]
#: Two pairs of IRIs collide on a local name (``knows``, ``fresh``);
#: ``fresh`` and ``other`` are new to the base graph.
PREDICATES = [
    f"<{EX}p0>",
    f"<{EX}p1>",
    f"<{EX}a#knows>",
    f"<{EX}b/knows>",
    f"<{EX}x/fresh>",
    f"<{EX}y#fresh>",
    f"<{EX}other>",
]

BASE = [
    (SUBJECTS[i % 6], PREDICATES[i % 3], OBJECTS[i % 5]) for i in range(14)
]

triples = st.tuples(
    st.sampled_from(SUBJECTS),
    st.sampled_from(PREDICATES),
    st.sampled_from(OBJECTS),
)
#: (remove?, batch) — empty batches, duplicate adds and removals of
#: absent triples all occur.
operations = st.lists(
    st.tuples(st.booleans(), st.lists(triples, max_size=6)),
    max_size=8,
)


def _terms(store):
    return list(store.dictionary.items())


def _table_bytes(tables):
    return {
        name: [column.tobytes() for column in relation.columns]
        for name, relation in tables.items()
    }


def _sketch_bytes(sketches):
    return {
        name: {attr: sketch.to_bytes() for attr, sketch in columns.items()}
        for name, columns in sketches.items()
    }


def _assert_same(store, reference):
    assert _terms(store) == _terms(reference)
    assert _table_bytes(store.tables) == _table_bytes(reference.tables)
    assert store.predicate_iris == reference.predicate_iris
    assert store.data_version == reference.data_version
    assert _sketch_bytes(store.column_sketches()) == _sketch_bytes(
        reference.column_sketches()
    )


def _snapshot(store):
    return VerticallyPartitionedStore.from_snapshot(store.export_snapshot())


@given(
    ops=operations,
    shard_count=st.integers(1, 3),
    snapshot_points=st.sets(st.integers(0, 8)),
)
@settings(max_examples=60)
def test_replicas_match_single_store(ops, shard_count, snapshot_points):
    single = vertically_partition(list(BASE))
    sharded = ShardedStore.partition(list(BASE), shard_count)
    shipped = []  # the single store's committed updates, in order
    shard_shipped = []  # each sharded update's per-shard payloads
    sharded.add_update_hook(shard_shipped.append)
    # (replica, index of the first payload it still has to apply)
    replicas = []
    shard_replicas = []
    for step, (remove, batch) in enumerate(ops):
        if step in snapshot_points:
            replicas.append((_snapshot(single), len(shipped)))
            shard_replicas.append(
                ([_snapshot(shard) for shard in sharded.stores],
                 len(shard_shipped))
            )
        version, base_terms = single.data_version, len(single.dictionary)
        if remove:
            changed = single.remove_triples(batch)
            assert sharded.remove_triples(batch) == changed
        else:
            changed = single.add_triples(batch)
            assert sharded.add_triples(batch) == changed
        assert bool(changed) == (single.data_version != version)
        shipped.append(single.committed_since(version, base_terms))
    replicas.append((_snapshot(single), len(shipped)))

    for replica, start in replicas:
        for update in shipped[start:]:
            apply_update(replica, update)
        _assert_same(replica, single)

    assert _terms(sharded) == _terms(single)
    assert _table_bytes(sharded.tables) == _table_bytes(single.tables)
    assert sharded.predicate_iris == single.predicate_iris
    assert sharded.data_version == single.data_version
    assert _sketch_bytes(sharded.column_sketches()) == _sketch_bytes(
        single.column_sketches()
    )
    for shard in sharded.stores:
        assert shard.predicate_iris.items() <= single.predicate_iris.items()
    for stores, start in shard_replicas:
        for updates in shard_shipped[start:]:
            for replica, update in zip(stores, updates):
                apply_update(replica, update)
        for replica, shard in zip(stores, sharded.stores):
            _assert_same(replica, shard)


def _committed(store, add=(), remove=()):
    version, base_terms = store.data_version, len(store.dictionary)
    store.add_triples(add)
    store.remove_triples(remove)
    return store.committed_since(version, base_terms)


def test_replica_applies_without_encoding(monkeypatch):
    """Clock-free guard: a replica appends each shipped term with one
    ``encode`` call and derives no table name; every other key it
    uses was assigned by the parent."""
    parent = vertically_partition(list(BASE))
    replica = _snapshot(parent)
    replica.triples_relation()  # the view is patched per batch too
    update = _committed(
        parent,
        add=[
            (SUBJECTS[1], PREDICATES[0], f"<{EX}new>"),
            (SUBJECTS[2], PREDICATES[3], OBJECTS[0]),
            (f"<{EX}t>", PREDICATES[6], OBJECTS[1]),
        ],
        remove=[BASE[0], BASE[1]],
    )
    assert update.terms == (f"<{EX}new>", f"<{EX}t>", PREDICATES[6])
    assert len(update.batches) == 2
    calls = {"encode": 0, "local_name": 0}
    real_encode = Dictionary.encode
    real_local_name = vertical.local_name

    def counting_encode(self, term):
        calls["encode"] += 1
        return real_encode(self, term)

    def counting_local_name(iri):
        calls["local_name"] += 1
        return real_local_name(iri)

    monkeypatch.setattr(Dictionary, "encode", counting_encode)
    monkeypatch.setattr(vertical, "local_name", counting_local_name)
    apply_update(replica, update)
    assert calls == {"encode": len(update.terms), "local_name": 0}
    monkeypatch.undo()
    _assert_same(replica, parent)


def test_out_of_step_replica_is_refused():
    parent = vertically_partition(list(BASE))
    behind = _snapshot(parent)
    first = _committed(parent, add=[(f"<{EX}u>", PREDICATES[0], OBJECTS[0])])
    second = _committed(parent, add=[(f"<{EX}v>", PREDICATES[0], OBJECTS[0])])
    with pytest.raises(ClusterError, match="dictionary holds"):
        apply_update(behind, second)  # skipped `first`
    ahead = _snapshot(parent)
    with pytest.raises(ClusterError, match="dictionary holds"):
        apply_update(ahead, first)  # applied twice
    wrong_epoch = _snapshot(vertically_partition(list(BASE)))
    wrong_epoch.data_version += 1
    with pytest.raises(ClusterError, match="version"):
        apply_update(wrong_epoch, first)
