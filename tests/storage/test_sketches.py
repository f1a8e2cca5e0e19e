"""Frequency-sketch lifecycle: incremental maintenance through
``apply_delta`` must equal a from-scratch rebuild byte-for-byte, on the
store and in the engines (the planner's statistics are part of the
replicated state; ``test_replicas.py`` checks replicas end with the
parent's sketch bytes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import (
    FrequencySketch,
    build_table_sketches,
)
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.storage.relation import Relation
from repro.storage.vertical import (
    TRIPLES_RELATION,
    DeltaConfig,
    VerticallyPartitionedStore,
    sketches_apply_delta,
    vertically_partition,
)

EX = "http://ex/"
MAX_U32 = 2**32 - 1


def _triples(n=40):
    return [
        (
            f"<{EX}s{i % 9}>",
            f"<{EX}p{i % 3}>",
            f"<{EX}o{i % 5}>" if i % 4 else f'"lit{i}"',
        )
        for i in range(n)
    ]


def _store(compact_fraction=100.0):
    store = vertically_partition(_triples())
    store.delta_config = DeltaConfig(compact_fraction=compact_fraction)
    return store


def _sketch_bytes(sketches):
    return {
        name: {attr: sk.to_bytes() for attr, sk in columns.items()}
        for name, columns in sketches.items()
    }


def _rebuilt(store):
    """From-scratch registry over the store's current merged tables."""
    return {
        name: build_table_sketches(
            relation.attributes,
            [relation.column(a) for a in relation.attributes],
        )
        for name, relation in store.tables.items()
    }


# ----------------------------------------------------------------------
# FrequencySketch unit behavior
# ----------------------------------------------------------------------
class TestFrequencySketch:
    def test_from_column_counts(self):
        column = np.array([5, 3, 5, 5, 7, 3], dtype=np.uint32)
        sketch = FrequencySketch.from_column(column)
        assert sketch.total == 6
        assert sketch.distinct == 3
        assert sketch.count(5) == 3
        assert sketch.count(3) == 2
        assert sketch.count(99) == 0
        assert sketch.max_count == 3

    def test_top_and_residual(self):
        column = np.array([1] * 5 + [2] * 3 + [3, 4], dtype=np.uint32)
        sketch = FrequencySketch.from_column(column)
        assert sketch.top(2) == [(1, 5), (2, 3)]
        assert sketch.residual(2) == (2, 2)  # values {3,4}, 2 rows

    def test_merge_equals_rebuild(self):
        base = np.array([1, 1, 2, 3], dtype=np.uint32)
        sketch = FrequencySketch.from_column(base)
        merged = sketch.merge(
            np.array([2, 4], dtype=np.uint32),
            np.array([1], dtype=np.uint32),
        )
        rebuilt = FrequencySketch.from_column(
            np.array([1, 2, 3, 2, 4], dtype=np.uint32)
        )
        assert merged.to_bytes() == rebuilt.to_bytes()

    def test_bytes_roundtrip(self):
        sketch = FrequencySketch.from_column(
            np.array([9, 9, 1], dtype=np.uint32)
        )
        assert FrequencySketch.from_bytes(sketch.to_bytes()) == sketch


# ----------------------------------------------------------------------
# The merge kernel: exact, read-only on its inputs, batch-proportional
# ----------------------------------------------------------------------
def _u32(values):
    """A read-only ``uint32`` column, as shared memory hands it out."""
    array = np.asarray(values, dtype=np.uint32)
    array.setflags(write=False)
    return array


def _read_only(sketch):
    sketch.values.setflags(write=False)
    sketch.counts.setflags(write=False)
    return sketch


def _rebuild_bytes(content):
    return FrequencySketch.from_column(_u32(content)).to_bytes()


_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 3, MAX_U32 - 1, MAX_U32]),
    st.integers(0, MAX_U32),
)


@settings(max_examples=80)
@given(data=st.data())
def test_merge_chain_equals_rebuild(data):
    """Any chain of merges equals a ``from_column`` rebuild byte for
    byte; removals are a sub-multiset of the current content and may
    share values with the same batch's additions."""
    content = data.draw(st.lists(_VALUES, max_size=30), label="base")
    sketch = _read_only(FrequencySketch.from_column(_u32(content)))
    for _ in range(data.draw(st.integers(1, 6), label="batches")):
        doomed = set()
        if content:
            doomed = set(
                data.draw(
                    st.lists(
                        st.integers(0, len(content) - 1), unique=True
                    ),
                    label="removed positions",
                )
            )
        removed = [content[i] for i in sorted(doomed)]
        pool = (_VALUES | st.sampled_from(content)) if content else _VALUES
        added = data.draw(st.lists(pool, max_size=12), label="added")
        content = [
            value for i, value in enumerate(content) if i not in doomed
        ] + added
        sketch = _read_only(sketch.merge(_u32(added), _u32(removed)))
        assert sketch.to_bytes() == _rebuild_bytes(content)


class TestMergeCases:
    def test_removing_absent_value_leaves_no_entry(self):
        sketch = _read_only(FrequencySketch.from_column(_u32([1, 2, 2])))
        merged = sketch.merge(None, _u32([5, 0]))
        assert merged.count(5) == merged.count(0) == 0
        assert merged.to_bytes() == _rebuild_bytes([1, 2, 2])
        assert FrequencySketch.empty().merge(None, _u32([7])).distinct == 0

    def test_value_removed_down_to_zero_drops_out(self):
        base = [0, MAX_U32, MAX_U32, 5]
        sketch = _read_only(FrequencySketch.from_column(_u32(base)))
        merged = sketch.merge(None, _u32([MAX_U32, MAX_U32, 0]))
        assert merged.to_bytes() == _rebuild_bytes([5])

    def test_value_in_both_added_and_removed(self):
        sketch = _read_only(FrequencySketch.from_column(_u32([4, 4, 6])))
        merged = sketch.merge(_u32([4, 9, 6]), _u32([4, 6]))
        assert merged.to_bytes() == _rebuild_bytes([4, 4, 9, 6])


def _batch(base):
    """A 24-value batch over ``base``: 16 added (half already present,
    half new) and 8 removed (all present)."""
    added = np.concatenate([base[:8], np.arange(1, 17, 2)[:8]])
    return _u32(added), _u32(base[100:108])


class TestMergeIsBatchProportional:
    """Clock-free guard: a merge hashes and sorts the batch, never the
    sketch's existing distinct values."""

    BASE = np.arange(0, 200_000, 2, dtype=np.uint32)  # 100 000 distinct

    def test_merge_touches_only_the_batch(self, sort_calls):
        sketch = _read_only(FrequencySketch.from_column(self.BASE))
        added, removed = _batch(self.BASE)
        sort_calls.clear()
        merged = sketch.merge(added, removed)
        sizes = [size for _, size in sort_calls]
        assert sizes and max(sizes) <= added.size + removed.size
        assert merged.distinct == 100_000 + 8 - 8

    def test_registry_patch_touches_only_the_batch(self, sort_calls):
        columns = (self.BASE, self.BASE[::-1].copy())
        registry = {"p": build_table_sketches(["subject", "object"], columns)}
        added, removed = _batch(self.BASE)
        attributes = ("subject", "object")
        sort_calls.clear()
        patched = sketches_apply_delta(
            registry,
            {"p": Relation("p", attributes, (added, added))},
            {"p": Relation("p", attributes, (removed, removed))},
        )
        sizes = [size for _, size in sort_calls]
        assert sizes and max(sizes) <= added.size + removed.size
        assert patched["p"]["object"].total == 100_000 + 16 - 8


# ----------------------------------------------------------------------
# Store registry lifecycle
# ----------------------------------------------------------------------
class TestStoreRegistry:
    def test_lazy_build_matches_rebuild(self):
        store = _store()
        assert _sketch_bytes(store.column_sketches()) == _sketch_bytes(
            _rebuilt(store)
        )

    def test_incremental_add_remove_equals_rebuild(self):
        store = _store()
        store.column_sketches()  # materialize the registry
        store.add_triples(
            [
                (f"<{EX}s0>", f"<{EX}p0>", f"<{EX}onew>"),
                (f"<{EX}x>", f"<{EX}pnew>", f"<{EX}y>"),
            ]
        )
        store.remove_triples([(f"<{EX}s0>", f"<{EX}p0>", f"<{EX}o0>")])
        assert store.compactions == 1  # the delta-born pnew table
        assert _sketch_bytes(store.column_sketches()) == _sketch_bytes(
            _rebuilt(store)
        )

    def test_compaction_rebuild_equals_rebuild(self):
        store = _store(compact_fraction=0.001)
        store.column_sketches()
        store.add_triples([(f"<{EX}s0>", f"<{EX}p0>", f"<{EX}onew>")])
        assert store.compactions >= 1
        assert _sketch_bytes(store.column_sketches()) == _sketch_bytes(
            _rebuilt(store)
        )

    def test_table_emptied_drops_from_registry(self):
        triples = [
            (f"<{EX}a>", f"<{EX}p0>", f"<{EX}b>"),
            (f"<{EX}c>", f"<{EX}p1>", f"<{EX}d>"),
        ]
        store = vertically_partition(triples)
        store.column_sketches()
        store.remove_triples([triples[0]])
        assert "p0" not in store.column_sketches()
        assert "p1" in store.column_sketches()

    def test_snapshot_roundtrip_is_byte_identical(self):
        store = _store()
        snapshot = store.export_snapshot()
        assert snapshot.sketches is not None
        clone = VerticallyPartitionedStore.from_snapshot(snapshot)
        assert _sketch_bytes(clone.column_sketches()) == _sketch_bytes(
            store.column_sketches()
        )


# ----------------------------------------------------------------------
# Engine-side maintenance
# ----------------------------------------------------------------------
class TestEngineSketches:
    def test_engine_delta_merge_tracks_store_registry(self):
        store = _store()
        engine = EmptyHeadedEngine(store)
        store.add_triples(
            [
                (f"<{EX}s0>", f"<{EX}p0>", f"<{EX}onew>"),
                (f"<{EX}x>", f"<{EX}pnew>", f"<{EX}y>"),
            ]
        )
        store.remove_triples([(f"<{EX}s0>", f"<{EX}p0>", f"<{EX}o0>")])
        engine.check_data_version()
        engine_sketches = {
            name: columns
            for name, columns in engine._structures.sketches.items()
            if name != TRIPLES_RELATION
        }
        assert _sketch_bytes(engine_sketches) == _sketch_bytes(
            store.column_sketches()
        )

    def test_derived_triples_sketches_follow_updates(self):
        store = _store()
        engine = EmptyHeadedEngine(store)
        query = f"SELECT ?p WHERE {{ <{EX}s0> ?p <{EX}o0> }}"
        engine.execute_sparql(query)  # registers the view + its sketches
        before = engine._structures.sketches[TRIPLES_RELATION]
        assert before["predicate"].total == store.num_triples

        store.add_triples([(f"<{EX}s0>", f"<{EX}p0>", f"<{EX}onew>")])
        engine.check_data_version()
        after = engine._structures.sketches[TRIPLES_RELATION]
        assert after["predicate"].total == store.num_triples
        assert after["object"].count(
            store.dictionary.require(f"<{EX}onew>")
        ) == 1


try:  # shm coverage only where the sandbox allows it
    from repro.service.cluster.shm import shm_supported
except Exception:  # pragma: no cover - cluster tier always importable
    shm_supported = lambda: False  # noqa: E731


@pytest.mark.skipif(
    not shm_supported(), reason="shared memory unavailable in this sandbox"
)
def test_sketches_ride_shared_segment():
    from repro.service.cluster.shm import (
        attach_snapshot,
        detach,
        publish_snapshot,
        unlink_segment,
    )

    store = _store()
    segment = publish_snapshot(store.export_snapshot(), "repro-testsk-ride")
    try:
        attached, handle = attach_snapshot("repro-testsk-ride")
        try:
            assert attached.sketches is not None
            clone = VerticallyPartitionedStore.from_snapshot(attached)
            assert _sketch_bytes(clone.column_sketches()) == _sketch_bytes(
                store.column_sketches()
            )
        finally:
            detach(handle)
    finally:
        segment.close()
        unlink_segment(segment)
