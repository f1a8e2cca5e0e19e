"""A sharded triple store behind the single-store facade.

:class:`ShardedStore` hash-partitions a triple stream by subject across
N in-tree :class:`~repro.storage.vertical.VerticallyPartitionedStore`
shards sharing ONE dictionary, and exposes the small surface the serving
stack reads (``num_triples``, ``tables``, ``data_version``,
``compactions``, ``table_names``, ``column_sketches``,
``add_triples`` / ``remove_triples``), so sessions, prepared statements
and the HTTP front door work unchanged over a
:class:`~repro.distributed.engine.ShardedEngine`.

Epoch discipline
----------------
All shards move through updates together under one readers-writer
*epoch lock*: scatters take the shared side, updates the exclusive
side. A scatter therefore always observes one consistent cross-shard
epoch — a retried fragment (after a worker crash) re-executes against
the same logical snapshot, so a merge can never mix rows from two
epochs (no torn merges). ``data_version`` is the unified epoch counter;
it bumps only when a batch actually changes content, mirroring the
single store's no-op semantics.

Methods whose names end in ``_locked`` assume the caller already holds
the epoch lock (the ``shard-epoch`` static checker enforces the
convention); everything public takes it itself.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from functools import reduce

import numpy as np

from repro.core.sketch import TableSketches, combine_sketches
from repro.distributed.partition import (
    Triple,
    shard_of,
    split_by_subject,
    split_pairs,
)
from repro.errors import ConfigError
from repro.storage.dictionary import Dictionary
from repro.storage.relation import Relation
from repro.storage.vertical import (
    TRIPLES_RELATION,
    CommittedUpdate,
    DeltaConfig,
    VerticallyPartitionedStore,
    group_pairs,
    local_name,
    vertically_partition,
)

#: Called once per content-changing update with each shard's
#: :class:`CommittedUpdate`, in shard order.
UpdateHook = Callable[[list[CommittedUpdate]], None]


class EpochLock:
    """Readers-writer lock: scatters share an epoch, updates exclude.

    Readers may re-enter while other readers run (the scatter path
    touches several facade properties); a writer waits for the store to
    quiesce and blocks new readers while queued state changes land on
    every shard, which is what makes ``data_version`` a *single*
    cross-shard epoch instead of N drifting ones.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class ShardedStore:
    """N subject-partitioned shards behind the single-store facade."""

    def __init__(
        self,
        stores: Sequence[VerticallyPartitionedStore],
        dictionary: Dictionary,
    ) -> None:
        if not stores:
            raise ConfigError("a sharded store needs at least one shard")
        for store in stores:
            if store.dictionary is not dictionary:
                raise ConfigError(
                    "every shard must share the sharded store's dictionary"
                )
        self.stores = list(stores)
        self.dictionary = dictionary
        self.data_version = 0
        self._epoch = EpochLock()
        self._update_hooks: list[UpdateHook] = []
        self._tables_cache: dict[str, Relation] | None = None
        self._tables_cache_version = -1
        self._sketches_cache: TableSketches | None = None
        self._sketches_cache_version = -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def partition(
        cls,
        triples: Iterable[Triple],
        shard_count: int,
        dictionary: Dictionary | None = None,
        delta_config: DeltaConfig | None = None,
    ) -> "ShardedStore":
        """Load a triple stream into ``shard_count`` shards.

        The stream is encoded once, by ``vertically_partition`` into a
        single store, whose encoded tables are then split by the home
        shard of each row's subject (:func:`split_by_subject`). The
        single-store loader is the only encoder, so the dictionary is
        the single store's by construction; each shard holds exactly
        the sorted-distinct rows a per-shard load of its subjects'
        triples would hold.
        """
        if shard_count < 1:
            raise ConfigError(f"shard_count must be >= 1, got {shard_count}")
        loaded = vertically_partition(triples, dictionary)
        shards = split_by_subject(loaded, shard_count)
        if delta_config is not None:
            for shard in shards:
                shard.delta_config = delta_config
        return cls(shards, loaded.dictionary)

    # ------------------------------------------------------------------
    # Epoch access
    # ------------------------------------------------------------------
    @contextmanager
    def read_epoch(self) -> Iterator[None]:
        """Hold one consistent cross-shard epoch open for a scatter."""
        with self._epoch.read():
            yield

    @property
    def shard_count(self) -> int:
        return len(self.stores)

    def shard_for_subject(self, subject: str) -> int:
        """The shard owning every triple with this subject."""
        return shard_of(subject, len(self.stores))

    # ------------------------------------------------------------------
    # Single-store facade (reads)
    # ------------------------------------------------------------------
    @property
    def num_triples(self) -> int:
        with self._epoch.read():
            return sum(store.num_triples for store in self.stores)

    @property
    def compactions(self) -> int:
        with self._epoch.read():
            return sum(store.compactions for store in self.stores)

    @property
    def predicate_iris(self) -> dict[str, str]:
        with self._epoch.read():
            return self._predicate_iris_locked()

    def _predicate_iris_locked(self) -> dict[str, str]:
        merged: dict[str, str] = {}
        for store in self.stores:
            for name, iri in store.predicate_iris.items():
                merged.setdefault(name, iri)
        return merged

    @property
    def tables(self) -> dict[str, Relation]:
        """Merged per-predicate relations (cached per epoch).

        The serving stack only sizes this mapping for ``/stats``; tests
        use it to prove shard-union == single-store content.
        """
        with self._epoch.read():
            return self._merged_tables_locked()

    def _merged_tables_locked(self) -> dict[str, Relation]:
        if self._tables_cache_version == self.data_version:
            assert self._tables_cache is not None
            return self._tables_cache
        pieces: dict[str, list[Relation]] = {}
        for store in self.stores:
            for name, relation in store.tables.items():
                pieces.setdefault(name, []).append(relation)
        merged = {
            name: reduce(Relation.concat, parts).distinct()
            for name, parts in pieces.items()
        }
        self._tables_cache = merged
        self._tables_cache_version = self.data_version
        return merged

    def table_names(self) -> set[str]:
        """Union of shard table names (plus the triples view)."""
        names: set[str] = set()
        with self._epoch.read():
            for store in self.stores:
                names.update(store.tables)
        if names:
            names.add(TRIPLES_RELATION)
        return names

    def column_sketches(self) -> TableSketches:
        """Cross-shard column sketches for the current epoch.

        Subject partitioning makes shard tables disjoint row sets, so
        the disjoint-union :func:`combine_sketches` merge is *exact* —
        the combined histograms equal the single store's.
        """
        with self._epoch.read():
            return self._column_sketches_locked()

    def _column_sketches_locked(self) -> TableSketches:
        if self._sketches_cache_version == self.data_version:
            assert self._sketches_cache is not None
            return self._sketches_cache
        per_shard = [store.column_sketches() for store in self.stores]
        combined: TableSketches = {}
        for sketches in per_shard:
            for table, columns in sketches.items():
                slot = combined.setdefault(table, {})
                for attr in columns:
                    slot.setdefault(attr, [])
        merged = {
            table: {
                attr: combine_sketches(
                    [
                        sketches[table][attr]
                        for sketches in per_shard
                        if table in sketches and attr in sketches[table]
                    ]
                )
                for attr in columns
            }
            for table, columns in combined.items()
        }
        self._sketches_cache = merged
        self._sketches_cache_version = self.data_version
        return merged

    def delta_stats(self) -> dict[str, object]:
        """Aggregated delta/compaction counters across shards."""
        with self._epoch.read():
            per_shard = [store.delta_stats() for store in self.stores]
        totals: dict[str, object] = {"shards": per_shard}
        for key in ("delta_rows", "delta_tables", "compactions"):
            totals[key] = sum(int(stats.get(key, 0)) for stats in per_shard)
        return totals

    # ------------------------------------------------------------------
    # Updates (the unified cross-shard epoch)
    # ------------------------------------------------------------------
    def add_update_hook(self, hook: UpdateHook) -> None:
        """Register a replication hook (fired under the write epoch)."""
        self._update_hooks.append(hook)

    def remove_update_hook(self, hook: UpdateHook) -> None:
        self._update_hooks = [h for h in self._update_hooks if h is not hook]

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Insert a batch; returns the number of new triples.

        The batch is encoded once, by the single store's encoder
        against the shared dictionary and the union's predicate IRIs,
        so the dictionary stays byte-identical to a single store
        applying the same batch and a table new to one shard records
        the union's IRI. The encoded pairs are then split by subject.
        One epoch bump covers all shards.
        """
        with self._epoch.write():
            iris = self._predicate_iris_locked()
            base_terms = len(self.dictionary)
            pairs, new_iris = group_pairs(
                self.dictionary, triples, iris, encode=True
            )
            iris.update(new_iris)
            return self._apply_locked(pairs, {}, iris, base_terms)[0]

    def remove_triples(self, triples: Iterable[Triple]) -> int:
        """Delete a batch; returns the number actually removed."""
        with self._epoch.write():
            pairs, _ = group_pairs(
                self.dictionary, triples, {}, encode=False
            )
            return self._apply_locked(
                {}, pairs, {}, len(self.dictionary)
            )[1]

    def _apply_locked(
        self,
        added: dict[str, np.ndarray],
        removed: dict[str, np.ndarray],
        iris: dict[str, str],
        base_terms: int,
    ) -> tuple[int, int]:
        """Apply encoded pairs to their home shards, bump the epoch and
        hand every hook each shard's committed update."""
        count = len(self.stores)
        versions = [store.data_version for store in self.stores]
        added_rows = removed_rows = 0
        for store, add_part, remove_part in zip(
            self.stores,
            split_pairs(self.dictionary, added, count),
            split_pairs(self.dictionary, removed, count),
        ):
            if add_part or remove_part:
                shard_added, shard_removed = store.apply_pairs(
                    add_part, remove_part, iris
                )
                added_rows += shard_added
                removed_rows += shard_removed
        if added_rows or removed_rows:
            self.data_version += 1
            updates = [
                store.committed_since(version, base_terms)
                for store, version in zip(self.stores, versions)
            ]
            for hook in list(self._update_hooks):
                hook(updates)
        return added_rows, removed_rows

    # ------------------------------------------------------------------
    # Coordinator-side lookups
    # ------------------------------------------------------------------
    def contains_pair_locked(
        self, relation: str, subject_key: int, object_key: int
    ) -> bool:
        """Membership of an encoded (subject, object) pair.

        Serves variable-free atom groups without a worker round-trip;
        the subject key names the owning shard, so exactly one shard is
        probed. Caller holds the epoch lock.
        """
        subject = self.dictionary.decode(subject_key)
        store = self.stores[shard_of(subject, len(self.stores))]
        table = store.tables.get(relation)
        if table is None:
            return False
        return _pair_present(table, subject_key, object_key)

    def contains_triple_locked(
        self, subject_key: int, predicate_key: int, object_key: int
    ) -> bool:
        """Membership of a fully-encoded triple (``__triples__`` atom)."""
        subject = self.dictionary.decode(subject_key)
        store = self.stores[shard_of(subject, len(self.stores))]
        name = local_name(self.dictionary.decode(predicate_key))
        table = store.tables.get(name)
        if table is None:
            return False
        if store.predicate_key(name) != int(predicate_key):
            return False
        return _pair_present(table, subject_key, object_key)


def _pair_present(
    table: Relation, subject_key: int, object_key: int
) -> bool:
    """Binary-search membership in a table sorted by (subject, object)."""
    subjects = table.column("subject")
    subject = np.uint32(subject_key)
    start = int(np.searchsorted(subjects, subject, side="left"))
    stop = int(np.searchsorted(subjects, subject, side="right"))
    objects = table.column("object")[start:stop]
    index = int(np.searchsorted(objects, np.uint32(object_key)))
    return index < objects.size and int(objects[index]) == object_key


__all__ = ["EpochLock", "ShardedStore", "UpdateHook"]
