"""Vertical partitioning of RDF triples (Abadi et al., VLDB '07).

"Vertical partitioning is the process of grouping the triples by their
predicate name, with all triples sharing the same predicate name being
stored under a table denoted by the predicate name" (Section IV-A2).
The paper stores RDF this way for *all* relational engines, including
EmptyHeaded; this module produces those per-predicate two-column tables
from a stream of raw string triples, dictionary-encoding subjects and
objects along the way.

Update path: main + delta with merge-on-read
--------------------------------------------
The store is the system's unit of mutability, and it follows the
classic production-RDF-store recipe (the "differential update" strategy
of the RDF-store survey): each predicate table is an **immutable main
segment** — the sorted, deduplicated relation built at load time or by
the last compaction — plus two small **delta segments**: *inserts*
(pairs added since the main was built) and *tombstones* (main pairs
deleted since). Both deltas are kept as sorted packed ``uint64`` keys
(``subject << 32 | object``), so applying a batch is a handful of
vectorized ``searchsorted`` calls that scale with the **batch**, never
with the store.

* **Merge-on-read** — the public ``tables`` mapping always exposes the
  logical content (``main − tombstones + inserts``), spliced in key
  order, so **every table is sorted-distinct by (subject, object) at
  every epoch**: at load, after any batch, after compaction, and in
  every snapshot. Trie building relies on it — a (subject, object) trie
  over a store table is a linear scan, never a sort — and a table keeps
  its rows sorted in any other order once a trie first needs them
  (:meth:`~repro.storage.relation.Relation.sorted_columns`), so fresh
  engines over one epoch sort each table at most once per order. A
  commit refreshes only the tables its batch touches, each by splicing
  the batch's rows into the previous epoch's relation
  (:func:`patch_relation`), which starts with no sorted copy; the
  mapping itself is *replaced wholesale* on every commit so a
  concurrent reader that grabbed a reference sees one consistent epoch,
  never a half-applied batch.
* **Compaction** — when a table's delta grows past
  ``DeltaConfig.compact_fraction`` of its main segment, the current
  logical relation becomes the main (its packed keys spliced to match)
  and the delta segments empty. Compaction changes the physical layout but
  not the logical content, so it bumps **no** epoch and is invisible to
  every derived cache.
* **Delta log** — every committed batch is appended (bounded) to a log
  of logical :class:`DeltaBatch`\\ es. Engines at epoch ``v`` call
  :meth:`VerticallyPartitionedStore.changes_since` to fetch exactly the
  rows added/removed since ``v`` and patch their indexes incrementally;
  a truncated log or an oversized delta returns ``None``, which is the
  signal to fall back to a wholesale rebuild.
* **One encoder** — updates are :func:`group_pairs` (the only encoder)
  then :meth:`VerticallyPartitionedStore.apply_pairs`; a replica gets
  what the parent committed (``committed_since``) and applies only that.

``data_version`` remains the update epoch: it starts at 0 and is bumped
by every :meth:`add_triples` / :meth:`remove_triples` /
:meth:`apply_pairs` call **that changes logical content** — duplicate
adds and removals of absent triples leave the epoch (and therefore
every derived cache) alone.
Updates replace whole numpy arrays and dicts (never mutate them), so an
execution racing an update sees immutable snapshots.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.sketch import (
    FrequencySketch,
    TableSketches,
    build_table_sketches,
    combine_sketches,
    merge_table_sketches,
)
from repro.errors import StorageError
from repro.nputil import (
    isin_sorted,
    merge_sorted_unique,
    pack_pairs,
    remove_sorted,
    sorted_distinct_rows,
    splice_rows,
    unpack_pairs,
)
from repro.storage.dictionary import Dictionary
from repro.storage.relation import Relation

SUBJECT = "subject"
PREDICATE = "predicate"
OBJECT = "object"

#: Reserved relation name for the three-column union of every predicate
#: table (subject, predicate, object with the predicate's dictionary key
#: bound into each row). Variable-predicate SPARQL patterns translate to
#: atoms over this relation — the classic "union over all predicate
#: tables" escape hatch of vertical partitioning.
TRIPLES_RELATION = "__triples__"

#: The column order the ``__triples__`` view's rows are sorted-distinct
#: in: it concatenates the predicate tables in predicate-key order, and
#: each table is sorted-distinct by (subject, object).
TRIPLES_ORDER = (PREDICATE, SUBJECT, OBJECT)

_LOCAL_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def local_name(predicate_iri: str) -> str:
    """Derive a relation name from a predicate IRI.

    ``http://...#memberOf`` and ``http://.../22-rdf-syntax-ns#type`` map to
    ``memberOf`` and ``type`` — matching the relation names the paper uses
    in its query hypergraphs (e.g. ``type(x, a='GraduateStudent')``).
    """
    iri = predicate_iri.strip()
    if iri.startswith("<") and iri.endswith(">"):
        iri = iri[1:-1]
    for separator in ("#", "/", ":"):
        if separator in iri:
            candidate = iri.rsplit(separator, 1)[1]
            if candidate:
                iri = candidate
                break
    name = _LOCAL_NAME_RE.sub("_", iri)
    return name or "predicate"


@dataclass(frozen=True)
class DeltaConfig:
    """Tuning knobs of the main+delta update machinery."""

    #: Compact a table once its delta rows exceed this fraction of its
    #: main segment (compaction is a logical no-op; no epoch bump).
    compact_fraction: float = 0.25
    #: How many committed batches the delta log retains for
    #: :meth:`VerticallyPartitionedStore.changes_since`.
    log_limit: int = 64


@dataclass(frozen=True)
class DeltaBatch:
    """The logical changes of one epoch bump (what engines patch with).

    ``added``/``removed`` map table names to (subject, object) relations
    holding exactly the pairs the batch inserted/deleted there.
    ``created_tables`` lists predicates that gained their first triple;
    ``dropped_tables`` predicates the batch emptied (their rows appear
    in ``removed`` too). ``compacted_tables`` names tables whose delta
    segments this commit folded into fresh main segments — a physical
    no-op, but the signal engines use to refresh statistics that have
    been drifting as deltas accumulated (plan-caching engines evict
    compiled plans over these tables so the next plan re-reads
    cardinalities).
    """

    version: int
    added: dict[str, Relation]
    removed: dict[str, Relation]
    created_tables: frozenset[str] = frozenset()
    dropped_tables: frozenset[str] = frozenset()
    compacted_tables: frozenset[str] = frozenset()

    @property
    def rows(self) -> int:
        """Total changed rows (the size engines threshold against)."""
        return sum(r.num_rows for r in self.added.values()) + sum(
            r.num_rows for r in self.removed.values()
        )


def coalesce(batches: list[DeltaBatch]) -> DeltaBatch:
    """One batch with the net effect of consecutive committed ``batches``.

    Patching with it walks from the epoch before the first batch to
    the epoch of the last in one step, so a catch-up copies each
    changed array once however many batches it absorbs. A row's adds
    and removes alternate (a commit adds only absent rows and removes
    only present ones), so an odd number of them is one net change in
    the direction of the first and an even number is none; per table
    this is one stable sort of the batches' packed keys. A table is
    created when it is absent before the first batch and present after
    the last, dropped when the reverse holds, and compacted when any
    batch compacted it.
    """
    if len(batches) == 1:
        return batches[0]
    events: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    existed: dict[str, bool] = {}
    exists: dict[str, bool] = {}
    for batch in batches:
        for rows, sign in ((batch.removed, -1), (batch.added, 1)):
            for name, relation in rows.items():
                existed.setdefault(name, name not in batch.created_tables)
                exists[name] = name not in batch.dropped_tables
                keys, signs = events.setdefault(name, ([], []))
                keys.append(
                    pack_pairs(relation.column(SUBJECT), relation.column(OBJECT))
                )
                signs.append(np.full(relation.num_rows, sign, dtype=np.int8))
    added: dict[str, Relation] = {}
    removed: dict[str, Relation] = {}
    for name, (keys, signs) in events.items():
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")
        keys, signs = keys[order], np.concatenate(signs)[order]
        starts = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1]))
        )
        changed = np.diff(starts, append=keys.shape[0]) % 2 == 1
        first = signs[starts]
        for into, sign in ((added, 1), (removed, -1)):
            net = keys[starts[changed & (first == sign)]]
            if net.size:
                into[name] = _pair_relation(name, net)
    return DeltaBatch(
        version=batches[-1].version,
        added=added,
        removed=removed,
        created_tables=frozenset(
            n for n in exists if exists[n] and not existed[n]
        ),
        dropped_tables=frozenset(
            n for n in exists if existed[n] and not exists[n]
        ),
        compacted_tables=frozenset().union(
            *(batch.compacted_tables for batch in batches)
        ),
    )


@dataclass(frozen=True)
class CommittedUpdate:
    """What a write committed, in the form a replica applies: the
    dictionary ``terms`` appended from key ``base_terms`` on, the
    ``batches`` in commit order, and the ``(table, predicate IRI)`` of
    every table they created, in commit order."""

    base_terms: int
    terms: tuple[str, ...]
    batches: tuple[DeltaBatch, ...]
    created_iris: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class StoreSnapshot:
    """A frozen, self-consistent image of one store epoch.

    Everything another process needs to reconstruct an equivalent
    read-only store: the merged logical tables, the dictionary's flat
    blocks (:meth:`Dictionary.export_blocks`), the predicate IRIs, and
    the epoch. Captured under the write lock so every piece belongs to
    the *same* epoch; the segment publisher serializes exactly these
    fields into shared memory.
    """

    tables: dict[str, Relation]
    predicate_iris: dict[str, str]
    dict_offsets: np.ndarray
    dict_blob: bytes
    num_triples: int
    data_version: int
    #: Per-table column frequency sketches of the same epoch (``None``
    #: in snapshots from before the cost model; consumers rebuild).
    sketches: TableSketches | None = None


class _TableSegments:
    """One predicate table's main segment plus packed delta segments.

    ``main`` is immutable and sorted-distinct, so its packed keys are a
    sorted unique ``uint64`` array; ``inserts`` (pairs not in main) and
    ``tombstones`` (a subset of main's keys) are sorted unique packed
    arrays too. Every operation is a vectorized key-set operation.
    """

    __slots__ = ("main", "_main_keys", "inserts", "tombstones")

    def __init__(self, name: str, main: Relation | None) -> None:
        if main is None:
            main = Relation.empty(name, (SUBJECT, OBJECT))
        self.main = main
        self._main_keys: np.ndarray | None = None
        self.inserts = np.empty(0, dtype=np.uint64)
        self.tombstones = np.empty(0, dtype=np.uint64)

    @property
    def main_keys(self) -> np.ndarray:
        """Sorted unique packed keys of the main segment, built lazily.

        A sorted-distinct main (every main this module builds) costs one
        pack and one check; the kernel still sorts and dedups any other
        table, so the sorted-unique key invariant every set op relies on
        always holds. Laziness matters for read-only consumers —
        shared-memory worker processes adopt whole epochs of tables and
        never mutate them, so they must not pay an O(main) pack per
        table on attach.
        """
        if self._main_keys is None:
            (self._main_keys,) = sorted_distinct_rows(
                [pack_pairs(self.main.column(SUBJECT), self.main.column(OBJECT))]
            )
        return self._main_keys

    @main_keys.setter
    def main_keys(self, keys: np.ndarray) -> None:
        self._main_keys = keys

    @property
    def delta_rows(self) -> int:
        return int(self.inserts.size + self.tombstones.size)

    @property
    def live_rows(self) -> int:
        return int(
            self.main_keys.size - self.tombstones.size + self.inserts.size
        )

    def add(self, keys: np.ndarray) -> np.ndarray:
        """Insert packed pair keys; returns the keys actually new.

        Keys currently tombstoned are revived (their tombstone drops);
        keys already live are ignored; the rest join ``inserts``.
        """
        (keys,) = sorted_distinct_rows([keys])
        revived = keys[isin_sorted(keys, self.tombstones)]
        in_main = isin_sorted(keys, self.main_keys)
        fresh = keys[~in_main & ~isin_sorted(keys, self.inserts)]
        if revived.size:
            self.tombstones = remove_sorted(self.tombstones, revived)
        if fresh.size:
            self.inserts = merge_sorted_unique(self.inserts, fresh)
        if revived.size and fresh.size:
            return np.sort(np.concatenate([revived, fresh]))
        return revived if revived.size else fresh

    def remove(self, keys: np.ndarray) -> np.ndarray:
        """Delete packed pair keys; returns the keys actually removed."""
        (keys,) = sorted_distinct_rows([keys])
        from_inserts = keys[isin_sorted(keys, self.inserts)]
        in_main = isin_sorted(keys, self.main_keys)
        doomed = keys[in_main & ~isin_sorted(keys, self.tombstones)]
        if from_inserts.size:
            self.inserts = remove_sorted(self.inserts, from_inserts)
        if doomed.size:
            self.tombstones = merge_sorted_unique(self.tombstones, doomed)
        if from_inserts.size and doomed.size:
            return np.sort(np.concatenate([from_inserts, doomed]))
        return from_inserts if from_inserts.size else doomed

    def compact(self, table: Relation) -> None:
        """Fold the delta into the main segment (a logical no-op):
        ``table`` is the logical relation of the current epoch, and the
        main keys are spliced to match it."""
        keys = remove_sorted(self.main_keys, self.tombstones)
        self.main_keys = merge_sorted_unique(keys, self.inserts)
        self.main = table
        self.inserts = np.empty(0, dtype=np.uint64)
        self.tombstones = np.empty(0, dtype=np.uint64)


def _pair_relation(name: str, keys: np.ndarray) -> Relation:
    subjects, objects = unpack_pairs(keys)
    return Relation(name, (SUBJECT, OBJECT), (subjects, objects))


def patch_relation(
    old: Relation, added: Relation | None, removed: Relation | None
) -> Relation:
    """``(old − removed) ∪ added`` for a stored relation; the result
    stays sorted-distinct in the same column order — the attribute
    order of a predicate table, :data:`TRIPLES_ORDER` for the
    ``__triples__`` view.

    One :func:`~repro.nputil.splice_rows` from the delta rows alone: the
    rows are searched in ``old``'s sorted columns and each changed
    column is spliced once. Shared by the store's per-commit table and
    view refresh and by ``Catalog.apply_delta``.
    """
    order = TRIPLES_ORDER if old.name == TRIPLES_RELATION else old.attributes

    def ordered(relation: Relation | None) -> list[np.ndarray] | None:
        if relation is None or not relation.num_rows:
            return None
        return [relation.column(attribute) for attribute in order]

    columns = dict(
        zip(
            order,
            splice_rows(
                [old.column(attribute) for attribute in order],
                ordered(added),
                ordered(removed),
            ),
        )
    )
    return Relation(
        old.name, old.attributes, [columns[a] for a in old.attributes]
    )


def build_triples_view(
    tables: "dict[str, Relation]", predicate_key
) -> Relation:
    """Union two-column predicate ``tables`` into a ``__triples__``
    relation, binding ``predicate_key(name)`` into each row.

    Tables are concatenated in predicate-key order, so the view is
    sorted-distinct in :data:`TRIPLES_ORDER` and patches by
    :func:`patch_relation`. Shared by the store's cached view and by
    engines that must build the view from *their own snapshot* of the
    tables (an engine mixing the store's current view with older
    per-predicate structures would serve a torn, mixed-epoch join)."""
    subjects: list[np.ndarray] = []
    predicates: list[np.ndarray] = []
    objects: list[np.ndarray] = []
    keyed = sorted((predicate_key(name), name) for name in tables)
    for key, name in keyed:
        relation = tables[name]
        subjects.append(relation.column(SUBJECT))
        predicates.append(
            np.full(relation.num_rows, key, dtype=np.uint32)
        )
        objects.append(relation.column(OBJECT))
    empty = np.empty(0, dtype=np.uint32)
    return Relation(
        TRIPLES_RELATION,
        (SUBJECT, PREDICATE, OBJECT),
        (
            np.concatenate(subjects) if subjects else empty,
            np.concatenate(predicates) if predicates else empty,
            np.concatenate(objects) if objects else empty,
        ),
    )


def triples_sketches(
    sketches: TableSketches,
    row_counts: "dict[str, int]",
    predicate_key,
) -> dict[str, FrequencySketch]:
    """Column sketches of the ``__triples__`` view, derived from the
    per-table sketches (no scan of the view itself).

    The view is the disjoint union of the predicate tables, so its
    subject/object histograms are the sums of the per-table histograms
    and its predicate histogram has one entry per table — the
    predicate's dictionary key with the table's row count.
    """
    names = sorted(sketches)
    predicate_values = []
    predicate_counts = []
    for name in names:
        rows = row_counts.get(name, 0)
        if rows:
            predicate_values.append(predicate_key(name))
            predicate_counts.append(rows)
    order = np.argsort(np.asarray(predicate_values, dtype=np.uint32))
    return {
        SUBJECT: combine_sketches(
            [sketches[name][SUBJECT] for name in names]
        ),
        PREDICATE: FrequencySketch(
            np.asarray(predicate_values, dtype=np.uint32)[order],
            np.asarray(predicate_counts, dtype=np.int64)[order],
        ),
        OBJECT: combine_sketches(
            [sketches[name][OBJECT] for name in names]
        ),
    }


def triples_view_delta(
    rows_by_table: "dict[str, Relation]", predicate_key
) -> Relation | None:
    """The three-column ``__triples__`` rows of one batch's per-table
    delta rows, the predicate's dictionary key bound into each row.

    ``None`` when the batch touches nothing. Shared by the store's view
    patching and by engines that keep the union view registered in
    their catalogs: the view (and any trie built over it) is patched
    from exactly these rows instead of being dropped and rebuilt
    O(store), so hot variable-predicate queries survive small updates.
    """
    tables = {
        name: rows
        for name, rows in rows_by_table.items()
        if rows.num_rows
    }
    if not tables:
        return None
    return build_triples_view(tables, predicate_key)


def sketches_apply_delta(
    sketches: TableSketches,
    added: "dict[str, Relation]",
    removed: "dict[str, Relation]",
    dropped: Iterable[str] = (),
) -> TableSketches:
    """A sketch registry patched by one batch's delta rows alone.

    The engine-side twin of the store's internal maintenance: applying
    committed batches one by one walks the same epochs the store walked,
    and because merging is exact the result is byte-identical to the
    store's registry at the same epoch (the cluster tier's replay
    catch-up depends on this). Tables the batch emptied drop out;
    created tables sketch up from their first rows.
    """
    out = dict(sketches)
    dropped = set(dropped)
    for name in dropped:
        out.pop(name, None)
    for name in (set(added) | set(removed)) - dropped:
        if name == TRIPLES_RELATION and name not in out:
            # The union view's sketches are *derived*; a batch's view
            # rows can only patch an existing entry, never seed one.
            continue
        added_rel = added.get(name)
        removed_rel = removed.get(name)
        sample = added_rel if added_rel is not None else removed_rel
        if sample is None:
            continue
        attributes = list(sample.attributes)
        merged = merge_table_sketches(
            out.get(name, {}),
            attributes,
            None
            if added_rel is None
            else [added_rel.column(a) for a in attributes],
            None
            if removed_rel is None
            else [removed_rel.column(a) for a in attributes],
        )
        if all(sketch.total == 0 for sketch in merged.values()):
            out.pop(name, None)
        else:
            out[name] = merged
    return out


def catalog_view_delta(
    catalog, batch: DeltaBatch, predicate_key
) -> tuple[dict[str, Relation], dict[str, Relation], set[str]]:
    """The ``(added, removed, dropped)`` a catalog-backed engine passes
    to ``Catalog.apply_delta`` so a registered ``__triples__`` view is
    *patched* (relation and cached tries spliced) instead of dropped.

    When the view is not registered in ``catalog`` it is added to
    ``dropped`` instead: a concurrent query may register the pre-update
    view between the membership check and the catalog copy, and
    dropping such a registration is always safe (absent names are
    tolerated; the next variable-predicate query rebuilds lazily).
    """
    added: dict[str, Relation] = batch.added
    removed: dict[str, Relation] = batch.removed
    dropped = set(batch.dropped_tables)
    if TRIPLES_RELATION in catalog:
        added_view = triples_view_delta(batch.added, predicate_key)
        removed_view = triples_view_delta(batch.removed, predicate_key)
        if added_view is not None:
            added = {**added, TRIPLES_RELATION: added_view}
        if removed_view is not None:
            removed = {**removed, TRIPLES_RELATION: removed_view}
    else:
        dropped.add(TRIPLES_RELATION)
    return added, removed, dropped


def group_pairs(
    dictionary: Dictionary,
    triples: Iterable[tuple[str, str, str]],
    predicate_iris: Mapping[str, str],
    *,
    encode: bool,
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Encode a batch into packed (subject, object) keys per table.

    The one encoder of loads and updates. Subjects and objects are
    keyed in stream order, then the IRI of each table name
    ``predicate_iris`` does not bind yet, in first-appearance order. A
    bound name keeps its IRI: another IRI with the same local name is
    neither keyed nor recorded. Returns the keys per table and the IRIs
    of the newly named tables.

    With ``encode=False`` (removal) terms are only looked up: a triple
    with an unseen term is skipped — it cannot be stored under any key.
    """
    grouped: dict[str, tuple[list[int], list[int]]] = {}
    new_iris: dict[str, str] = {}
    names: dict[str, str] = {}
    key_of = dictionary.encode if encode else dictionary.lookup
    for subject, predicate, obj in triples:
        s_key = key_of(subject)
        o_key = key_of(obj)
        if s_key is None or o_key is None:
            continue
        name = names.get(predicate)
        if name is None:
            name = names[predicate] = local_name(predicate)
        bucket = grouped.get(name)
        if bucket is None:
            bucket = grouped[name] = ([], [])
            if encode and name not in predicate_iris:
                new_iris[name] = predicate
        bucket[0].append(s_key)
        bucket[1].append(o_key)
    for iri in new_iris.values():
        dictionary.encode(iri)
    pairs = {
        name: pack_pairs(
            np.asarray(subjects, dtype=np.uint32),
            np.asarray(objects, dtype=np.uint32),
        )
        for name, (subjects, objects) in grouped.items()
    }
    return pairs, new_iris


@dataclass
class VerticallyPartitionedStore:
    """A dictionary-encoded, vertically partitioned triple store.

    ``data_version`` is the update epoch: it starts at 0 and is bumped
    by every content-changing commit (:meth:`apply_pairs`, which
    :meth:`add_triples` and :meth:`remove_triples` end in). Derived
    caches (engine indexes, plan caches, the serving layer) compare it
    against the epoch they were built at and either patch themselves
    from :meth:`changes_since` or rebuild on mismatch.
    """

    dictionary: Dictionary = field(default_factory=Dictionary)
    tables: dict[str, Relation] = field(default_factory=dict)
    predicate_iris: dict[str, str] = field(default_factory=dict)
    num_triples: int = 0
    data_version: int = 0
    delta_config: DeltaConfig = field(default_factory=DeltaConfig)
    compactions: int = 0
    _triples_view: Relation | None = field(default=None, repr=False)
    _sketches: TableSketches | None = field(default=None, repr=False)
    _segments: dict[str, _TableSegments] = field(
        default_factory=dict, repr=False
    )
    _delta_log: list[DeltaBatch] = field(default_factory=list, repr=False)
    _write_lock: threading.RLock = field(
        # A lambda (not a bound ``threading.RLock``) so lock creation
        # resolves at call time and honors test-suite instrumentation
        # that monkeypatches the threading factories.
        default_factory=lambda: threading.RLock(),
        repr=False,
        compare=False,
    )

    def __post_init__(self) -> None:
        # Adopt initially supplied tables as main segments (the load
        # path constructs the store with fully compacted tables).
        for name, relation in self.tables.items():
            if name not in self._segments:
                self._segments[name] = _TableSegments(name, relation)

    def relation_for_predicate(self, predicate_iri: str) -> Relation | None:
        """The table for a predicate IRI, or ``None`` if never seen."""
        return self.tables.get(local_name(predicate_iri))

    def relations(self) -> list[Relation]:
        return list(self.tables.values())

    def predicate_key(self, name: str) -> int:
        """The dictionary key of a predicate table's IRI."""
        return self.dictionary.require(self.predicate_iris[name])

    def triples_relation(self) -> Relation:
        """The ``__triples__`` view: all predicate tables unioned into one
        three-column relation, the predicate dictionary key bound into
        each row. Built lazily, cached, shared by every engine over this
        store (variable-predicate patterns resolve against it); once
        built it is *patched* per update batch (cost scales with the
        batch), never dropped and rebuilt. Built under the write lock so
        an interleaved update can neither tear the snapshot nor be
        overwritten by a stale build."""
        with self._write_lock:
            if self._triples_view is None:
                self._triples_view = build_triples_view(
                    self.tables, self.predicate_key
                )
            return self._triples_view

    def table_names(self) -> set[str]:
        """Names an atom may resolve against (incl. the triples view)."""
        names = set(self.tables)
        if names:
            names.add(TRIPLES_RELATION)
        return names

    def column_sketches(self) -> TableSketches:
        """Per-table column frequency sketches of the current epoch.

        Built lazily by one full scan of the merged tables; afterwards
        every committed batch *merges* its delta rows into the touched
        tables' sketches (cost scales with the batch; compaction, a
        logical no-op, leaves them alone). The returned dict is
        immutable by convention and replaced wholesale per commit, so a
        reader holding a reference keeps one consistent epoch.
        """
        with self._write_lock:
            if self._sketches is None:
                self._sketches = {
                    name: build_table_sketches(
                        list(relation.attributes), list(relation.columns)
                    )
                    for name, relation in self.tables.items()
                }
            return self._sketches

    # ------------------------------------------------------------------
    # Updates (the data-version epoch)
    # ------------------------------------------------------------------
    def _commit_update(
        self,
        added: dict[str, Relation],
        removed: dict[str, Relation],
        created: set[str],
        dropped: set[str],
    ) -> None:
        """Splice the touched tables, compact, bump the epoch, log the
        batch.

        Each touched table is the previous epoch's relation patched by
        the batch's rows (:func:`patch_relation`), so a refresh costs
        in proportion to the batch plus one copy per changed column.
        The ``tables`` dict is replaced wholesale (never mutated) so a
        reader holding a reference sees one consistent epoch.
        """
        tables = dict(self.tables)
        compacted: set[str] = set()
        for name in set(added) | set(removed):
            segments = self._segments.get(name)
            if segments is None:
                continue
            if segments.live_rows == 0:
                del self._segments[name]
                tables.pop(name, None)
                continue
            previous = tables.get(name)
            table = patch_relation(
                previous
                if previous is not None
                else Relation.empty(name, (SUBJECT, OBJECT)),
                added.get(name),
                removed.get(name),
            )
            if segments.delta_rows > (
                self.delta_config.compact_fraction * segments.main_keys.size
            ):
                segments.compact(table)
                self.compactions += 1
                compacted.add(name)
            tables[name] = table
        self.tables = tables
        self._patch_sketches(added, removed, dropped)
        self._patch_triples_view(added, removed)
        self.num_triples = sum(r.num_rows for r in tables.values())
        self.data_version += 1
        self._delta_log.append(
            DeltaBatch(
                version=self.data_version,
                added=added,
                removed=removed,
                created_tables=frozenset(created),
                dropped_tables=frozenset(dropped),
                compacted_tables=frozenset(compacted),
            )
        )
        if len(self._delta_log) > self.delta_config.log_limit:
            del self._delta_log[: -self.delta_config.log_limit]

    def _patch_sketches(
        self,
        added: dict[str, Relation],
        removed: dict[str, Relation],
        dropped: set[str],
    ) -> None:
        """Maintain the sketch registry through one committed batch.

        Never-built sketches stay unbuilt (only planners pay for them).
        Otherwise the registry is patched exactly as engines patch
        theirs (:func:`sketches_apply_delta`): touched tables merge the
        batch's delta rows, tables the batch emptied drop out, and the
        dict is replaced wholesale. Compaction needs no rebuild — the
        merge is exact.
        """
        if self._sketches is None:
            return
        self._sketches = sketches_apply_delta(
            self._sketches, added, removed, dropped
        )

    def _patch_triples_view(
        self,
        added: dict[str, Relation],
        removed: dict[str, Relation],
    ) -> None:
        """Patch the cached ``__triples__`` view with one batch's rows.

        The view used to be dropped and lazily rebuilt O(store) on every
        epoch; patching it from the delta keeps hot variable-predicate
        traffic warm across small updates. A view that was never built
        stays unbuilt — only variable-predicate queries ever pay for it.
        """
        view = self._triples_view
        if view is None:
            return
        self._triples_view = patch_relation(
            view,
            triples_view_delta(added, self.predicate_key),
            triples_view_delta(removed, self.predicate_key),
        )

    def add_triples(self, triples: Iterable[tuple[str, str, str]]) -> int:
        """Insert string triples; returns the number of *new* triples.

        New predicates create new tables; duplicates of stored triples
        are ignored (RDF graphs are sets). A batch that changes nothing
        leaves ``data_version`` alone — no derived cache rebuilds for
        unchanged data. Otherwise the pairs land in the per-table insert
        deltas (cost scales with the batch), the epoch bumps, and the
        batch is appended to the delta log.
        """
        with self._write_lock:
            pairs, new_iris = group_pairs(
                self.dictionary, triples, self.predicate_iris, encode=True
            )
            return self.apply_pairs(pairs, {}, new_iris)[0]

    def remove_triples(self, triples: Iterable[tuple[str, str, str]]) -> int:
        """Delete string triples; returns the number actually removed.

        Triples that are not stored (including ones whose terms were
        never seen) are ignored — a batch removing nothing leaves
        ``data_version`` alone. Deletions of main-segment pairs become
        tombstones (cost scales with the batch); a table left logically
        empty is dropped, so patterns over its predicate match nothing
        afterwards.
        """
        with self._write_lock:
            pairs, _ = group_pairs(
                self.dictionary, triples, self.predicate_iris, encode=False
            )
            return self.apply_pairs({}, pairs, {})[1]

    def apply_pairs(
        self,
        added: Mapping[str, np.ndarray],
        removed: Mapping[str, np.ndarray],
        iris: Mapping[str, str],
    ) -> tuple[int, int]:
        """Apply non-empty packed (subject, object) keys per table as
        one commit, removals first; encodes nothing.

        A table ``added`` creates records its IRI from ``iris`` unless
        its name is already bound. Returns the (added, removed) row
        counts; a batch that changes nothing commits nothing.
        """
        with self._write_lock:
            removed_rows: dict[str, Relation] = {}
            for name, keys in removed.items():
                segments = self._segments.get(name)
                if segments is None:
                    continue
                doomed = segments.remove(keys)
                if doomed.size:
                    removed_rows[name] = _pair_relation(name, doomed)
            added_rows: dict[str, Relation] = {}
            created: set[str] = set()
            for name, keys in added.items():
                segments = self._segments.get(name)
                if segments is None:
                    segments = _TableSegments(name, None)
                    self._segments[name] = segments
                    created.add(name)
                    if name not in self.predicate_iris:
                        self.predicate_iris[name] = iris[name]
                fresh = segments.add(keys)
                if fresh.size:
                    added_rows[name] = _pair_relation(name, fresh)
            dropped = {
                name
                for name in removed_rows
                if self._segments[name].live_rows == 0
            }
            if added_rows or removed_rows:
                self._commit_update(added_rows, removed_rows, created, dropped)
            return (
                sum(r.num_rows for r in added_rows.values()),
                sum(r.num_rows for r in removed_rows.values()),
            )

    def committed_since(
        self, version: int, base_terms: int
    ) -> CommittedUpdate:
        """The commits after ``version``, with the dictionary terms
        appended after key ``base_terms`` (the size at ``version``)."""
        with self._write_lock:
            batches = self.changes_since(version)
            if batches is None:
                raise StorageError(
                    f"the delta log no longer reaches version {version}"
                )
            return CommittedUpdate(
                base_terms=base_terms,
                terms=tuple(
                    self.dictionary.decode_many(
                        range(base_terms, len(self.dictionary))
                    )
                ),
                batches=tuple(batches),
                created_iris=tuple(
                    (name, self.predicate_iris[name])
                    for batch in batches
                    for name in batch.added
                    if name in batch.created_tables
                ),
            )

    # ------------------------------------------------------------------
    # Delta introspection (engines and benchmarks)
    # ------------------------------------------------------------------
    def changes_since(
        self, version: int, max_rows: int | None = None
    ) -> list[DeltaBatch] | None:
        """The logical batches committed after ``version``, oldest first.

        Returns ``[]`` when ``version`` is current, and ``None`` when
        incremental catch-up is not possible — the log no longer reaches
        back to ``version``, or the combined batches exceed ``max_rows``
        (the caller's rebuild-is-cheaper threshold).
        """
        with self._write_lock:
            if version == self.data_version:
                return []
            if version > self.data_version:
                return None
            batches = [b for b in self._delta_log if b.version > version]
            if len(batches) != self.data_version - version:
                return None  # the log was truncated past `version`
            if max_rows is not None:
                if sum(b.rows for b in batches) > max_rows:
                    return None
            return batches

    def delta_stats(self) -> dict[str, object]:
        """Delta-segment sizes per table plus compaction counters."""
        with self._write_lock:
            return {
                "compactions": self.compactions,
                "log_length": len(self._delta_log),
                "tables": {
                    name: {
                        "main_rows": int(segments.main.num_rows),
                        "insert_rows": int(segments.inserts.size),
                        "tombstone_rows": int(segments.tombstones.size),
                    }
                    for name, segments in sorted(self._segments.items())
                },
            }

    def compact(self) -> int:
        """Force-compact every table; returns tables compacted.

        A logical no-op: content, ``data_version``, and every derived
        cache stay valid.
        """
        with self._write_lock:
            count = 0
            for name, segments in self._segments.items():
                if segments.delta_rows:
                    segments.compact(self.tables[name])
                    self.compactions += 1
                    count += 1
            return count

    # ------------------------------------------------------------------
    # Snapshots (the multi-process serving tier's unit of publication)
    # ------------------------------------------------------------------
    def export_snapshot(self) -> StoreSnapshot:
        """Capture the current epoch as a :class:`StoreSnapshot`.

        Taken under the write lock so the tables, dictionary blocks,
        and epoch are mutually consistent. The table relations are the
        live immutable objects (no copy); the dictionary is flattened
        into offset/blob blocks.
        """
        with self._write_lock:
            offsets, blob = self.dictionary.export_blocks()
            return StoreSnapshot(
                tables=dict(self.tables),
                predicate_iris=dict(self.predicate_iris),
                dict_offsets=offsets,
                dict_blob=blob,
                num_triples=self.num_triples,
                data_version=self.data_version,
                sketches=self.column_sketches(),
            )

    @classmethod
    def from_snapshot(
        cls, snapshot: StoreSnapshot
    ) -> "VerticallyPartitionedStore":
        """Reconstruct a store from a :class:`StoreSnapshot`.

        Zero-copy with respect to the snapshot's column buffers: the
        adopted relations keep whatever arrays they arrived with (e.g.
        read-only shared-memory views), and the per-table packed-key
        caches are built lazily, so attaching costs O(dictionary) string
        decoding, not O(store). The result is a fully functional store —
        updates applied to it copy-on-write as usual and never touch the
        attached buffers.
        """
        return cls(
            dictionary=Dictionary.from_blocks(
                snapshot.dict_offsets, snapshot.dict_blob
            ),
            tables=dict(snapshot.tables),
            predicate_iris=dict(snapshot.predicate_iris),
            num_triples=snapshot.num_triples,
            data_version=snapshot.data_version,
            _sketches=(
                None
                if snapshot.sketches is None
                else dict(snapshot.sketches)
            ),
        )


def vertically_partition(
    triples: Iterable[tuple[str, str, str]],
    dictionary: Dictionary | None = None,
) -> VerticallyPartitionedStore:
    """Group string triples into per-predicate encoded tables.

    ``triples`` yields (subject, predicate, object) strings, encoded by
    :func:`group_pairs` like any update batch: subjects and objects in
    stream order, then each table's (first-seen) predicate IRI, so
    variable-predicate rows can bind the predicate's dictionary value.
    Tables are deduplicated (RDF graphs are sets of triples).
    """
    dictionary = dictionary if dictionary is not None else Dictionary()
    pairs, predicate_iris = group_pairs(dictionary, triples, {}, encode=True)
    tables = {
        name: _pair_relation(name, sorted_distinct_rows([keys])[0])
        for name, keys in pairs.items()
    }
    return VerticallyPartitionedStore(
        dictionary=dictionary,
        tables=tables,
        predicate_iris=predicate_iris,
        # Stored (deduplicated) rows, as every commit recounts them.
        num_triples=sum(r.num_rows for r in tables.values()),
    )
