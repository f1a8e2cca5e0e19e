"""Subject-hash partitioning with single-store key alignment.

The sharded tier's core invariant is *dictionary identity*: a
:class:`~repro.distributed.store.ShardedStore` must assign exactly the
same term -> key mapping as a single
:class:`~repro.storage.vertical.VerticallyPartitionedStore` fed the same
triple stream and update batches. Canonical result order is defined over
encoded keys, so identical keys are what make sharded execution
row-for-row (and byte-for-byte) identical to single-store execution.

Three pieces enforce it:

* :func:`shard_of` — a stable FNV-1a hash of the *subject string*, so a
  triple's home shard is a pure function of the data (no process state,
  no salt). Every atom group that shares a subject term therefore lands
  wholly on one shard. :func:`subject_hashes` is the same hash over many
  terms at once.
* :func:`split_by_subject` — a load encodes the stream exactly once, by
  ``vertically_partition`` into one store, and then splits that store's
  encoded tables by the home shard of each row's subject. The single
  store's loader is the only encoder, so the dictionary is identical by
  construction.
* :func:`pre_encode_add` — replays the exact encode order of
  ``VerticallyPartitionedStore.add_triples`` against the shared
  dictionary *before* an update batch is split per shard: all
  subjects/objects in stream order, then the first-occurring predicate
  IRI of each genuinely new table. Re-encoding inside the shard stores
  is then a no-op, regardless of routing.

:func:`apply_routed_update` is the worker-side mirror: shard worker
processes replay the *full* batch through the same pre-encode (keeping
replica dictionaries byte-identical with the coordinator) and then apply
only their own slice.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence

import numpy as np

from repro.storage.dictionary import Dictionary
from repro.storage.relation import Relation
from repro.storage.vertical import (
    SUBJECT,
    VerticallyPartitionedStore,
    local_name,
)

Triple = tuple[str, str, str]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def subject_hash(subject: str) -> int:
    """64-bit FNV-1a of the subject's UTF-8 bytes.

    Stable across processes and Python versions (unlike ``hash``, which
    is salted per process) — workers and the coordinator must agree on
    routing without sharing any state beyond the triple itself.
    """
    value = _FNV_OFFSET
    for byte in subject.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _FNV_MASK
    return value


def subject_hashes(terms: Sequence[str]) -> np.ndarray:
    """:func:`subject_hash` of every term, as one ``uint64`` array.

    Bit-for-bit equal to the scalar hash. Terms are visited longest
    first, so the terms still holding a byte at position ``j`` are a
    prefix of that order and each byte position is one vectorized
    xor-multiply over that prefix.
    """
    count = len(terms)
    lengths = np.fromiter(
        (len(term.encode("utf-8")) for term in terms),
        dtype=np.int64,
        count=count,
    )
    blob = np.frombuffer("".join(terms).encode("utf-8"), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    offsets = starts[order]
    longest = int(lengths[order[0]]) if count else 0
    # live[j]: how many terms are longer than j bytes.
    live = np.searchsorted(
        -lengths[order], -np.arange(longest), side="left"
    )
    folded = np.full(count, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for position, size in enumerate(live.tolist()):
        block = folded[:size]
        block ^= blob[offsets[:size] + position]
        block *= prime
    hashes = np.empty(count, dtype=np.uint64)
    hashes[order] = folded
    return hashes


def shard_of(subject: str, shard_count: int) -> int:
    """The home shard for a subject under ``shard_count`` shards."""
    return subject_hash(subject) % shard_count


def route_triples(
    triples: Iterable[Triple], shard_count: int
) -> list[list[Triple]]:
    """Split a triple stream into per-shard buckets by subject hash."""
    buckets: list[list[Triple]] = [[] for _ in range(shard_count)]
    for triple in triples:
        buckets[shard_of(triple[0], shard_count)].append(triple)
    return buckets


def split_by_subject(
    store: VerticallyPartitionedStore, shard_count: int
) -> list[VerticallyPartitionedStore]:
    """Split a loaded store's encoded tables into subject-hash shards.

    Each distinct subject key is hashed once; every table then gives
    shard ``k`` the rows whose subject lives on ``k``. A row subset of a
    sorted-distinct table is sorted-distinct, so shard tables need no
    re-sort. A shard holds only its non-empty tables, in ``store``'s
    table order, with their ``predicate_iris`` entries, and shares
    ``store``'s dictionary (no term is encoded here).
    """
    dictionary = store.dictionary
    is_subject = np.zeros(len(dictionary), dtype=bool)
    for relation in store.tables.values():
        is_subject[relation.column(SUBJECT)] = True
    subject_keys = np.flatnonzero(is_subject)
    home = np.zeros(len(dictionary), dtype=np.uint32)
    home[subject_keys] = subject_hashes(
        dictionary.decode_many(subject_keys)
    ) % np.uint64(shard_count)
    shard_tables: list[dict[str, Relation]] = [
        {} for _ in range(shard_count)
    ]
    for name, relation in store.tables.items():
        owner = home[relation.column(SUBJECT)]
        for index, tables in enumerate(shard_tables):
            part = relation.filter(owner == index)
            if part.num_rows:
                tables[name] = part
    return [
        VerticallyPartitionedStore(
            dictionary=dictionary,
            tables=tables,
            predicate_iris={
                name: store.predicate_iris[name] for name in tables
            },
            num_triples=sum(r.num_rows for r in tables.values()),
        )
        for tables in shard_tables
    ]


def pre_encode_add(
    dictionary: Dictionary,
    triples: Sequence[Triple],
    known_tables: Collection[str],
) -> None:
    """Assign keys for an *update* exactly like ``add_triples``.

    ``known_tables`` must be the set of table names the equivalent
    single store held when the batch was applied (for a sharded store:
    the union across shards, captured before routing). A predicate IRI
    is encoded only when its table is new — an existing table's IRI
    already holds a key, and a *different* IRI colliding on the same
    local name must NOT receive one (the single store never encodes it).
    """
    encode = dictionary.encode
    new_predicates: dict[str, str] = {}
    seen: set[str] = set()
    for subject, predicate, obj in triples:
        encode(subject)
        encode(obj)
        name = local_name(predicate)
        if name not in seen:
            seen.add(name)
            if name not in known_tables:
                new_predicates[name] = predicate
    for iri in new_predicates.values():
        encode(iri)


def apply_routed_update(
    store: VerticallyPartitionedStore,
    shard_index: int,
    shard_count: int,
    add: Sequence[Triple],
    remove: Sequence[Triple],
    known_tables: Collection[str],
) -> tuple[int, int]:
    """Apply one shard's slice of a full cross-shard batch.

    Pre-encodes the *entire* batch (dictionary identity with the
    coordinator and every sibling shard), then applies only the triples
    whose subject hashes to ``shard_index``. Removals need no encoding —
    the single store only looks terms up on that path.
    """
    if add:
        pre_encode_add(store.dictionary, add, known_tables)
    added = removed = 0
    routed_add = [
        triple for triple in add
        if shard_of(triple[0], shard_count) == shard_index
    ]
    routed_remove = [
        triple for triple in remove
        if shard_of(triple[0], shard_count) == shard_index
    ]
    if routed_add:
        added = store.add_triples(routed_add)
    if routed_remove:
        removed = store.remove_triples(routed_remove)
    return added, removed


__all__ = [
    "Triple",
    "subject_hash",
    "subject_hashes",
    "shard_of",
    "route_triples",
    "split_by_subject",
    "pre_encode_add",
    "apply_routed_update",
]
