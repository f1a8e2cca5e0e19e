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
  encoded tables by the home shard of each row's subject.
* :func:`split_pairs` — an update is encoded exactly once too, by the
  single store's ``group_pairs`` against the shared dictionary and the
  union's predicate IRIs; its packed (subject, object) keys are then
  split the same way and applied to each shard with ``apply_pairs``.

The single store's encoder is the only encoder, so the dictionary is
identical by construction. Shard worker processes follow their shard
through the committed, already encoded result of each update (see
:meth:`~repro.storage.vertical.VerticallyPartitionedStore.committed_since`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.storage.dictionary import Dictionary
from repro.storage.relation import Relation
from repro.storage.vertical import SUBJECT, VerticallyPartitionedStore

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


def split_pairs(
    dictionary: Dictionary,
    pairs: Mapping[str, np.ndarray],
    shard_count: int,
) -> list[dict[str, np.ndarray]]:
    """Split an encoded batch's packed (subject, object) keys per table
    by the home shard of each key's subject.

    Each distinct subject of the batch is decoded and hashed once. A
    shard gets only its non-empty tables, in ``pairs``' order.
    """
    parts: list[dict[str, np.ndarray]] = [{} for _ in range(shard_count)]
    if not pairs:
        return parts
    keys = np.concatenate(list(pairs.values()))
    subjects, inverse = np.unique(keys >> np.uint64(32), return_inverse=True)
    homes = (
        subject_hashes(dictionary.decode_many(subjects))
        % np.uint64(shard_count)
    )[inverse]
    start = 0
    for name, table_keys in pairs.items():
        owner = homes[start:start + table_keys.size]
        start += table_keys.size
        for index, part in enumerate(parts):
            mine = table_keys[owner == index]
            if mine.size:
                part[name] = mine
    return parts


__all__ = [
    "Triple",
    "subject_hash",
    "subject_hashes",
    "shard_of",
    "split_by_subject",
    "split_pairs",
]
