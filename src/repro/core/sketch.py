"""Per-column value-frequency sketches (the skew statistics layer).

Distinct counts alone are wrong under skew (a celebrity value binds
100k rows, the median value 5), so the store maintains a
:class:`FrequencySketch` per stored column: the exact value→count
histogram, exposed as the usual "top-k hot values + residual
distinct/total" summary. Keeping the histogram exact (it is two sorted
arrays no larger than the column it summarizes) is what lets delta
batches *merge* into it — add counts for inserted rows, subtract for
tombstoned ones — with the invariant that incremental maintenance is
byte-identical to a from-scratch rebuild, which the cluster tier relies
on so replicated workers plan identically after replay catch-up. A
merge is a sorted splice (:func:`~repro.nputil.splice`) costing
O(k log d) for a k-row batch over d distinct values, plus one copy of
each array it changes: a batch that only moves the counts of present
values shares ``values`` and copies ``counts``. Only the batch is
sorted, so a commit, an engine catch-up and a worker replay all pay in
proportion to the batch, not the column.

This module depends only on numpy and :mod:`repro.nputil`: it sits
below the storage layer, which feeds sketches upward to planners and
ships them across the shared-memory segment.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.nputil import splice

#: Hot values reported by :meth:`FrequencySketch.top` by default.
DEFAULT_TOP_K = 8

_SKETCH_MAGIC = b"FSK1"


class FrequencySketch:
    """Exact per-column value-frequency histogram.

    Immutable: ``merge`` returns a new sketch and never writes into
    ``values``/``counts`` (workers hold them as read-only shared-memory
    views). ``values`` is sorted
    ascending and unique; ``counts`` is aligned and strictly positive,
    so two sketches over the same logical column are equal element-wise
    and serialize to identical bytes regardless of the insert/delete
    history that produced them.
    """

    __slots__ = ("values", "counts", "_total")

    def __init__(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        *,
        total: int | None = None,
    ) -> None:
        self.values = np.ascontiguousarray(values, dtype=np.uint32)
        self.counts = np.ascontiguousarray(counts, dtype=np.int64)
        if total is None:
            total = int(self.counts.sum()) if self.counts.size else 0
        self._total = total

    # -- construction ---------------------------------------------------
    @classmethod
    def from_column(cls, column: np.ndarray) -> "FrequencySketch":
        """Build from a raw (unsorted, duplicated) encoded column."""
        if column.size == 0:
            return cls(np.empty(0, np.uint32), np.empty(0, np.int64))
        values, counts = np.unique(
            np.asarray(column, dtype=np.uint32), return_counts=True
        )
        return cls(values, counts.astype(np.int64))

    @classmethod
    def empty(cls) -> "FrequencySketch":
        return cls(np.empty(0, np.uint32), np.empty(0, np.int64))

    # -- summary --------------------------------------------------------
    @property
    def distinct(self) -> int:
        return int(self.values.size)

    @property
    def total(self) -> int:
        return self._total

    @property
    def max_count(self) -> int:
        """Largest per-value frequency (the skew ceiling a single bound
        co-value can fan out to)."""
        return int(self.counts.max()) if self.counts.size else 0

    def count(self, value: int) -> int:
        """Exact frequency of ``value`` (0 when absent)."""
        index = int(np.searchsorted(self.values, np.uint32(value)))
        if index < self.values.size and int(self.values[index]) == int(
            value
        ):
            return int(self.counts[index])
        return 0

    def top(self, k: int = DEFAULT_TOP_K) -> list[tuple[int, int]]:
        """The ``k`` hottest ``(value, count)`` pairs, hottest first;
        ties break toward the smaller value so the report is stable."""
        if not self.counts.size or k <= 0:
            return []
        k = min(k, self.counts.size)
        # lexsort keys: last key is primary → (-count, value).
        order = np.lexsort((self.values, -self.counts))[:k]
        return [
            (int(self.values[i]), int(self.counts[i])) for i in order
        ]

    def residual(self, k: int = DEFAULT_TOP_K) -> tuple[int, int]:
        """``(distinct, total)`` of everything *outside* the top ``k``."""
        hot = self.top(k)
        return self.distinct - len(hot), self.total - sum(
            count for _, count in hot
        )

    # -- maintenance ----------------------------------------------------
    def merge(
        self,
        added: np.ndarray | None,
        removed: np.ndarray | None,
    ) -> "FrequencySketch":
        """This sketch plus one delta batch's column slices.

        ``added``/``removed`` are the raw (duplicated) column values of
        the batch's inserted and tombstoned rows. A sorted splice: the
        batch's distinct values and signed net counts are found alone
        and ``searchsorted`` into ``values``. When no value appears or
        vanishes, ``values`` is shared and ``counts`` copied once with
        the final counts written in; otherwise ``values`` and
        ``counts`` are each spliced once (:func:`~repro.nputil.splice`)
        — the batch's present values dropped and those that keep a
        positive count inserted back. Cost O(k log d) plus one copy per
        changed array for a batch of k rows over d distinct values; no
        sort or hash touches the existing values, neither input array
        is written, and ``total`` moves by the applied counts. A removal
        of an absent value is dropped, never stored negative, so the
        canonical form holds.
        """
        n_added = 0 if added is None else int(added.size)
        n_removed = 0 if removed is None else int(removed.size)
        if n_added == 0 and n_removed == 0:
            return self
        # The batch's distinct values and signed net counts: one sort
        # of the batch, summed over runs of equal values.
        raw = np.concatenate(
            [
                np.asarray(column, dtype=np.uint32)
                for column in (added, removed)
                if column is not None
            ]
        )
        order = np.argsort(raw, kind="stable")
        raw = raw[order]
        starts = np.concatenate(([True], raw[1:] != raw[:-1])).nonzero()[0]
        batch = raw[starts]
        net = np.add.reduceat(np.where(order < n_added, 1, -1), starts)
        at = self.values.searchsorted(batch)
        hit = at < self.values.size
        hit[hit] = self.values[at[hit]] == batch[hit]
        current = np.zeros(batch.size, dtype=np.int64)
        current[hit] = self.counts[at[hit]]
        final = np.maximum(current + net, 0)
        total = self._total + int((final - current).sum())
        stays = final > 0
        if (hit == stays).all():
            # No value appears or vanishes: share ``values``.
            counts = self.counts.copy()
            counts[at[hit]] = final[hit]
            return FrequencySketch(self.values, counts, total=total)
        # Every batch value present is dropped and every one that stays
        # is inserted back with its final count: one splice per array.
        drop, keep_at = at[hit], at[stays]
        return FrequencySketch(
            splice(self.values, drop, keep_at, batch[stays]),
            splice(self.counts, drop, keep_at, final[stays]),
            total=total,
        )

    # -- serialization --------------------------------------------------
    def to_bytes(self) -> bytes:
        """Deterministic wire form (canonical histogram → canonical
        bytes; used to assert cluster workers hold identical stats)."""
        return (
            _SKETCH_MAGIC
            + struct.pack("<Q", self.values.size)
            + self.values.astype("<u4").tobytes()
            + self.counts.astype("<i8").tobytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "FrequencySketch":
        if data[: len(_SKETCH_MAGIC)] != _SKETCH_MAGIC:
            raise ValueError("not a serialized FrequencySketch")
        offset = len(_SKETCH_MAGIC)
        (size,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        values = np.frombuffer(data, dtype="<u4", count=size, offset=offset)
        offset += 4 * size
        counts = np.frombuffer(data, dtype="<i8", count=size, offset=offset)
        return cls(values, counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencySketch):
            return NotImplemented
        return bool(
            np.array_equal(self.values, other.values)
            and np.array_equal(self.counts, other.counts)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrequencySketch(distinct={self.distinct}, "
            f"total={self.total}, max={self.max_count})"
        )


#: Per-table, per-column sketches: ``{table: {attribute: sketch}}``.
TableSketches = dict[str, dict[str, FrequencySketch]]


def build_table_sketches(
    attributes: list[str], columns: list[np.ndarray]
) -> dict[str, FrequencySketch]:
    """Sketches for one table's columns, keyed by attribute name."""
    return {
        attribute: FrequencySketch.from_column(column)
        for attribute, column in zip(attributes, columns)
    }


def merge_table_sketches(
    sketches: dict[str, FrequencySketch],
    attributes: list[str],
    added: list[np.ndarray] | None,
    removed: list[np.ndarray] | None,
) -> dict[str, FrequencySketch]:
    """One table's sketches after a delta batch (column-aligned)."""
    merged: dict[str, FrequencySketch] = {}
    for index, attribute in enumerate(attributes):
        sketch = sketches.get(attribute)
        if sketch is None:
            sketch = FrequencySketch.empty()
        merged[attribute] = sketch.merge(
            added[index] if added is not None else None,
            removed[index] if removed is not None else None,
        )
    return merged


def combine_sketches(
    sketches: list[FrequencySketch],
) -> FrequencySketch:
    """The histogram of the disjoint union of the sketched columns
    (e.g. the ``__triples__`` view's subject column is the union of
    every predicate table's subject column)."""
    result = FrequencySketch.empty()
    for sketch in sketches:
        if sketch.values.size:
            result = _add(result, sketch)
    return result


def _add(
    left: FrequencySketch, right: FrequencySketch
) -> FrequencySketch:
    universe = np.unique(np.concatenate([left.values, right.values]))
    counts = np.zeros(universe.size, dtype=np.int64)
    counts[np.searchsorted(universe, left.values)] += left.counts
    counts[np.searchsorted(universe, right.values)] += right.counts
    return FrequencySketch(universe, counts)
