"""CSR-style trie with per-set layout decisions.

The trie groups a relation's (sorted, deduplicated) tuples into nested
sets of distinct values, one level per attribute (Figure 1 of the paper).
Each node's child set is handed to the set-layout optimizer, which picks
either the sorted ``uint32`` array or the bitset layout (Section II-A2).

Physical representation (per level ``i``, zero-based):

* ``values[i]`` — concatenation of the distinct attribute-``i`` values of
  every level-``i`` node, in parent-then-value order;
* ``offsets[i]`` — CSR offsets of length ``len(values[i]) + 1`` mapping a
  node at level ``i`` to its child range within ``values[i + 1]``.

A *node* at depth ``d`` (``d`` = number of bound attributes) is addressed
by its index into ``values[d - 1]``; the root is depth 0. Set objects are
built lazily per node and cached, so repeated probes of hot prefixes pay
the layout-construction cost once.

Building sorts only what does not arrive sorted. The store keeps every
predicate table sorted-distinct by (subject, object), so a trie in that
order is a linear scan over the table's own columns; the
(object, subject) trie sorts the table as packed ``uint64`` keys; the
three-column ``__triples__`` view is sorted-distinct by (predicate,
subject, object), and only its other orders need a multi-key sort. All
three cases are :func:`~repro.nputil.sorted_distinct_rows`, and a trie
over a relation takes its rows from
:meth:`~repro.storage.relation.Relation.sorted_columns`, which sorts
each relation once per order and keeps the result. A store table is
replaced by a new relation only when a commit changes it, so every
fresh engine over the same epoch builds its (object, subject) tries
without a sort. Rows that are sorted-distinct by construction (a GHD
child's ``distinct()`` result) go straight to
:meth:`Trie.from_sorted_distinct`.

An update never rebuilds a trie: :meth:`Trie.apply_delta` splices the
batch into the CSR levels where they stand (one copy per level array
that changes, the others shared), sorting only the batch.

The generic join's per-row probe (:meth:`Trie.descend_rows`: the child
of each row's node labelled by that row's value) binary-searches a
level's sorted ``(parent << 32) | value`` keys. A probe of at least as
many keys as the level has entries first screens them through the
level's hashed bytemap (:func:`~repro.nputil.probe_filter`), so only
the hits and about one miss in eight are searched; the bytemap is
built by the first such probe and kept with the packed keys.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.nputil import (
    build_probe_filter,
    grouped_ranges,
    isin_sorted,
    pack_pairs,
    probe_filter,
    searchsorted_ranges,
    sorted_distinct_rows,
    splice,
)
from repro.sets.base import VALUE_DTYPE, EMPTY_SET, OrderedSet, SetLayout
from repro.sets.layout import build_set_from_sorted


@dataclass(frozen=True)
class TrieNode:
    """Address of a trie node: ``depth`` attributes bound, index at level."""

    depth: int
    index: int


ROOT = TrieNode(0, 0)


def _search_packed(
    packed: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(found, positions)`` of ``keys`` in a sorted packed level."""
    positions = np.searchsorted(packed, keys)
    positions = np.minimum(positions, packed.shape[0] - 1)
    return packed[positions] == keys, positions.astype(np.int64)


def _level_offsets(starts: np.ndarray, end: int) -> np.ndarray:
    """CSR offsets: each parent's first child position, then ``end``."""
    offsets = np.empty(starts.shape[0] + 1, dtype=np.int64)
    offsets[:-1] = starts
    offsets[-1] = end
    return offsets


def _batch_rows(columns: Sequence[np.ndarray] | None) -> list[np.ndarray] | None:
    """A delta batch as sorted-distinct ``uint32`` columns (``None`` when
    it has no rows); only the batch is sorted."""
    if columns is None or not len(columns) or not columns[0].size:
        return None
    return list(
        sorted_distinct_rows([np.asarray(c, dtype=VALUE_DTYPE) for c in columns])
    )


def _run_starts(positions: np.ndarray) -> np.ndarray:
    """First-of-run flags of a non-decreasing position array."""
    starts = np.ones(positions.shape[0], dtype=bool)
    starts[1:] = positions[1:] != positions[:-1]
    return starts


def _prefix_starts(rows: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``starts[i][r]``: sorted row ``r``'s prefix of length ``i + 1``
    differs from row ``r - 1``'s."""
    starts = []
    changed = np.zeros(rows[0].shape[0], dtype=bool)
    for column in rows:
        changed = changed | _run_starts(column)
        starts.append(changed)
    return starts


def _children_of_new_nodes(
    starts: np.ndarray, opens: list[np.ndarray], level: int
) -> np.ndarray:
    """Child count of each new level-``level`` node: the new
    level-``level + 1`` nodes among the batch rows of its prefix."""
    groups = np.flatnonzero(starts)
    if not groups.size:
        return np.empty(0, dtype=np.int64)
    children = np.add.reduceat(opens[level + 1].astype(np.int64), groups)
    return children[opens[level][groups]]


def _splice_offsets(
    offsets: np.ndarray,
    lost: np.ndarray,
    gained: np.ndarray,
    drop: np.ndarray,
    at: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """CSR offsets after each old parent in ``lost`` loses a child and
    each in ``gained`` gains one (both sorted, repeats counting again),
    the parents at ``drop`` (left childless) go, and new parents with
    ``counts`` children are inserted before the old parents at ``at``.

    Offsets before the first touched parent are copied as they are and
    those after the last are shifted by the net change; only the span
    between is rebuilt, as the cumulative sum of its spliced child
    counts.
    """
    ends = [a for a in (lost, gained, drop, at) if a.size]
    if not ends:
        return offsets
    first = min(int(a[0]) for a in ends)
    last = max(
        max((int(a[-1]) + 1 for a in (lost, gained, drop) if a.size), default=0),
        int(at[-1]) if at.size else 0,
    )
    span = np.diff(offsets[first : last + 1])
    np.subtract.at(span, lost - first, 1)
    np.add.at(span, gained - first, 1)
    span = splice(span, drop - first, at - first, counts)
    out = np.empty(offsets.shape[0] - drop.shape[0] + at.shape[0], np.int64)
    out[: first + 1] = offsets[: first + 1]
    end = first + 1 + span.shape[0]
    np.cumsum(span, out=out[first + 1 : end])
    out[first + 1 : end] += offsets[first]
    np.add(offsets[last + 1 :], out[end - 1] - offsets[last], out=out[end:])
    return out


class Trie:
    """An immutable trie index over one attribute ordering of a relation."""

    __slots__ = (
        "attributes",
        "_values",
        "_offsets",
        "_force_layout",
        "_set_cache",
        "_packed_cache",
        "_filter_cache",
        "num_tuples",
    )

    def __init__(
        self,
        attributes: Sequence[str],
        values: list[np.ndarray],
        offsets: list[np.ndarray],
        force_layout: SetLayout | None,
        num_tuples: int,
    ) -> None:
        self.attributes = tuple(attributes)
        self._values = values
        self._offsets = offsets
        self._force_layout = force_layout
        self._set_cache: dict[tuple[int, int], OrderedSet] = {}
        self._packed_cache: dict[int, np.ndarray] = {}
        self._filter_cache: dict[int, np.ndarray] = {}
        self.num_tuples = num_tuples

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        columns: Sequence[np.ndarray],
        attributes: Sequence[str],
        *,
        force_layout: SetLayout | None = None,
    ) -> "Trie":
        """Build a trie from parallel ``uint32`` columns.

        The rows go through :func:`~repro.nputil.sorted_distinct_rows`
        on every call: rows that arrive sorted-distinct in this column
        order are only checked, one or two columns in any other order
        are sorted as packed ``uint64`` keys (one ``np.sort``), and only
        three or more columns take a multi-key sort. The levels are then
        derived by :meth:`from_sorted_distinct`. A trie over a stored
        relation is built by :meth:`from_relation` instead, which reuses
        the relation's sorted rows.
        """
        if len(columns) != len(attributes):
            raise StorageError("column/attribute count mismatch")
        cols = [np.asarray(c, dtype=VALUE_DTYPE) for c in columns]
        if any(c.shape[0] != cols[0].shape[0] for c in cols):
            raise StorageError("ragged columns")
        return cls.from_sorted_distinct(
            sorted_distinct_rows(cols), attributes, force_layout=force_layout
        )

    @classmethod
    def from_sorted_distinct(
        cls,
        cols: Sequence[np.ndarray],
        attributes: Sequence[str],
        *,
        force_layout: SetLayout | None = None,
    ) -> "Trie":
        """Build from columns already lexicographically sorted and
        deduplicated: a linear pass of prefix-change scans with **no
        re-sort** of the data.

        Level ``i`` keeps the rows that start a new length-``i + 1``
        prefix (``positions``); a parent's children begin where its own
        first row lands among them, so the offsets are one
        ``searchsorted`` of the parent positions. Rows are distinct, so
        the last level is the last column itself (no copy) and its
        parents' offsets are their row positions.
        """
        if not cols:
            raise StorageError("cannot build a trie with zero attributes")
        cols = [np.asarray(c, dtype=VALUE_DTYPE) for c in cols]
        n = cols[0].shape[0]
        if n == 0:
            values = [np.empty(0, dtype=VALUE_DTYPE) for _ in cols]
            offsets = [
                np.zeros(1, dtype=np.int64) for _ in range(len(cols) - 1)
            ]
            return cls(attributes, values, offsets, force_layout, 0)
        values: list[np.ndarray] = []
        offsets: list[np.ndarray] = []
        # new[j] is True iff row j starts a new distinct prefix of the
        # columns seen so far (longer prefixes only split groups further).
        new = np.zeros(n, dtype=bool)
        new[0] = True
        prev_positions: np.ndarray | None = None
        for col in cols[:-1]:
            new[1:] |= col[1:] != col[:-1]
            positions = np.flatnonzero(new)
            values.append(col[positions])
            if prev_positions is not None:
                offsets.append(
                    _level_offsets(
                        np.searchsorted(positions, prev_positions),
                        positions.shape[0],
                    )
                )
            prev_positions = positions
        values.append(cols[-1])
        if prev_positions is not None:
            offsets.append(_level_offsets(prev_positions, n))
        return cls(attributes, values, offsets, force_layout, n)

    @classmethod
    def from_relation(
        cls,
        relation,
        attribute_order: Sequence[str],
        *,
        force_layout: SetLayout | None = None,
    ) -> "Trie":
        """Build a trie over ``relation`` with levels in ``attribute_order``.

        ``attribute_order`` must be a permutation of the relation's
        attributes (this is "selecting a single index over the relation").
        The rows come from
        :meth:`~repro.storage.relation.Relation.sorted_columns`, so only
        the first trie in an order over a relation sorts; the last
        level is the memo's last column itself (no copy).
        """
        if sorted(attribute_order) != sorted(relation.attributes):
            raise StorageError(
                f"attribute order {attribute_order} is not a permutation of "
                f"{relation.attributes}"
            )
        return cls.from_sorted_distinct(
            relation.sorted_columns(attribute_order),
            attribute_order,
            force_layout=force_layout,
        )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        added: Sequence[np.ndarray] | None,
        removed: Sequence[np.ndarray] | None,
    ) -> "Trie":
        """A trie over ``(tuples − removed) ∪ added``; this one is
        untouched, so probes racing the patch keep a consistent index.

        ``added``/``removed`` are parallel columns in this trie's
        attribute order; rows to remove that are absent and rows to add
        that are present are ignored. The CSR levels are spliced where
        they stand, for any arity: each batch row is located level by
        level (a ``searchsorted`` of the roots, then
        :func:`~repro.nputil.searchsorted_ranges` inside each child
        range), new child values are inserted at the found
        positions, nodes left with no children drop out, a parent's
        offsets move by the cumulative change of the child counts
        before it, and new roots are inserted like any other node. Each
        level array that changes is copied once
        (:func:`~repro.nputil.splice`) and the others are shared; only
        the batch is sorted. With nothing to change the result is this
        trie.
        """
        added = _batch_rows(added)
        removed = _batch_rows(removed)
        if added is None and removed is None:
            return self
        none = [np.empty(0, dtype=VALUE_DTYPE)] * self.num_levels
        added = added or none
        removed = removed or none
        # One walk locates both batches. A present row that is removed
        # and added back stays.
        split = added[0].shape[0]
        positions, found = self._locate(
            [np.concatenate(pair) for pair in zip(added, removed)]
        )
        present = found[-1]
        kept = positions[-1][:split][present[:split]]
        leaving = present[split:] & ~isin_sorted(positions[-1][split:], kept)
        fresh = ~present[:split]
        gone_rows = [level[split:][leaving] for level in positions]
        new_rows = [column[fresh] for column in added]
        new_positions = [level[:split][fresh] for level in positions]
        new_found = [level[:split][fresh] for level in found]
        if not gone_rows[0].size and not new_rows[0].size:
            return self
        depth = self.num_levels
        # opens[i]: the batch row is the first of a new level-i node
        # (its prefix of length i + 1 is absent and differs from the
        # previous row's); rows are sorted, so a new node's rows are
        # consecutive.
        starts = _prefix_starts(new_rows)
        opens = [start & ~hit for start, hit in zip(starts, new_found)]
        values = list(self._values)
        offsets = list(self._offsets)
        # Bottom-up: a node drops when every one of its children drops
        # and none is added; ``gone`` flags the removed rows whose
        # level-``i + 1`` node drops.
        drop = gone_rows[-1]
        gone = np.ones(drop.shape[0], dtype=bool)
        for level in range(depth - 1, -1, -1):
            at = new_positions[level][opens[level]]
            values[level] = splice(
                self._values[level], drop, at, new_rows[level][opens[level]]
            )
            if level == 0:
                break
            parent = level - 1
            parents = gone_rows[parent]
            # One lost child per distinct dropped level-``level`` node,
            # one gained child per new node under an existing parent.
            lost = parents[gone & _run_starts(gone_rows[level])]
            gained = new_positions[parent][opens[level] & new_found[parent]]
            bounds = self._offsets[parent]
            candidates = lost[_run_starts(lost)]
            remaining = (
                bounds[candidates + 1]
                - bounds[candidates]
                - np.searchsorted(lost, candidates, side="right")
                + np.searchsorted(lost, candidates)
                + np.searchsorted(gained, candidates, side="right")
                - np.searchsorted(gained, candidates)
            )
            dropped_parents = candidates[remaining == 0]
            offsets[parent] = _splice_offsets(
                self._offsets[parent],
                lost,
                gained,
                dropped_parents,
                new_positions[parent][opens[parent]],
                _children_of_new_nodes(starts[parent], opens, parent),
            )
            gone = isin_sorted(parents, dropped_parents)
            drop = dropped_parents
        return Trie(
            self.attributes,
            values,
            offsets,
            self._force_layout,
            int(values[-1].shape[0]),
        )

    def _locate(
        self, rows: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per level, each row's node position and whether it exists.

        ``positions[i][r]`` is the level-``i`` node holding row ``r``'s
        prefix of length ``i + 1`` when ``found[i][r]``, else the
        position such a node would be inserted at. The roots are one
        ``searchsorted``; each deeper level bisects only inside the
        child range of the row's parent (empty under a missing parent,
        whose children would start where its successor's do).
        """
        positions: list[np.ndarray] = []
        found: list[np.ndarray] = []
        lo = np.zeros(rows[0].shape[0], dtype=np.int64)
        hi = np.full(rows[0].shape[0], self._values[0].shape[0], np.int64)
        hit = np.ones(rows[0].shape[0], dtype=bool)
        for level, level_values in enumerate(self._values):
            if level:
                offsets = self._offsets[level - 1]
                parent = positions[-1]
                lo = offsets[parent]
                hi = np.where(
                    hit, offsets[np.minimum(parent + 1, offsets.shape[0] - 1)], lo
                )
            at = (
                np.searchsorted(level_values, rows[0]).astype(np.int64)
                if level == 0
                else searchsorted_ranges(level_values, lo, hi, rows[level])
            )
            hit = hit & (at < hi)
            hit[hit] = level_values[at[hit]] == rows[level][hit]
            positions.append(at)
            found.append(hit)
        return positions, found

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self._values)

    @property
    def root(self) -> TrieNode:
        return ROOT

    def level_values(self, level: int) -> np.ndarray:
        """All values stored at ``level`` (debug/stats helper)."""
        return self._values[level]

    def _child_slice(self, node: TrieNode) -> tuple[int, int]:
        if node.depth == 0:
            return 0, int(self._values[0].shape[0])
        level_offsets = self._offsets[node.depth - 1]
        return int(level_offsets[node.index]), int(level_offsets[node.index + 1])

    def child_values(self, node: TrieNode) -> np.ndarray:
        """Sorted distinct values of the next attribute under ``node``."""
        if node.depth >= self.num_levels:
            raise StorageError("node is a leaf; no child values")
        begin, end = self._child_slice(node)
        return self._values[node.depth][begin:end]

    def child_set(self, node: TrieNode) -> OrderedSet:
        """The child values as a layout-optimized :class:`OrderedSet`."""
        key = (node.depth, node.index)
        cached = self._set_cache.get(key)
        if cached is None:
            arr = self.child_values(node)
            cached = (
                EMPTY_SET
                if arr.size == 0
                else build_set_from_sorted(arr, force_layout=self._force_layout)
            )
            self._set_cache[key] = cached
        return cached

    def descend(self, node: TrieNode, value: int) -> TrieNode | None:
        """Follow the edge labeled ``value``; ``None`` if absent.

        With the bitset layout a *membership* probe is O(1)
        (Section III-A); locating the child index still requires the rank
        of the value within the child array, found by binary search.
        """
        begin, end = self._child_slice(node)
        arr = self._values[node.depth][begin:end]
        pos = int(np.searchsorted(arr, value))
        if pos >= arr.shape[0] or int(arr[pos]) != value:
            return None
        return TrieNode(node.depth + 1, begin + pos)

    def descend_many(
        self, node: TrieNode, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized descend for values already known to be children.

        Returns ``(values, child_indices)``. Values not present are
        filtered out.
        """
        begin, end = self._child_slice(node)
        arr = self._values[node.depth][begin:end]
        if arr.size == 0 or values.size == 0:
            return (
                np.empty(0, dtype=VALUE_DTYPE),
                np.empty(0, dtype=np.int64),
            )
        pos = np.searchsorted(arr, values)
        pos = np.minimum(pos, arr.shape[0] - 1)
        hit = arr[pos] == values
        return values[hit], pos[hit] + begin

    # ------------------------------------------------------------------
    # Vectorized row-wise navigation (the frontier executor's kernels)
    # ------------------------------------------------------------------
    def _packed_level(self, level: int) -> np.ndarray:
        """``(parent_position << 32) | value`` keys for level ``level >= 1``,
        sorted.

        A trie level is grouped by parent and sorted within each group,
        so the packed composite keys are globally sorted — which makes
        "descend row i's parent by row i's value" a single vectorized
        ``np.searchsorted`` over this array.
        """
        packed = self._packed_cache.get(level)
        if packed is None:
            counts = np.diff(self._offsets[level - 1])
            parents = np.repeat(np.arange(counts.shape[0]), counts)
            packed = pack_pairs(parents, self._values[level])
            self._packed_cache[level] = packed
        return packed

    def descend_rows(
        self, parent_level: int, parent_idx: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row descend: child of ``parent_idx[i]`` labelled ``values[i]``.

        ``parent_level`` is the level holding the parents (0 or deeper;
        a root is probed through its :meth:`child_set`). Returns
        ``(found_mask, child_positions)``; positions are valid only
        where found.

        A probe of at least as many keys as the child level has entries
        first drops most misses through the level's hashed bytemap
        (:func:`~repro.nputil.probe_filter`), built on that first probe
        and kept; only the survivors — every hit and about 12 % of the
        misses — are binary-searched. Building the bytemap is one pass
        over the level, so it costs no more than the probe it serves.
        Smaller probes search every key, unless the level already has
        its bytemap.
        """
        child_level = parent_level + 1
        packed = self._packed_level(child_level)
        if packed.size == 0:
            n = len(values)
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
        keys = pack_pairs(parent_idx, values)
        bytemap = self._filter_cache.get(child_level)
        if bytemap is None:
            if keys.shape[0] < packed.shape[0]:
                return _search_packed(packed, keys)
            bytemap = build_probe_filter(packed)
            self._filter_cache[child_level] = bytemap
        found = probe_filter(bytemap, keys)
        rows = np.flatnonzero(found)
        hits, at = _search_packed(packed, keys[rows])
        found[rows] = hits
        positions = np.zeros(keys.shape[0], dtype=np.int64)
        positions[rows] = at
        return found, positions

    def probe_rows(
        self, parent_level: int, parent_idx: np.ndarray, value: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row equality-selection probe of a single constant value."""
        values = np.full(len(parent_idx), value, dtype=np.uint64)
        return self.descend_rows(parent_level, parent_idx, values)

    def child_counts(self, parent_level: int, parent_idx: np.ndarray) -> np.ndarray:
        """Number of children per parent position (vectorized)."""
        offs = self._offsets[parent_level]
        return offs[parent_idx + 1] - offs[parent_idx]

    def expand_children(
        self, parent_level: int, parent_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All children of each parent, concatenated.

        Returns ``(counts, child_values, child_positions)`` where
        ``counts[i]`` children of ``parent_idx[i]`` appear consecutively.
        """
        offs = self._offsets[parent_level]
        begins = offs[parent_idx]
        counts = offs[parent_idx + 1] - begins
        positions = grouped_ranges(begins, counts)
        return counts, self._values[parent_level + 1][positions], positions

    def root_positions(self, values: np.ndarray) -> np.ndarray:
        """Positions of ``values`` (all known present) in the root level."""
        return np.searchsorted(self._values[0], values).astype(np.int64)

    def contains_prefix(self, prefix: Sequence[int]) -> bool:
        """True when the tuple prefix is present in the trie."""
        node: TrieNode | None = ROOT
        for value in prefix:
            node = self.descend(node, int(value))
            if node is None:
                return False
        return True

    # ------------------------------------------------------------------
    # Enumeration (tests / result materialization)
    # ------------------------------------------------------------------
    def iter_tuples(self) -> Iterator[tuple[int, ...]]:
        """Iterate all tuples in lexicographic order."""
        if self.num_tuples == 0:
            return
        yield from self._iter_from(ROOT, ())

    def _iter_from(
        self, node: TrieNode, prefix: tuple[int, ...]
    ) -> Iterator[tuple[int, ...]]:
        begin, end = self._child_slice(node)
        arr = self._values[node.depth][begin:end]
        if node.depth == self.num_levels - 1:
            for value in arr:
                yield prefix + (int(value),)
            return
        for pos, value in enumerate(arr):
            child = TrieNode(node.depth + 1, begin + pos)
            yield from self._iter_from(child, prefix + (int(value),))
