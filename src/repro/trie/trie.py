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
(object, subject) trie sorts the table once as packed ``uint64`` keys;
only the three-column ``__triples__`` view needs a multi-key sort. All
three cases are :func:`~repro.nputil.sorted_distinct_rows`. Rows that
are sorted-distinct by construction (a GHD child's ``distinct()``
result, a delta patch) go straight to :meth:`Trie.from_sorted_distinct`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.nputil import grouped_ranges, sorted_distinct_rows
from repro.sets.base import VALUE_DTYPE, EMPTY_SET, OrderedSet, SetLayout
from repro.sets.layout import build_set_from_sorted


@dataclass(frozen=True)
class TrieNode:
    """Address of a trie node: ``depth`` attributes bound, index at level."""

    depth: int
    index: int


ROOT = TrieNode(0, 0)


def _level_offsets(starts: np.ndarray, end: int) -> np.ndarray:
    """CSR offsets: each parent's first child position, then ``end``."""
    offsets = np.empty(starts.shape[0] + 1, dtype=np.int64)
    offsets[:-1] = starts
    offsets[-1] = end
    return offsets


class Trie:
    """An immutable trie index over one attribute ordering of a relation."""

    __slots__ = (
        "attributes",
        "_values",
        "_offsets",
        "_force_layout",
        "_set_cache",
        "_packed_cache",
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

        The rows go through :func:`~repro.nputil.sorted_distinct_rows`:
        rows that arrive sorted-distinct in this column order (a store
        table in (subject, object) order) are only checked, one or two
        columns in any other order are sorted as packed ``uint64`` keys
        (one ``np.sort``), and only three or more columns take a
        multi-key sort. The levels are then derived by
        :meth:`from_sorted_distinct`.
        """
        if len(columns) != len(attributes):
            raise StorageError("column/attribute count mismatch")
        if not columns:
            raise StorageError("cannot build a trie with zero attributes")
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
        """
        if sorted(attribute_order) != sorted(relation.attributes):
            raise StorageError(
                f"attribute order {attribute_order} is not a permutation of "
                f"{relation.attributes}"
            )
        columns = [relation.column(a) for a in attribute_order]
        return cls.build(columns, attribute_order, force_layout=force_layout)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        added: Sequence[np.ndarray] | None,
        removed: Sequence[np.ndarray] | None,
    ) -> "Trie":
        """A new trie over ``(tuples − removed) ∪ added`` (this one is
        untouched — probes racing the patch keep a consistent index).

        ``added``/``removed`` are parallel columns in this trie's
        attribute order; rows to remove that are absent and rows to add
        that are present are ignored. The patch expands the trie back to
        its sorted tuple columns, splices the (small, sorted) delta in
        linearly, and re-derives the CSR level arrays with prefix scans —
        no re-sort of the main data ever happens, so cost is linear in
        the stored tuples and logarithmic work per delta row, not the
        ``O(n log n)`` of a from-scratch build.
        """
        from repro.nputil import pack_rows, rows_isin

        cols = self.to_columns()
        if removed is not None and len(removed) and removed[0].size:
            if cols[0].size:
                keep = ~rows_isin(cols, removed)
                if not keep.all():
                    cols = [c[keep] for c in cols]
        if added is not None and len(added) and added[0].size:
            keys, first = np.unique(pack_rows(added), return_index=True)
            add_cols = [np.asarray(c, dtype=VALUE_DTYPE)[first] for c in added]
            main_keys = pack_rows(cols)
            if main_keys.size:
                positions = np.searchsorted(main_keys, keys)
                clipped = np.minimum(positions, main_keys.shape[0] - 1)
                fresh = main_keys[clipped] != keys
                positions = positions[fresh]
                add_cols = [c[fresh] for c in add_cols]
            else:
                positions = np.zeros(keys.shape[0], dtype=np.int64)
            if add_cols[0].size:
                cols = [
                    np.insert(c, positions, a)
                    for c, a in zip(cols, add_cols)
                ]
        return Trie.from_sorted_distinct(
            cols, self.attributes, force_layout=self._force_layout
        )

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
        """``(parent_position << 32) | value`` keys for one level, sorted.

        A trie level is grouped by parent and sorted within each group,
        so the packed composite keys are globally sorted — which makes
        "descend row i's parent by row i's value" a single vectorized
        ``np.searchsorted`` over this array.
        """
        packed = self._packed_cache.get(level)
        if packed is None:
            if level == 0:
                packed = self._values[0].astype(np.uint64)
            else:
                offs = self._offsets[level - 1]
                counts = np.diff(offs)
                parents = np.repeat(
                    np.arange(counts.shape[0], dtype=np.uint64), counts
                )
                packed = (parents << np.uint64(32)) | self._values[
                    level
                ].astype(np.uint64)
            self._packed_cache[level] = packed
        return packed

    def descend_rows(
        self, parent_level: int, parent_idx: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row descend: child of ``parent_idx[i]`` labelled ``values[i]``.

        ``parent_level`` is the level holding the parents (-1 for the
        root). Returns ``(found_mask, child_positions)``; positions are
        valid only where found.
        """
        child_level = parent_level + 1
        packed = self._packed_level(child_level)
        if packed.size == 0:
            n = len(values)
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
        if child_level == 0:
            keys = np.asarray(values, dtype=np.uint64)
        else:
            keys = (
                np.asarray(parent_idx, dtype=np.uint64) << np.uint64(32)
            ) | np.asarray(values, dtype=np.uint64)
        pos = np.searchsorted(packed, keys)
        pos = np.minimum(pos, packed.shape[0] - 1)
        found = packed[pos] == keys
        return found, pos.astype(np.int64)

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

    def to_columns(self) -> list[np.ndarray]:
        """Expand the trie back to flat columns (sorted, deduplicated).

        Used to materialize join outputs that were accumulated as tries
        and by round-trip tests.
        """
        if self.num_tuples == 0:
            return [np.empty(0, dtype=VALUE_DTYPE) for _ in self._values]
        # Walk levels top-down, expanding each parent value by its child
        # count, fully vectorized via np.repeat.
        counts: list[np.ndarray] = []
        for level_offsets in self._offsets:
            counts.append(np.diff(level_offsets))
        expanded = [self._values[-1]]
        # multiplicity of each node at the deepest level is 1; walk upward.
        multiplicity = np.ones(self._values[-1].shape[0], dtype=np.int64)
        for level in range(self.num_levels - 2, -1, -1):
            child_counts = counts[level]
            # total leaves below each node at this level:
            sums = np.add.reduceat(
                multiplicity,
                self._offsets[level][:-1],
            ) if self._values[level + 1].shape[0] else np.zeros(
                self._values[level].shape[0], dtype=np.int64
            )
            expanded.insert(0, np.repeat(self._values[level], sums))
            multiplicity = sums
        return expanded

    def memory_profile(self) -> dict[str, int]:
        """Rough byte counts per component (used by storage reports)."""
        values_bytes = sum(int(v.nbytes) for v in self._values)
        offsets_bytes = sum(int(o.nbytes) for o in self._offsets)
        return {
            "values_bytes": values_bytes,
            "offsets_bytes": offsets_bytes,
            "total_bytes": values_bytes + offsets_bytes,
        }
