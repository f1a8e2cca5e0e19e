"""Small shared numpy utilities.

Beyond :func:`grouped_ranges` (the trie executor's range expander), this
module holds the *row-set* kernels the delta-maintenance machinery is
built on. Two-column rows pack into order-preserving ``uint64`` keys
(``subject << 32 | object`` — the shape of every predicate table).
:func:`sorted_distinct_rows` is the one kernel that sorts and dedups
rows; it returns input that is already sorted-distinct untouched.
:func:`splice` is the one kernel that patches a sorted array: an update
finds its positions by ``searchsorted`` (:func:`search_rows` narrows
column by column through sorted-distinct rows) and copies each changed
array once, so its cost follows the batch, never a sort or hash of the
stored rows. :func:`splice_rows` applies both to whole tables.
:func:`build_probe_filter` and :func:`probe_filter` are the hashed
bytemap that lets a membership probe skip most misses before it
searches.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def pack_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Pack two ``uint32`` columns into order-preserving ``uint64`` keys.

    ``(a << 32) | b`` sorts exactly like the tuple ``(a, b)``, so sorted
    packed arrays support ``searchsorted``-based membership and merges.
    """
    return (np.asarray(first, dtype=np.uint64) << np.uint64(32)) | np.asarray(
        second, dtype=np.uint64
    )


def unpack_pairs(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_pairs` back to two ``uint32`` columns."""
    return (
        (packed >> np.uint64(32)).astype(np.uint32),
        (packed & np.uint64(0xFFFFFFFF)).astype(np.uint32),
    )


def _strictly_increasing(columns: Sequence[np.ndarray]) -> bool:
    """True when every row is lexicographically greater than the one
    before it (sorted *and* distinct) — one comparison pass per column."""
    first = columns[0]
    greater = first[1:] > first[:-1]
    if len(columns) > 1:
        tied = first[1:] == first[:-1]
        for column in columns[1:]:
            greater |= tied & (column[1:] > column[:-1])
            tied &= column[1:] == column[:-1]
    return bool(greater.all())


def _first_of_runs(changed: np.ndarray) -> np.ndarray | None:
    """Keep-mask of the first row of each run of equal sorted rows, given
    ``changed[i]`` = row ``i + 1`` differs from row ``i``; ``None`` when
    every row is already distinct."""
    if changed.all():
        return None
    return np.concatenate(([True], changed))


def sorted_distinct_rows(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The distinct rows of parallel columns, in lexicographic order.

    The one row-sorting kernel of trie building and
    ``Relation.distinct``:

    1. Rows that are already strictly increasing — every predicate table
       the store hands out is sorted-distinct by (subject, object) — come
       back as the input arrays themselves, after an O(n·k) scan.
    2. One or two columns sort as scalar keys (:func:`pack_pairs` for
       two): one ``np.sort``, then a drop of adjacent equal keys. Never
       a flag-less ``np.unique``, which numpy 2.4 routes to a hash path
       several times slower than sorting on keys like these.
    3. Three or more columns (the ``__triples__`` view) lexsort.

    One column may have any integer dtype (packed ``uint64`` keys
    included) and keeps it; wider rows are ``uint32`` columns.
    """
    cols = tuple(np.asarray(c) for c in columns)
    if not cols or cols[0].shape[0] < 2 or _strictly_increasing(cols):
        return cols
    if len(cols) == 1:
        keys = np.sort(cols[0])
    elif len(cols) == 2:
        keys = np.sort(pack_pairs(cols[0], cols[1]))
    else:
        order = np.lexsort(cols[::-1])
        cols = tuple(c[order] for c in cols)
        changed = cols[0][1:] != cols[0][:-1]
        for column in cols[1:]:
            changed |= column[1:] != column[:-1]
        keep = _first_of_runs(changed)
        return cols if keep is None else tuple(c[keep] for c in cols)
    keep = _first_of_runs(keys[1:] != keys[:-1])
    if keep is not None:
        keys = keys[keep]
    return (keys,) if len(cols) == 1 else unpack_pairs(keys)


class _Splice:
    """Where one splice moves elements, worked out once for arrays of
    length ``n`` and applied to any number of parallel arrays (the
    columns of one table take the same drops and inserts)."""

    __slots__ = ("size", "first", "last", "end", "inserted", "old", "keep")

    def __init__(self, n: int, drop: np.ndarray, at: np.ndarray) -> None:
        if drop.size and at.size:
            self.first = min(int(drop[0]), int(at[0]))
            self.last = max(int(drop[-1]) + 1, int(at[-1]))
        elif drop.size:
            self.first, self.last = int(drop[0]), int(drop[-1]) + 1
        else:
            self.first, self.last = int(at[0]), int(at[-1])
        self.size = n - drop.size + at.size
        self.end = self.last - drop.size + at.size
        self.inserted = self.old = self.keep = None
        if self.last - self.first == drop.size:
            return  # no old element survives inside the span
        inserted = np.arange(-self.first, at.size - self.first)
        inserted += at
        if drop.size:
            inserted -= np.searchsorted(drop, at)
            self.keep = np.ones(self.last - self.first, dtype=bool)
            self.keep[drop - self.first] = False
        self.old = np.ones(self.end - self.first, dtype=bool)
        self.old[inserted] = False
        self.inserted = inserted

    def __call__(self, array: np.ndarray, values: np.ndarray) -> np.ndarray:
        first, last, end = self.first, self.last, self.end
        out = np.empty(self.size, dtype=array.dtype)
        out[:first] = array[:first]
        out[end:] = array[last:]
        if self.inserted is None:
            out[first:end] = values
            return out
        span = out[first:end]
        span[self.inserted] = values
        kept = array[first:last]
        span[self.old] = kept if self.keep is None else kept[self.keep]
        return out


def splice(
    array: np.ndarray,
    drop: np.ndarray,
    at: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """``array`` without the elements at ``drop`` and with ``values``
    inserted before the elements at ``at``, as one new array.

    The one patch kernel of sorted arrays (sketch histograms, table
    columns, trie levels). ``drop`` holds sorted unique positions in
    ``[0, n)``; ``at`` holds non-decreasing positions in ``[0, n]``
    aligned with ``values`` (``n`` appends; values sharing a position
    keep their given order, ahead of the element there). Nothing to do
    returns ``array`` itself, so unchanged arrays stay shared. The
    elements before the first and after the last touched position are
    block-copied; only the span between them is spliced through masks,
    so a batch that lands in one place costs a copy, and any batch
    costs O(n + k) vectorized work.
    """
    drop = np.asarray(drop, dtype=np.int64)
    at = np.asarray(at, dtype=np.int64)
    if not drop.size and not at.size:
        return array
    return _Splice(array.shape[0], drop, at)(array, values)


#: Ranges at least this wide are searched one slice at a time; each row
#: over a narrower one is compared with its whole range at once.
_WIDE = 16


def searchsorted_ranges(
    array: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    values: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """Per row, ``lo[i] + np.searchsorted(array[lo[i]:hi[i]], values[i],
    side)``.

    Each slice must be sorted (a trie node's child range, the rows of a
    sorted table sharing a prefix); the array as a whole need not be.
    Rows over one wide range share one ``searchsorted`` of its slice;
    the ranges of different prefixes are disjoint, so a call meets at
    most ``len(array) / 16`` of them. Rows over narrow ranges count the
    elements below their value in one vectorized comparison of at most
    15 per row. No pass over ``array`` is made.
    """
    lo = np.array(lo, dtype=np.int64)
    values = np.asarray(values)
    width = hi - lo
    wide = (width >= _WIDE).nonzero()[0]
    if wide.size:
        wide = wide[np.lexsort((hi[wide], lo[wide]))]
        starts, ends = lo[wide], hi[wide]
        cuts = (
            (starts[1:] != starts[:-1]) | (ends[1:] != ends[:-1])
        ).nonzero()[0] + 1
        for first, last in zip([0, *cuts.tolist()], [*cuts.tolist(), wide.size]):
            group = wide[first:last]
            begin, end = int(starts[first]), int(ends[first])
            lo[group] += np.searchsorted(
                array[begin:end], values[group], side=side
            )
    rows = ((width > 0) & (width < _WIDE)).nonzero()[0]
    if rows.size:
        span = np.arange(int(width[rows].max()))
        at = lo[rows, None] + span
        probe = array[np.minimum(at, array.shape[0] - 1)]
        value = values[rows, None]
        below = probe < value if side == "left" else probe <= value
        below &= at < hi[rows, None]
        lo[rows] += below.sum(axis=1)
    return lo


def search_rows(
    columns: Sequence[np.ndarray], rows: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``rows`` sits in sorted-distinct ``columns``.

    Returns ``(positions, present)``: the row's index when present,
    else the index it would be inserted at to keep the rows sorted.
    Narrows column by column: the first column with ``searchsorted``,
    each later one with :func:`searchsorted_ranges` inside the range of
    rows sharing the prefix so far.
    """
    columns = [np.asarray(c) for c in columns]
    k = int(np.asarray(rows[0]).shape[0])
    last = len(columns) - 1
    lo = hi = np.zeros(k, dtype=np.int64)
    for index, column in enumerate(columns):
        value = np.asarray(rows[index], dtype=column.dtype)
        if index == 0:
            lo = np.searchsorted(column, value).astype(np.int64)
            hi = np.searchsorted(column, value, side="right").astype(np.int64)
        elif index < last:
            lo, hi = (
                searchsorted_ranges(column, lo, hi, value),
                searchsorted_ranges(column, lo, hi, value, side="right"),
            )
        else:
            lo = searchsorted_ranges(column, lo, hi, value)
    if last == 0:
        return lo, lo < hi
    present = lo < hi
    present[present] = (
        columns[last][lo[present]]
        == np.asarray(rows[last], dtype=columns[last].dtype)[present]
    )
    return lo, present


def splice_rows(
    columns: Sequence[np.ndarray],
    added: Sequence[np.ndarray] | None,
    removed: Sequence[np.ndarray] | None,
) -> tuple[np.ndarray, ...]:
    """``(rows − removed) ∪ added`` of sorted-distinct ``columns``, still
    sorted-distinct, each changed column one :func:`splice`.

    ``added``/``removed`` are parallel columns in the same column order,
    in any order and with duplicates (only the batch is sorted). Removed
    rows that are absent and added rows that are present change
    nothing; a row both removed and added stays. Both batches are
    placed by one :func:`search_rows`; an unchanged result is
    ``columns`` itself.
    """
    columns = tuple(np.asarray(c) for c in columns)
    batches = [
        sorted_distinct_rows(rows)
        if rows is not None and len(rows[0])
        else tuple(np.empty(0, dtype=c.dtype) for c in columns)
        for rows in (added, removed)
    ]
    added, removed = batches
    split = added[0].shape[0]
    if not split and not removed[0].shape[0]:
        return columns
    positions, present = search_rows(
        columns, [np.concatenate(pair) for pair in zip(added, removed)]
    )
    fresh = ~present[:split]
    drop = positions[split:][present[split:]]
    if drop.size and split:
        # A removed row added back stays where it is.
        drop = drop[~isin_sorted(drop, positions[:split][~fresh])]
    at = positions[:split][fresh]
    if not drop.size and not at.size:
        return columns
    move = _Splice(columns[0].shape[0], drop, at)
    return tuple(move(column, rows[fresh]) for column, rows in zip(columns, added))


def merge_sorted_unique(sorted_keys: np.ndarray, new_keys: np.ndarray) -> np.ndarray:
    """Merge ``new_keys`` into a sorted unique key array (stays both).

    ``new_keys`` may be unsorted and contain duplicates; keys already
    present are dropped. One :func:`splice` at the searched positions.
    """
    if not new_keys.size:
        return sorted_keys
    return splice_rows([sorted_keys], [new_keys], None)[0]


def remove_sorted(sorted_keys: np.ndarray, doomed: np.ndarray) -> np.ndarray:
    """Drop ``doomed`` keys from a sorted unique key array (stays both)."""
    if not doomed.size or not sorted_keys.size:
        return sorted_keys
    return splice_rows([sorted_keys], None, [doomed])[0]


def isin_sorted(keys: np.ndarray, sorted_unique: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in a sorted unique key array (searchsorted)."""
    if not sorted_unique.size:
        return np.zeros(keys.shape[0], dtype=bool)
    positions = np.searchsorted(sorted_unique, keys)
    positions = np.minimum(positions, sorted_unique.shape[0] - 1)
    return sorted_unique[positions] == keys


def grouped_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``range(start_i, start_i + count_i)`` per group.

    Fully vectorized: builds a step array whose cumulative sum walks each
    range, jumping to the next group's start at group boundaries.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nonempty = counts > 0
    if not nonempty.all():
        starts = starts[nonempty]
        counts = counts[nonempty]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    steps = np.ones(total, dtype=np.int64)
    offsets = np.cumsum(counts)[:-1]
    steps[0] = starts[0]
    if offsets.size:
        steps[offsets] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(steps)


#: 2**64 divided by the golden ratio, made odd: Fibonacci hashing's
#: multiplier. The top bits of ``key * _FIBONACCI`` spread runs of
#: consecutive keys (a trie level's packed ``parent << 32 | value``)
#: evenly over the slots.
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


def _filter_slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """Each key's slot in a ``2**bits``-slot bytemap: the top ``bits``
    bits of ``key * _FIBONACCI`` (mod 2**64). A function of the key's
    value alone, the same in every process."""
    slots = np.asarray(keys, dtype=np.uint64) * _FIBONACCI
    slots >>= np.uint64(64 - bits)
    # Below 2**63 after the shift: the signed view indexes as it is.
    return slots.view(np.int64)


def build_probe_filter(keys: np.ndarray) -> np.ndarray:
    """A ``bool`` bytemap over ``uint64`` ``keys`` for :func:`probe_filter`.

    It has the smallest power-of-two number of slots that is at least
    ``8 * len(keys)``, and each key sets the one slot its Fibonacci hash
    names; one pass over the keys.
    """
    bits = (8 * keys.shape[0] - 1).bit_length()
    bytemap = np.zeros(1 << bits, dtype=np.bool_)
    bytemap[_filter_slots(keys, bits)] = True
    return bytemap


def probe_filter(bytemap: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``True`` for every key the bytemap was built over; a key that
    reads ``False`` is absent. At most one slot in eight is set, so an
    absent key passes with probability about 1 − e^(−1/8) ≈ 12 %."""
    bits = bytemap.shape[0].bit_length() - 1
    return bytemap[_filter_slots(keys, bits)]
