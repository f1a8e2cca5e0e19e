"""Small shared numpy utilities.

Beyond :func:`grouped_ranges` (the trie executor's range expander), this
module holds the *row-set* kernels the delta-maintenance machinery is
built on: packing the rows of equal-length ``uint32`` columns into
order-preserving scalar keys so that set membership, set difference, and
sorted merges of whole tuples reduce to one vectorized numpy call each.
Two-column rows pack into ``uint64`` (``subject << 32 | object`` — the
shape of every predicate table); wider rows pack into big-endian void
records whose bytewise comparison *is* lexicographic tuple comparison.
:func:`sorted_distinct_rows` is the one kernel that sorts and dedups
rows; it returns input that is already sorted-distinct untouched.
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


def pack_rows(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Pack parallel ``uint32`` columns into order-preserving row keys.

    One or two columns use integer packing; wider rows become void
    records of the big-endian column bytes, whose memcmp ordering equals
    lexicographic tuple ordering — so the result always sorts, compares,
    and ``searchsorted``\\ s like the original tuples.
    """
    if len(columns) == 1:
        return np.asarray(columns[0], dtype=np.uint32)
    if len(columns) == 2:
        return pack_pairs(columns[0], columns[1])
    # Byte order is normalized on the stacked copy just below — the
    # only place it can stick (np.stack reverts inputs to native).
    # repro: allow[numpy-hygiene]
    stacked = np.stack(
        [np.asarray(c, dtype=np.uint32) for c in columns], axis=1
    )
    # The byteswap to big-endian must happen on the *stacked* array:
    # np.stack silently converts its inputs back to native byte order.
    stacked = np.ascontiguousarray(stacked.astype(">u4"))
    width = stacked.shape[1] * 4
    return stacked.view(np.dtype((np.void, width))).ravel()


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


def rows_isin(
    columns: Sequence[np.ndarray], other_columns: Sequence[np.ndarray]
) -> np.ndarray:
    """Per-row membership of ``columns``'s rows in ``other_columns``'s."""
    n = int(np.asarray(columns[0]).shape[0])
    if not int(np.asarray(other_columns[0]).shape[0]):
        return np.zeros(n, dtype=bool)
    return np.isin(pack_rows(columns), pack_rows(other_columns))


def merge_sorted_unique(sorted_keys: np.ndarray, new_keys: np.ndarray) -> np.ndarray:
    """Merge ``new_keys`` into a sorted unique key array (stays both).

    ``new_keys`` may be unsorted and contain duplicates; keys already
    present are dropped. Linear splice — no re-sort of the main array.
    """
    if not new_keys.size:
        return sorted_keys
    (new_keys,) = sorted_distinct_rows([new_keys])
    if sorted_keys.size:
        positions = np.searchsorted(sorted_keys, new_keys)
        clipped = np.minimum(positions, sorted_keys.shape[0] - 1)
        fresh = sorted_keys[clipped] != new_keys
        new_keys, positions = new_keys[fresh], positions[fresh]
        if not new_keys.size:
            return sorted_keys
        return np.insert(sorted_keys, positions, new_keys)
    return new_keys


def remove_sorted(sorted_keys: np.ndarray, doomed: np.ndarray) -> np.ndarray:
    """Drop ``doomed`` keys from a sorted unique key array (stays both)."""
    if not doomed.size or not sorted_keys.size:
        return sorted_keys
    return sorted_keys[~np.isin(sorted_keys, doomed)]


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
