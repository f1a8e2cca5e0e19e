"""Vectorized join kernels over :class:`~repro.storage.relation.Relation`.

The many-to-many natural join is fully vectorized: composite keys are
reduced to dense group ids, both sides are sorted by group, and matching
groups emit their cross products through ``np.repeat`` index arithmetic —
no Python-level loop over rows or groups.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.nputil import grouped_ranges
from repro.storage.relation import Relation


def _composite_group_ids(
    left_keys: list[np.ndarray], right_keys: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids such that rows agree on all keys iff ids are equal."""
    n_left = left_keys[0].shape[0]
    ids_left = np.zeros(n_left, dtype=np.int64)
    ids_right = np.zeros(right_keys[0].shape[0], dtype=np.int64)
    for left_col, right_col in zip(left_keys, right_keys):
        combined = np.concatenate([left_col, right_col])
        _, inverse = np.unique(combined, return_inverse=True)
        col_ids_left = inverse[:n_left]
        col_ids_right = inverse[n_left:]
        # Fold this column into the running composite id.
        width = int(inverse.max()) + 1 if inverse.size else 1
        ids_left = ids_left * width + col_ids_left
        ids_right = ids_right * width + col_ids_right
        # Re-densify to avoid overflow across many key columns.
        combined_ids = np.concatenate([ids_left, ids_right])
        _, inverse2 = np.unique(combined_ids, return_inverse=True)
        ids_left = inverse2[:n_left]
        ids_right = inverse2[n_left:]
    return ids_left, ids_right


JOIN_ASYMMETRY = 16
"""When one side is this much larger, semijoin-prefilter it first — the
in-memory analogue of driving a merge join from the smaller sorted index."""


def join_indices(
    left: Relation, right: Relation, keys: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs joining ``left`` and ``right`` on ``keys``."""
    left_map: np.ndarray | None = None
    right_map: np.ndarray | None = None
    if len(keys) == 1 and left.num_rows > 0 and right.num_rows > 0:
        left_col = left.column(keys[0])
        right_col = right.column(keys[0])
        if left_col.size > JOIN_ASYMMETRY * right_col.size:
            left_map = np.flatnonzero(np.isin(left_col, right_col))
            left = left.take(left_map)
        elif right_col.size > JOIN_ASYMMETRY * left_col.size:
            right_map = np.flatnonzero(np.isin(right_col, left_col))
            right = right.take(right_map)
    left_idx, right_idx = _join_indices_general(left, right, keys)
    if left_map is not None:
        left_idx = left_map[left_idx]
    if right_map is not None:
        right_idx = right_map[right_idx]
    return left_idx, right_idx


def _join_indices_general(
    left: Relation, right: Relation, keys: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Sort-based many-to-many join over composite keys."""
    left_keys = [left.column(k) for k in keys]
    right_keys = [right.column(k) for k in keys]
    ids_left, ids_right = _composite_group_ids(left_keys, right_keys)

    order_left = np.argsort(ids_left, kind="stable")
    order_right = np.argsort(ids_right, kind="stable")
    sorted_left = ids_left[order_left]
    sorted_right = ids_right[order_right]

    common = np.intersect1d(sorted_left, sorted_right)
    if common.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    left_starts = np.searchsorted(sorted_left, common, side="left")
    left_ends = np.searchsorted(sorted_left, common, side="right")
    right_starts = np.searchsorted(sorted_right, common, side="left")
    right_ends = np.searchsorted(sorted_right, common, side="right")
    left_counts = left_ends - left_starts
    right_counts = right_ends - right_starts

    out_sizes = left_counts * right_counts
    total = int(out_sizes.sum())
    if total == 0:  # pragma: no cover - counts are always >= 1 here
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    # Left side: each left row of a group repeats right_count times.
    left_positions = grouped_ranges(left_starts, left_counts)
    per_left_repeat = np.repeat(right_counts, left_counts)
    left_idx = np.repeat(left_positions, per_left_repeat)

    # Right side: within a group, output row r maps to right row r % n_b.
    group_out_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(out_sizes)[:-1]]
    )
    local = np.arange(total, dtype=np.int64) - np.repeat(
        group_out_offsets, out_sizes
    )
    right_idx = np.repeat(right_starts, out_sizes) + local % np.repeat(
        right_counts, out_sizes
    )

    return order_left[left_idx], order_right[right_idx]


def natural_join(
    left: Relation, right: Relation, name: str | None = None
) -> Relation:
    """Natural join on all same-named attributes (vectorized).

    Raises :class:`ExecutionError` when the relations share no attribute —
    pairwise planners avoid cross products explicitly, so reaching one
    indicates a planner bug (use :func:`cross_product` deliberately).
    """
    keys = [a for a in left.attributes if a in right.attributes]
    if not keys:
        raise ExecutionError(
            f"natural_join of {left.name!r} and {right.name!r} would be a "
            "cross product; use cross_product() explicitly"
        )
    left_idx, right_idx = join_indices(left, right, keys)
    out_attrs = list(left.attributes) + [
        a for a in right.attributes if a not in left.attributes
    ]
    columns = [left.column(a)[left_idx] for a in left.attributes] + [
        right.column(a)[right_idx]
        for a in right.attributes
        if a not in left.attributes
    ]
    return Relation(name or f"({left.name}*{right.name})", out_attrs, columns)


def cross_product(
    left: Relation, right: Relation, name: str | None = None
) -> Relation:
    """Explicit cartesian product (disconnected query components)."""
    n_left, n_right = left.num_rows, right.num_rows
    left_idx = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
    right_idx = np.tile(np.arange(n_right, dtype=np.int64), n_left)
    out_attrs = list(left.attributes) + [
        a for a in right.attributes if a not in left.attributes
    ]
    if any(a in left.attributes for a in right.attributes):
        raise ExecutionError("cross_product with overlapping attributes")
    columns = [left.column(a)[left_idx] for a in left.attributes] + [
        right.column(a)[right_idx] for a in right.attributes
    ]
    return Relation(name or f"({left.name}x{right.name})", out_attrs, columns)


def join_in_order(leaves: list[Relation], order: Sequence[int]) -> Relation:
    """The pairwise baselines' join loop: fold ``leaves`` in ``order``,
    natural-joining a leaf that shares an attribute with the result and
    cross-multiplying one that shares none. An empty result only widens
    its schema, so the caller's projection still finds every attribute."""
    result = leaves[order[0]]
    for index in order[1:]:
        right = leaves[index]
        if result.num_rows == 0:
            merged = list(result.attributes) + [
                a for a in right.attributes if a not in result.attributes
            ]
            result = Relation.empty(result.name, merged)
        elif any(a in result.attributes for a in right.attributes):
            result = natural_join(result, right)
        else:
            result = cross_product(result, right)
    return result
