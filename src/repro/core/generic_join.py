"""The generic worst-case optimal join (Algorithm 1 of the paper).

For an attribute order ``[a1, ..., ak]`` the algorithm binds one
attribute at a time: at attribute ``ai`` it intersects the candidate
sets of every relation containing ``ai`` (given the bound prefix) and
extends each partial tuple by the intersection. Ngo et al. showed this
runs within the AGM bound — on a triangle, O(N^{3/2}) versus the Ω(N²)
of any pairwise plan.

Two implementations are provided:

* :func:`generic_join` — the production, *level-synchronous* variant.
  Instead of recursing per tuple it maintains a columnar frontier of all
  partial bindings and processes one attribute per step with vectorized
  trie kernels: the smallest participating relation is expanded in bulk
  (the leapfrog "min-set" rule, which preserves the worst-case optimal
  bound) and every other participant filters the candidates with packed
  binary-search probes or O(1) bitset membership. This is the numpy
  analogue of the tight compiled loops EmptyHeaded generates — every
  engine in this library gets its bulk work done by the same numpy
  machinery, keeping cross-engine comparisons about algorithms.
* :func:`generic_join_recursive` — a direct transcription of Algorithm 1
  (tuple-at-a-time recursion). It exists as an executable specification:
  property tests check the frontier variant against it on random
  databases.

Shared conventions: participants are tries whose level order is the
processing order restricted to their variables; equality selections are
probes (O(1) bitset / O(log n) array — Section III-A), never loops;
trailing attributes that are neither projected, selected, nor shared are
truncated because a trie node guarantees at least one extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.query import Variable
from repro.sets.base import VALUE_DTYPE
from repro.sets.intersect import intersect_arrays, intersect_many
from repro.storage.relation import Relation
from repro.trie.trie import Trie, TrieNode


@dataclass
class Participant:
    """One relation instance taking part in a node's generic join."""

    trie: Trie
    attrs: tuple[Variable, ...]
    label: str

    def __post_init__(self) -> None:
        if len(self.attrs) != self.trie.num_levels:
            raise ValueError(
                f"participant {self.label!r}: {len(self.attrs)} attrs for a "
                f"{self.trie.num_levels}-level trie"
            )


def plan_attribute_list(
    attrs: list[Variable],
    participants: list[Participant],
    selections: dict[Variable, int],
    output_attrs: list[Variable],
) -> list[Variable]:
    """Truncate trailing attributes that only need an existence check.

    An attribute can be dropped from the tail when it is not projected,
    not selected, occurs in only one participant (a value shared by two
    relations still constrains the join), and is that participant's
    final remaining attribute (a trie node always has at least one
    descendant, so existence is guaranteed).
    """
    needed = set(output_attrs) | set(selections)
    kept = list(attrs)
    while kept:
        attr = kept[-1]
        if attr in needed:
            break
        position = len(kept) - 1
        holders = [p for p in participants if attr in p.attrs]
        deletable = len(holders) <= 1
        for participant in holders:
            later = [
                a
                for a in participant.attrs
                if a in kept and kept.index(a) > position
            ]
            if later:
                deletable = False
                break
        if not deletable:
            break
        kept.pop()
    return kept


# ---------------------------------------------------------------------------
# Level-synchronous frontier implementation
# ---------------------------------------------------------------------------
class _Frontier:
    """Columnar state: all partial bindings after some bound prefix."""

    __slots__ = ("size", "columns")

    def __init__(self) -> None:
        self.size = 1  # one empty binding
        self.columns: dict[Variable, np.ndarray] = {}

    def gather(self, row_ids: np.ndarray) -> None:
        self.columns = {a: c[row_ids] for a, c in self.columns.items()}
        self.size = int(row_ids.shape[0])

    def filter(self, mask: np.ndarray) -> None:
        self.columns = {a: c[mask] for a, c in self.columns.items()}
        self.size = int(mask.sum())


def _empty_result(output_attrs: list[Variable], name: str) -> Relation:
    return Relation.empty(name, [v.name for v in output_attrs])


def _active_for(
    attr: Variable,
    participants: list[Participant],
    bound_count: list[int],
) -> list[int]:
    """Participants whose next unbound level is ``attr``."""
    return [
        i
        for i, p in enumerate(participants)
        if bound_count[i] < len(p.attrs) and p.attrs[bound_count[i]] == attr
    ]


def generic_join(
    attrs: list[Variable],
    participants: list[Participant],
    selections: dict[Variable, int],
    output_attrs: list[Variable],
    name: str = "join",
    stats: "object | None" = None,
) -> Relation:
    """Run the worst-case optimal join, materializing ``output_attrs``.

    ``attrs`` is the processing order; ``output_attrs`` must be the
    non-selection attributes of ``attrs`` that the caller wants
    materialized. When ``output_attrs`` omits a non-selection attribute
    that is bound before other output attributes, duplicate output rows
    can be produced — callers project-and-distinct in that case (the GHD
    executor always materializes every unselected attribute, so node
    results are duplicate-free).

    ``stats``, when given, must expose an integer ``enumerated_tuples``
    attribute; it is incremented by the frontier size after every join-
    attribute binding — the count of partial tuples the algorithm
    actually carried, the executor's work measure.
    """
    kept = plan_attribute_list(attrs, participants, selections, output_attrs)
    out_in_order = [a for a in kept if a in set(output_attrs)]

    # Participants with every attribute truncated act as global guards.
    kept_set = set(kept)
    for participant in participants:
        if not any(a in kept_set for a in participant.attrs):
            if participant.trie.num_tuples == 0:
                return _empty_result(out_in_order, name)

    frontier = _Frontier()
    # bound_count[i]: how many of participant i's levels are bound;
    # cursor[i]: per-row node positions at level bound_count[i]-1.
    bound_count = [0] * len(participants)
    cursor: list[np.ndarray | None] = [None] * len(participants)

    for attr in kept:
        active = _active_for(attr, participants, bound_count)
        if attr in selections:
            if not _bind_selection(
                attr, selections[attr], active, participants,
                bound_count, cursor, frontier,
            ):
                return _empty_result(out_in_order, name)
        else:
            if not _bind_join_attribute(
                attr, active, participants, bound_count, cursor, frontier,
                emit=attr in set(out_in_order),
            ):
                return _empty_result(out_in_order, name)
            if stats is not None:
                stats.enumerated_tuples += frontier.size
        if frontier.size == 0:
            return _empty_result(out_in_order, name)

    if not out_in_order:
        # Boolean node (every attribute selected): emit the sentinel the
        # executor checks for emptiness.
        return _exists_relation(name, satisfied=frontier.size > 0)
    columns = [frontier.columns[a] for a in out_in_order]
    return Relation(name, [v.name for v in out_in_order], columns)


def generic_join_stream(
    attrs: list[Variable],
    participants: list[Participant],
    selections: dict[Variable, int],
    output_attrs: list[Variable],
    name: str = "join",
    chunk_rows: int = 1024,
    stats: "object | None" = None,
) -> Iterator[Relation]:
    """Run the worst-case optimal join lazily, yielding sorted chunks.

    The contract that makes streaming useful for top-k: the frontier of
    :func:`generic_join` stays lexicographically sorted in binding order
    (sorted trie children, row-major expansion), so if the caller orders
    ``attrs`` as ``[selections..., output_attrs in output order,
    rest...]`` the concatenated chunks are exactly the materialized
    result's rows sorted by the output columns — i.e. ``distinct()``
    order — with duplicate output rows adjacent. A consumer can then
    deduplicate by comparing neighbours and stop pulling once
    ``offset + limit`` distinct rows exist, without enumerating the rest.

    Laziness is chunked, not tuple-at-a-time: leading selections bind
    first (the frontier stays a single row), the first join attribute is
    bound in full (one vectorized index intersection — its cost is index
    work, not output enumeration), and the resulting frontier is then
    completed through the remaining attributes ``chunk_rows`` rows at a
    time. Contiguous slices of a sorted frontier preserve global order.

    ``stats.enumerated_tuples`` (when given) counts the rows a chunk
    enters with plus the frontier size after each join binding inside
    the chunk — the partial tuples actually carried. An abandoned stream
    therefore never charges for work it did not do.
    """
    kept = plan_attribute_list(attrs, participants, selections, output_attrs)
    out_set = set(output_attrs)
    out_in_order = [a for a in kept if a in out_set]
    names = [v.name for v in out_in_order]

    kept_set = set(kept)
    for participant in participants:
        if not any(a in kept_set for a in participant.attrs):
            if participant.trie.num_tuples == 0:
                return

    frontier = _Frontier()
    bound_count = [0] * len(participants)
    cursor: list[np.ndarray | None] = [None] * len(participants)

    # Phase A: leading equality selections (the frontier stays one row).
    index = 0
    while index < len(kept) and kept[index] in selections:
        attr = kept[index]
        alive = _bind_selection(
            attr, selections[attr],
            _active_for(attr, participants, bound_count),
            participants, bound_count, cursor, frontier,
        )
        if not alive or frontier.size == 0:
            return
        index += 1
    if index == len(kept):
        # Fully selected (boolean) query: nothing to stream.
        if out_in_order:
            return
        yield _exists_relation(name, satisfied=frontier.size > 0)
        return

    # Phase B: bind the first join attribute completely. Its candidates
    # come straight from one vectorized index intersection, so this is
    # charged as chunks are actually processed, not here.
    attr = kept[index]
    alive = _bind_join_attribute(
        attr, _active_for(attr, participants, bound_count),
        participants, bound_count, cursor, frontier,
        emit=attr in out_set,
    )
    if not alive or frontier.size == 0:
        return
    index += 1
    remaining = kept[index:]

    # Phase C: complete contiguous slices of the sorted frontier.
    total = frontier.size
    for lo in range(0, total, chunk_rows):
        hi = min(lo + chunk_rows, total)
        chunk = _Frontier()
        chunk.size = hi - lo
        chunk.columns = {a: c[lo:hi] for a, c in frontier.columns.items()}
        chunk_cursor = [
            None if c is None else c[lo:hi] for c in cursor
        ]
        chunk_bound = list(bound_count)
        if stats is not None:
            stats.enumerated_tuples += chunk.size
        alive = True
        for attr in remaining:
            active = _active_for(attr, participants, chunk_bound)
            if attr in selections:
                alive = _bind_selection(
                    attr, selections[attr], active, participants,
                    chunk_bound, chunk_cursor, chunk,
                )
            else:
                alive = _bind_join_attribute(
                    attr, active, participants, chunk_bound, chunk_cursor,
                    chunk, emit=attr in out_set,
                )
                if alive and stats is not None:
                    stats.enumerated_tuples += chunk.size
            if not alive or chunk.size == 0:
                alive = False
                break
        if not alive:
            continue
        yield Relation(name, names, [chunk.columns[a] for a in out_in_order])


def _exists_relation(name: str, satisfied: bool) -> Relation:
    """A one/zero-row sentinel for boolean (fully selected) subqueries."""
    return Relation(
        name,
        ["__exists__"],
        [np.zeros(1 if satisfied else 0, dtype=VALUE_DTYPE)],
    )


def _bind_selection(
    attr: Variable,
    value: int,
    active: list[int],
    participants: list[Participant],
    bound_count: list[int],
    cursor: list[np.ndarray | None],
    frontier: _Frontier,
) -> bool:
    """Probe ``value`` in every active participant; filter the frontier."""
    mask: np.ndarray | None = None
    started_positions: dict[int, np.ndarray] = {}
    fresh_positions: dict[int, int] = {}
    for i in active:
        trie = participants[i].trie
        level = bound_count[i]
        if level == 0:
            # Fresh participant: one probe of the root set. O(1) for the
            # bitset layout, O(log n) for the uint array (Section III-A).
            if not trie.child_set(trie.root).contains(value):
                return False
            fresh_positions[i] = int(
                trie.root_positions(np.asarray([value], dtype=VALUE_DTYPE))[0]
            )
        else:
            found, child_pos = trie.probe_rows(level - 1, cursor[i], value)
            mask = found if mask is None else (mask & found)
            started_positions[i] = child_pos
        bound_count[i] += 1

    if mask is not None and not mask.all():
        frontier.filter(mask)
        for i in range(len(participants)):
            if cursor[i] is not None and i not in started_positions:
                cursor[i] = cursor[i][mask]
        started_positions = {
            i: positions[mask] for i, positions in started_positions.items()
        }
        if frontier.size == 0:
            return False
    for i, positions in started_positions.items():
        cursor[i] = positions
    for i, position in fresh_positions.items():
        cursor[i] = np.full(frontier.size, position, dtype=np.int64)
    return True


def _bind_join_attribute(
    attr: Variable,
    active: list[int],
    participants: list[Participant],
    bound_count: list[int],
    cursor: list[np.ndarray | None],
    frontier: _Frontier,
    emit: bool,
) -> bool:
    """Extend the frontier by one join attribute (vectorized)."""
    started = [i for i in active if bound_count[i] > 0]
    fresh = [i for i in active if bound_count[i] == 0]

    if not started:
        # All participants see this attribute first: one multiway
        # intersection of root sets, crossed with the frontier.
        sets = [
            participants[i].trie.child_set(participants[i].trie.root)
            for i in fresh
        ]
        values = intersect_many(sets)
        if values.size == 0:
            return False
        n_values = values.shape[0]
        row_ids = np.repeat(
            np.arange(frontier.size, dtype=np.int64), n_values
        )
        tiled = np.tile(values, frontier.size)
        new_cursors = {
            i: np.tile(
                participants[i].trie.root_positions(values), frontier.size
            )
            for i in fresh
        }
        _advance(
            participants, bound_count, cursor, frontier,
            active, row_ids, tiled, new_cursors, attr, emit,
        )
        return True

    # Pick the started participant with the smallest total expansion —
    # the leapfrog min-set rule, which keeps the run worst-case optimal.
    totals = {}
    for i in started:
        counts = participants[i].trie.child_counts(
            bound_count[i] - 1, cursor[i]
        )
        totals[i] = (int(counts.sum()), counts)
    pivot = min(started, key=lambda i: totals[i][0])
    counts = totals[pivot][1]
    _, values, pivot_positions = participants[pivot].trie.expand_children(
        bound_count[pivot] - 1, cursor[pivot]
    )
    row_ids = np.repeat(np.arange(frontier.size, dtype=np.int64), counts)

    keep = np.ones(values.shape[0], dtype=bool)
    # Cheap constant filters first: fresh participants' root sets give
    # O(1) bitset membership or one vectorized binary search.
    for i in fresh:
        root_set = participants[i].trie.child_set(participants[i].trie.root)
        keep &= root_set.contains_many(values)
        if not keep.any():
            return False
    # Per-row probes into the other started participants.
    other_positions: dict[int, np.ndarray] = {}
    for i in started:
        if i == pivot:
            continue
        found, child_pos = participants[i].trie.descend_rows(
            bound_count[i] - 1, cursor[i][row_ids], values
        )
        keep &= found
        other_positions[i] = child_pos
        if not keep.any():
            return False

    if not keep.all():
        row_ids = row_ids[keep]
        values = values[keep]
        pivot_positions = pivot_positions[keep]
        other_positions = {
            i: positions[keep] for i, positions in other_positions.items()
        }
    if values.size == 0:
        return False

    new_cursors: dict[int, np.ndarray] = {pivot: pivot_positions}
    new_cursors.update(other_positions)
    for i in fresh:
        new_cursors[i] = participants[i].trie.root_positions(values)
    _advance(
        participants, bound_count, cursor, frontier,
        active, row_ids, values, new_cursors, attr, emit,
    )
    return True


def _advance(
    participants: list[Participant],
    bound_count: list[int],
    cursor: list[np.ndarray | None],
    frontier: _Frontier,
    active: list[int],
    row_ids: np.ndarray,
    values: np.ndarray,
    new_cursors: dict[int, np.ndarray],
    attr: Variable,
    emit: bool,
) -> None:
    """Install the new frontier after binding ``attr``."""
    frontier.gather(row_ids)
    for i, positions in new_cursors.items():
        cursor[i] = positions
    for i in range(len(participants)):
        if i in new_cursors:
            continue
        existing = cursor[i]
        if existing is not None:
            cursor[i] = existing[row_ids]
    for i in active:
        bound_count[i] += 1
    if emit:
        frontier.columns[attr] = values.astype(VALUE_DTYPE)


# ---------------------------------------------------------------------------
# Reference implementation: Algorithm 1 as written
# ---------------------------------------------------------------------------
def generic_join_recursive(
    attrs: list[Variable],
    participants: list[Participant],
    selections: dict[Variable, int],
    output_attrs: list[Variable],
    name: str = "join",
) -> Relation:
    """Tuple-at-a-time Algorithm 1 (executable specification)."""
    kept = plan_attribute_list(attrs, participants, selections, output_attrs)
    out_in_order = [a for a in kept if a in set(output_attrs)]
    kept_set = set(kept)
    for participant in participants:
        if not any(a in kept_set for a in participant.attrs):
            if participant.trie.num_tuples == 0:
                return _empty_result(out_in_order, name)

    rows: list[tuple[int, ...]] = []
    cursors: list[TrieNode] = [p.trie.root for p in participants]
    active_at = [
        [i for i, p in enumerate(participants) if attr in p.attrs]
        for attr in kept
    ]
    out_set = set(out_in_order)

    def recurse(level: int, prefix: tuple[int, ...]) -> None:
        if level == len(kept):
            rows.append(prefix)
            return
        attr = kept[level]
        active = active_at[level]
        selected_value = selections.get(attr)
        saved = {i: cursors[i] for i in active}
        if selected_value is not None:
            for i in active:
                child = participants[i].trie.descend(
                    cursors[i], selected_value
                )
                if child is None:
                    for j, node in saved.items():
                        cursors[j] = node
                    return
                cursors[i] = child
            recurse(level + 1, prefix)
            for i, node in saved.items():
                cursors[i] = node
            return
        sets = [participants[i].trie.child_set(cursors[i]) for i in active]
        values = intersect_many(sets)
        in_output = attr in out_set
        for value in values:
            value = int(value)
            for i in active:
                cursors[i] = participants[i].trie.descend(saved[i], value)
            recurse(level + 1, prefix + ((value,) if in_output else ()))
        for i, node in saved.items():
            cursors[i] = node

    recurse(0, ())
    if not out_in_order:
        return _exists_relation(name, satisfied=bool(rows))
    if not rows:
        return _empty_result(out_in_order, name)
    matrix = np.asarray(sorted(set(rows)), dtype=VALUE_DTYPE)
    columns = [matrix[:, i] for i in range(len(out_in_order))]
    return Relation(name, [v.name for v in out_in_order], columns)


__all__ = [
    "Participant",
    "generic_join",
    "generic_join_stream",
    "generic_join_recursive",
    "plan_attribute_list",
    "intersect_arrays",
]
