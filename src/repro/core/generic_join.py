"""The generic worst-case optimal join (Algorithm 1 of the paper).

For an attribute order ``[a1, ..., ak]`` the algorithm binds one
attribute at a time: at attribute ``ai`` it intersects the candidate
sets of every relation containing ``ai`` (given the bound prefix) and
extends each partial tuple by the intersection. Ngo et al. showed this
runs within the AGM bound — on a triangle, O(N^{3/2}) versus the Ω(N²)
of any pairwise plan.

There is one binding loop, and it is *level-synchronous*: instead of
recursing per tuple it keeps a columnar frontier of all partial
bindings, each row with its node position in every participant's trie,
and binds one attribute per step with vectorized trie kernels. The
smallest participating relation is expanded in bulk (the leapfrog
"min-set" rule, which preserves the worst-case optimal bound) and every
other participant filters the candidates: a fresh one by O(1) bitset
or binary-search membership in its root set, a started one by a
per-row probe of its trie level (:meth:`Trie.descend_rows`), where a
hashed bytemap drops most misses before a binary search of the
level's packed keys confirms the rest. This is the numpy analogue of the
tight compiled loops EmptyHeaded generates — every engine in this
library gets its bulk work done by the same numpy machinery, keeping
cross-engine comparisons about algorithms.

A join runs in two parts. The start step checks the guards, binds the
leading selections and then the first join attribute in full (one
vectorized index intersection). :func:`_complete` binds the remaining
attributes for a frontier. :func:`generic_join_stream` completes
contiguous ``chunk_rows``-row slices of the started frontier;
:func:`generic_join` completes the whole frontier at once, so the
materialized join is the stream drained in one chunk: the same rows, in
the same order, charged the same ``enumerated_tuples``.

:func:`generic_join_recursive` is a direct transcription of Algorithm 1
(tuple-at-a-time recursion). It exists as an executable specification:
property tests check the frontier loop, whole and chunked, against it
on random databases.

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
from repro.sets.base import VALUE_DTYPE, SetLayout
from repro.sets.intersect import intersect_many
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


def relation_participant(
    relation: Relation,
    attrs: list[Variable],
    label: str,
    force_layout: SetLayout | None = None,
) -> Participant | None:
    """A materialized result as a participant: projected onto its
    attributes in ``attrs`` order, deduplicated, as a trie (``None``
    when it shares no attribute with ``attrs``)."""
    shared = [v for v in attrs if v.name in relation.attributes]
    if not shared:
        return None
    names = [v.name for v in shared]
    # distinct() leaves the rows sorted in ``names`` order: no re-sort.
    projected = relation.project(names).distinct()
    trie = Trie.from_sorted_distinct(
        projected.columns, names, force_layout=force_layout
    )
    return Participant(trie=trie, attrs=tuple(shared), label=label)


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
# Shared preamble and answer
# ---------------------------------------------------------------------------
def _prepare(
    attrs: list[Variable],
    participants: list[Participant],
    selections: dict[Variable, int],
    output_attrs: list[Variable],
) -> tuple[list[Variable], list[Variable], bool]:
    """The preamble every implementation runs first.

    Returns the kept attribute order (:func:`plan_attribute_list`), the
    output attributes in that order, and whether the join can have rows
    at all: a participant whose attributes were all truncated only
    guards existence, so an empty one empties the join.
    """
    kept = plan_attribute_list(attrs, participants, selections, output_attrs)
    out_set = set(output_attrs)
    kept_set = set(kept)
    feasible = all(
        p.trie.num_tuples > 0
        for p in participants
        if kept_set.isdisjoint(p.attrs)
    )
    return kept, [a for a in kept if a in out_set], feasible


def _result(
    name: str,
    output: list[Variable],
    columns: dict[Variable, np.ndarray] | None,
) -> Relation:
    """The answer from completed frontier columns (``None``: no rows).

    A join with no output attribute is an existence check: it answers
    with the one-row (or zero-row) ``__exists__`` sentinel the executor
    tests for emptiness.
    """
    if not output:
        return Relation(
            name,
            ["__exists__"],
            [np.zeros(0 if columns is None else 1, dtype=VALUE_DTYPE)],
        )
    names = [v.name for v in output]
    if columns is None:
        return Relation.empty(name, names)
    return Relation(name, names, [columns[a] for a in output])


# ---------------------------------------------------------------------------
# Level-synchronous frontier: one binding loop
# ---------------------------------------------------------------------------
_Step = tuple[Variable, int | None, bool]
"""One attribute to bind: ``(attr, value, emit)``. ``value`` is the
selected constant, or ``None`` for a join attribute, whose values become
an output column if ``emit``."""


class _Frontier:
    """Columnar state: all partial bindings after some bound prefix.

    Each row also carries its place in every participant's trie:
    ``bound_count[i]`` is how many of participant ``i``'s levels are
    bound, and ``cursor[i]`` holds the rows' node positions at level
    ``bound_count[i] - 1`` (``None`` until its first level is bound).
    """

    __slots__ = ("participants", "size", "columns", "bound_count", "cursor")

    def __init__(self, participants: list[Participant]) -> None:
        self.participants = participants
        self.size = 1  # one empty binding
        self.columns: dict[Variable, np.ndarray] = {}
        self.bound_count = [0] * len(participants)
        self.cursor: list[np.ndarray | None] = [None] * len(participants)

    def rows(self, lo: int, hi: int) -> "_Frontier":
        """Rows ``lo:hi`` as a frontier of their own (views, no copies).

        A contiguous slice of a sorted frontier keeps the global order.
        """
        chunk = _Frontier(self.participants)
        chunk.size = min(hi, self.size) - lo
        chunk.columns = {a: c[lo:hi] for a, c in self.columns.items()}
        chunk.bound_count = list(self.bound_count)
        chunk.cursor = [None if c is None else c[lo:hi] for c in self.cursor]
        return chunk

    def keep(self, index: np.ndarray, cursors: dict[int, np.ndarray]) -> None:
        """Keep the rows ``index`` picks: a boolean mask, or row ids that
        may repeat a row. ``cursors`` are the new positions, already in
        the kept rows' order, of the participants they name; every other
        started participant's positions follow the rows."""
        self.columns = {a: c[index] for a, c in self.columns.items()}
        for i, positions in enumerate(self.cursor):
            if i in cursors:
                self.cursor[i] = cursors[i]
            elif positions is not None:
                self.cursor[i] = positions[index]
        self.size = int(index.sum() if index.dtype == bool else index.shape[0])


def _start(
    attrs: list[Variable],
    participants: list[Participant],
    selections: dict[Variable, int],
    output_attrs: list[Variable],
) -> tuple[list[Variable], _Frontier | None, list[_Step] | None]:
    """The start step: the guards, the leading selections (the frontier
    stays one row) and the first join attribute, bound in full.

    The first join attribute costs one vectorized index intersection —
    index work, not output enumeration — so it is not charged here;
    :func:`_complete` charges the rows it is handed instead.

    Returns the output attributes in binding order, the frontier
    (``None`` when the join is already known to be empty) and the steps
    left to complete it (``None`` when no join attribute is kept: every
    attribute is selected and the frontier is final).
    """
    kept, output, feasible = _prepare(
        attrs, participants, selections, output_attrs
    )
    if not feasible:
        return output, None, None
    out_set = set(output)
    steps = [(a, selections.get(a), a in out_set) for a in kept]
    frontier = _Frontier(participants)
    for k, (attr, value, emit) in enumerate(steps):
        if not _bind(frontier, attr, value, emit):
            return output, None, None
        if value is None:  # the first join attribute
            return output, frontier, steps[k + 1 :]
    return output, frontier, None


def _complete(
    frontier: _Frontier, steps: list[_Step], stats: "object | None"
) -> _Frontier | None:
    """Bind ``steps`` for every row of a started frontier (``None``: no
    row survives).

    ``stats.enumerated_tuples`` (when given) is charged the rows the
    frontier enters with plus its size after each join binding — the
    partial tuples actually carried.
    """
    if stats is not None:
        stats.enumerated_tuples += frontier.size
    for attr, value, emit in steps:
        if not _bind(frontier, attr, value, emit):
            return None
        if stats is not None and value is None:
            stats.enumerated_tuples += frontier.size
    return frontier


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
    results are duplicate-free). With no output attribute left the join
    is an existence check and answers with the ``__exists__`` sentinel.

    This is :func:`generic_join_stream` drained in one chunk: the whole
    started frontier is completed at once. ``stats``, when given, must
    expose an integer ``enumerated_tuples`` attribute, charged as
    :func:`_complete` describes — the executor's work measure.
    """
    output, frontier, rest = _start(
        attrs, participants, selections, output_attrs
    )
    if frontier is not None and rest is not None:
        frontier = _complete(frontier, rest, stats)
    columns = None if frontier is None else frontier.columns
    return _result(name, output, columns)


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

    The contract that makes streaming useful for top-k: the frontier
    stays lexicographically sorted in binding order (sorted trie
    children, row-major expansion), so if the caller orders ``attrs``
    as ``[selections..., output_attrs in output order, rest...]`` the
    concatenated chunks are exactly the materialized result's rows
    sorted by the output columns — i.e. ``distinct()`` order — with
    duplicate output rows adjacent. A consumer can then deduplicate by
    comparing neighbours and stop pulling once ``offset + limit``
    distinct rows exist, without enumerating the rest.

    Laziness is chunked, not tuple-at-a-time: the start step binds the
    leading selections and the first join attribute in full, and the
    resulting frontier is then completed through the remaining
    attributes ``chunk_rows`` rows at a time. Only non-empty chunks are
    yielded; an existence check (no output attribute) yields its
    one-row sentinel once, at the first chunk with a witness.

    ``stats.enumerated_tuples`` (when given) is charged per chunk as
    :func:`_complete` describes, so an abandoned stream never charges
    for work it did not do, and a drained one charges exactly what
    :func:`generic_join` does.
    """
    output, frontier, rest = _start(
        attrs, participants, selections, output_attrs
    )
    if frontier is None:
        return
    if rest is None:
        yield _result(name, output, frontier.columns)
        return
    for lo in range(0, frontier.size, chunk_rows):
        chunk = _complete(frontier.rows(lo, lo + chunk_rows), rest, stats)
        if chunk is not None:
            yield _result(name, output, chunk.columns)
            if not output:
                return


def _bind(
    frontier: _Frontier, attr: Variable, value: int | None, emit: bool
) -> bool:
    """Bind one attribute (one :data:`_Step`) in the participants whose
    next unbound level it is; ``False`` when no row survives."""
    bound_count = frontier.bound_count
    active = [
        i
        for i, p in enumerate(frontier.participants)
        if bound_count[i] < len(p.attrs) and p.attrs[bound_count[i]] == attr
    ]
    if value is not None:
        return _bind_selection(frontier, value, active)
    return _bind_join_attribute(frontier, attr, active, emit)


def _bind_selection(
    frontier: _Frontier, value: int, active: list[int]
) -> bool:
    """Probe ``value`` in every active participant; filter the frontier."""
    mask: np.ndarray | None = None
    started: dict[int, np.ndarray] = {}
    fresh: dict[int, int] = {}
    for i in active:
        trie = frontier.participants[i].trie
        level = frontier.bound_count[i]
        if level == 0:
            # Fresh participant: one probe of the root set. O(1) for the
            # bitset layout, O(log n) for the uint array (Section III-A).
            if not trie.child_set(trie.root).contains(value):
                return False
            fresh[i] = int(
                trie.root_positions(np.asarray([value], dtype=VALUE_DTYPE))[0]
            )
        else:
            found, child_pos = trie.probe_rows(
                level - 1, frontier.cursor[i], value
            )
            mask = found if mask is None else (mask & found)
            started[i] = child_pos
        frontier.bound_count[i] += 1

    if mask is not None and not mask.all():
        frontier.keep(
            mask, {i: positions[mask] for i, positions in started.items()}
        )
        if frontier.size == 0:
            return False
    else:
        for i, positions in started.items():
            frontier.cursor[i] = positions
    for i, position in fresh.items():
        frontier.cursor[i] = np.full(frontier.size, position, dtype=np.int64)
    return True


def _bind_join_attribute(
    frontier: _Frontier, attr: Variable, active: list[int], emit: bool
) -> bool:
    """Extend the frontier by one join attribute (vectorized)."""
    participants = frontier.participants
    bound_count, cursor = frontier.bound_count, frontier.cursor
    started = [i for i in active if bound_count[i] > 0]
    fresh = [i for i in active if bound_count[i] == 0]

    if not started:
        # All participants see this attribute first: one multiway
        # intersection of root sets, crossed with the frontier.
        roots = intersect_many(
            [participants[i].trie.child_set(participants[i].trie.root)
             for i in fresh]
        )
        if roots.size == 0:
            return False
        row_ids = np.repeat(
            np.arange(frontier.size, dtype=np.int64), roots.shape[0]
        )
        values = np.tile(roots, frontier.size)
        new_cursors = {
            i: np.tile(
                participants[i].trie.root_positions(roots), frontier.size
            )
            for i in fresh
        }
    else:
        # Pick the started participant with the smallest total expansion
        # — the leapfrog min-set rule, which keeps the run worst-case
        # optimal.
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
        # Cheap constant filters first: fresh participants' root sets
        # give O(1) bitset membership or one vectorized binary search.
        for i in fresh:
            trie = participants[i].trie
            keep &= trie.child_set(trie.root).contains_many(values)
            if not keep.any():
                return False
        # Per-row probes into the other started participants.
        new_cursors = {pivot: pivot_positions}
        for i in started:
            if i == pivot:
                continue
            found, child_pos = participants[i].trie.descend_rows(
                bound_count[i] - 1, cursor[i][row_ids], values
            )
            keep &= found
            new_cursors[i] = child_pos
            if not keep.any():
                return False

        if not keep.all():
            row_ids = row_ids[keep]
            values = values[keep]
            new_cursors = {
                i: positions[keep] for i, positions in new_cursors.items()
            }
        if values.size == 0:
            return False
        for i in fresh:
            new_cursors[i] = participants[i].trie.root_positions(values)

    frontier.keep(row_ids, new_cursors)
    for i in active:
        bound_count[i] += 1
    if emit:
        frontier.columns[attr] = values.astype(VALUE_DTYPE)
    return True


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
    kept, output, feasible = _prepare(
        attrs, participants, selections, output_attrs
    )
    if not feasible:
        return _result(name, output, None)

    rows: list[tuple[int, ...]] = []
    cursors: list[TrieNode] = [p.trie.root for p in participants]
    active_at = [
        [i for i, p in enumerate(participants) if attr in p.attrs]
        for attr in kept
    ]
    out_set = set(output)

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
    if not rows:
        return _result(name, output, None)
    matrix = np.asarray(sorted(set(rows)), dtype=VALUE_DTYPE)
    columns = {a: matrix[:, k] for k, a in enumerate(output)}
    return _result(name, output, columns)


__all__ = [
    "Participant",
    "generic_join",
    "generic_join_stream",
    "generic_join_recursive",
    "plan_attribute_list",
    "relation_participant",
]
