"""Pessimistic cardinality bounds driving the attach-order search.

The paper's +Attribute heuristic promotes "attributes with selections or
small initial cardinalities"; under skew a distinct count is the wrong
signal (a celebrity value binds 100k rows, the median value 5). This
module is that optimization's only order policy: an upper-bound-driven
search in the UES style, where every candidate attach order is scored
by the sum over its prefixes of a *product of frequency bounds* on the
intermediate frontier, and the minimum-bound order wins. It reads only
the store's frequency sketches, never a column.

For a variable ``v`` extended after the set ``B`` of already-bound
variables, each atom covering ``v`` yields an upper bound on how many
``v`` values one bound prefix tuple can fan out to:

* a selection on ``v`` binds it outright → 1;
* a co-occurring *selected* variable ``u = val`` caps the atom's
  contribution at the sketched frequency ``count(val)`` of that value —
  this is where skew awareness pays: a cold value caps the frontier at
  a handful of rows, a hot value honestly reports its 100k;
* a co-occurring already-bound variable ``u`` caps it at the atom's
  ``max_count`` over ``u`` (no single ``u`` value fans out further);
* otherwise the atom caps ``v`` at its column's distinct count.

The extension bound is the minimum over covering atoms; products of
extension bounds along a prefix bound the frontier after that prefix
(each is a per-tuple fan-out ceiling), so the scores are true upper
bounds, never underestimates — the pessimistic half of the design.

Ties break toward the GHD's appearance order, which keeps the paper's
BFS order (and the pipelining prefix property it tends to satisfy)
whenever the statistics see no difference.
"""

from __future__ import annotations

from itertools import permutations

from repro.core.attribute_order import appearance_order
from repro.core.ghd import GHD
from repro.core.query import NormalizedQuery, Variable
from repro.core.sketch import FrequencySketch, TableSketches

#: Permutations are scored exhaustively up to this many unselected
#: variables (7! = 5040 candidate orders, scored once per cached plan);
#: beyond it a greedy min-extension-bound construction takes over.
MAX_EXHAUSTIVE_VARS = 7

#: Extension bound used when no sketch covers a variable at all.
_UNKNOWN = 1 << 62

#: Per-value re-optimization: a cached plan is re-planned when a bound
#: value's sketched count leaves the plan's assumption by more than this
#: factor, and counts within one factor share a selectivity class.
REOPTIMIZE_FACTOR = 8.0


def atom_sketch(
    sketches: TableSketches, relation: str, position: int
) -> FrequencySketch | None:
    """The sketch backing column ``position`` of ``relation``.

    Per-table sketch dicts preserve the stored column order, so the
    positional lookup needs no catalog. Derived relations (repeated
    variables) have no sketches and resolve to ``None``.
    """
    table = sketches.get(relation)
    if table is None:
        return None
    columns = list(table.values())
    if position >= len(columns):
        return None
    return columns[position]


def selection_counts(
    query: NormalizedQuery, sketches: TableSketches
) -> dict[Variable, int]:
    """Sketched row frequency of each selection's bound value.

    The minimum across covering atoms (any one atom's rows cap the
    matches). Variables no sketch covers are omitted — callers treat
    them as unknown rather than guessing.
    """
    counts: dict[Variable, int] = {}
    for atom in query.atoms:
        for position, var in enumerate(atom.variables):
            value = query.selections.get(var)
            if value is None:
                continue
            sketch = atom_sketch(sketches, atom.relation, position)
            if sketch is None:
                continue
            count = sketch.count(value)
            current = counts.get(var)
            if current is None or count < current:
                counts[var] = count
    return counts


def value_class(
    counts: dict[Variable, int], factor: float
) -> tuple[tuple[str, int], ...]:
    """A hashable selectivity class for a set of bound values.

    Each sketched count maps to its logarithmic bucket in base
    ``factor``, so all values within one ``factor`` of each other share
    a class (and therefore a cached plan).
    """
    buckets = []
    for var in sorted(counts, key=lambda v: v.name):
        count = counts[var]
        bucket = 0
        while count >= factor**(bucket + 1):
            bucket += 1
        buckets.append((var.name, bucket))
    return tuple(buckets)


def counts_diverge(
    assumed: dict[Variable, int],
    current: dict[Variable, int],
    factor: float,
) -> bool:
    """Whether any bound value's frequency left the cached plan's
    assumption by more than ``factor`` (in either direction).

    Add-one smoothing keeps zero counts comparable: 0 vs 5 diverges at
    factor 8 only once the hot side reaches 7, matching the bucketing.
    """
    for var, count in current.items():
        anchor = assumed.get(var)
        if anchor is None:
            return True
        low, high = sorted((anchor + 1, count + 1))
        if high >= low * factor:
            return True
    return False


class _BoundModel:
    """Extension-bound oracle for one query over one sketch registry."""

    def __init__(
        self, query: NormalizedQuery, sketches: TableSketches
    ) -> None:
        self.query = query
        self.sketches = sketches
        #: (atom index, position) pairs covering each variable.
        self.occurrences: dict[Variable, list[tuple[int, int]]] = {}
        for index, atom in enumerate(query.atoms):
            for position, var in enumerate(atom.variables):
                self.occurrences.setdefault(var, []).append(
                    (index, position)
                )
        self._cache: dict[tuple[Variable, frozenset[Variable]], int] = {}

    def extension_bound(
        self, var: Variable, bound: frozenset[Variable]
    ) -> int:
        """Max values of ``var`` one tuple over ``bound`` extends to."""
        if var in self.query.selections:
            return 1
        relevant = bound & self._covars(var)
        key = (var, relevant)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        best = _UNKNOWN
        for atom_index, position in self.occurrences[var]:
            atom = self.query.atoms[atom_index]
            own = atom_sketch(self.sketches, atom.relation, position)
            candidate = own.distinct if own is not None else _UNKNOWN
            for other_position, other in enumerate(atom.variables):
                if other is var or other == var:
                    continue
                sketch = atom_sketch(
                    self.sketches, atom.relation, other_position
                )
                if sketch is None:
                    continue
                value = self.query.selections.get(other)
                if value is not None:
                    candidate = min(candidate, sketch.count(value))
                elif other in relevant:
                    candidate = min(candidate, sketch.max_count)
            best = min(best, candidate)
        self._cache[key] = best
        return best

    def _covars(self, var: Variable) -> frozenset[Variable]:
        out: set[Variable] = set()
        for atom_index, _ in self.occurrences[var]:
            out.update(self.query.atoms[atom_index].variables)
        out.discard(var)
        return frozenset(out)

    def score(self, order: list[Variable]) -> int:
        """Sum of frontier bounds over the order's prefixes."""
        bound: set[Variable] = set(self.query.selections)
        frontier = 1
        total = 0
        for var in order:
            extension = self.extension_bound(var, frozenset(bound))
            frontier = min(frontier * extension, _UNKNOWN)
            total += frontier
            bound.add(var)
        return total


def bound_attribute_order(
    query: NormalizedQuery,
    ghd: GHD,
    sketches: TableSketches,
) -> tuple[list[Variable], dict[Variable, int]]:
    """The minimum-bound attach order plus its per-variable bounds.

    Selections stay in front (in appearance order — probing a trie for
    a constant before enumerating anything is always right); the
    unselected variables are ordered by exhaustive scoring up to
    :data:`MAX_EXHAUSTIVE_VARS`, greedily beyond.
    """
    base = appearance_order(query, ghd)
    selected = [v for v in base if v in query.selections]
    unselected = [v for v in base if v not in query.selections]
    model = _BoundModel(query, sketches)
    if len(unselected) <= 1:
        chosen = unselected
    elif len(unselected) <= MAX_EXHAUSTIVE_VARS:
        best_score: int | None = None
        chosen = unselected
        # permutations() of the appearance-ordered list emits candidates
        # in appearance-lexicographic order, so strict `<` makes ties
        # resolve toward the paper's BFS order.
        for candidate in permutations(unselected):
            score = model.score(list(candidate))
            if best_score is None or score < best_score:
                best_score = score
                chosen = list(candidate)
    else:
        remaining = list(unselected)
        bound: set[Variable] = set(selected)
        chosen = []
        while remaining:
            next_var = min(
                remaining,
                key=lambda v: (
                    model.extension_bound(v, frozenset(bound)),
                    base.index(v),
                ),
            )
            remaining.remove(next_var)
            chosen.append(next_var)
            bound.add(next_var)

    order = selected + chosen
    bounds: dict[Variable, int] = {}
    running: set[Variable] = set()
    for var in order:
        bounds[var] = min(
            model.extension_bound(var, frozenset(running)), _UNKNOWN
        )
        running.add(var)
    return order, bounds
