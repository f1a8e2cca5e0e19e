"""RDF-3X-like specialized RDF engine.

Follows the design the paper summarizes in its related work: dictionary
encoding, clustered indexes over **all six** triple permutations,
aggregate indexes for selectivity estimation, and a cost-based optimizer
that picks the best pairwise join order. Triple patterns resolve to
contiguous index ranges (never full scans), which is why RDF-3X is fast
on the selective acyclic LUBM queries — and still asymptotically
suboptimal on the cyclic ones, where it executes pairwise plans.

The paper measures it on static loads (Table II), so an update is
absorbed by rebuilding the six indexes from the store on the next query,
through the same :meth:`RDF3XLikeEngine._build_structures` the
constructor runs. The (indexes, key map, stats) bundle is swapped
atomically and read once per execution, so queries racing updates see
one consistent epoch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.modifiers import finalize_result
from repro.core.query import Atom, ConjunctiveQuery, NormalizedQuery, normalize
from repro.engines.base import Engine
from repro.engines.leaves import existence_leaf, materialized_leaf
from repro.engines.triple_index import ALL_PERMUTATIONS, TripleTable
from repro.errors import ExecutionError, UnknownRelationError
from repro.relalg.estimates import EstimatedRelation
from repro.relalg.kernels import join_in_order
from repro.relalg.selinger import selinger_join_order
from repro.storage.relation import Relation
from repro.storage.vertical import (
    OBJECT,
    SUBJECT,
    TRIPLES_RELATION,
    VerticallyPartitionedStore,
)


class _State(NamedTuple):
    """Immutable engine-structure bundle (swapped atomically).

    ``predicate_stats`` holds the aggregate indexes the planner consults:
    per predicate key ``(triples, distinct subjects, distinct objects)``.
    """

    triples: TripleTable
    predicate_key: dict[str, int]
    predicate_stats: dict[int, tuple[int, int, int]]


class RDF3XLikeEngine(Engine):
    """Six-permutation index engine with DP join ordering ("RDF-3X")."""

    name = "rdf3x-like"
    permutations = ALL_PERMUTATIONS

    def __init__(self, store: VerticallyPartitionedStore) -> None:
        super().__init__(store)
        self._build_structures()

    def _build_structures(self) -> None:
        # Predicate lookup: relation-name -> encoded predicate id. Only
        # predicates with a live table resolve (a predicate emptied by
        # remove_triples short-circuits at the engine layer anyway).
        predicate_key = {
            name: self.store.dictionary.require(
                self.store.predicate_iris[name]
            )
            for name in self.store.tables
        }
        # Seed the aggregate indexes from the store's shared frequency
        # sketches (exact histograms, one build amortized across every
        # engine) instead of re-scanning each predicate's range.
        sketches = self.store.column_sketches()
        predicate_stats: dict[int, tuple[int, int, int]] = {}
        missing: list[str] = []
        for name, key in predicate_key.items():
            table = sketches.get(name)
            if table is None or SUBJECT not in table or OBJECT not in table:
                missing.append(name)
                continue
            subject, obj = table[SUBJECT], table[OBJECT]
            if subject.total:
                predicate_stats[key] = (
                    subject.total,
                    subject.distinct,
                    obj.distinct,
                )
        triples = TripleTable(
            self.store, self.permutations, compute_stats=bool(missing)
        )
        for name in missing:  # pragma: no cover - registry covers tables
            key = predicate_key[name]
            if key in triples.predicate_stats:
                predicate_stats[key] = triples.predicate_stats[key]
        self._state = _State(triples, predicate_key, predicate_stats)

    @property
    def triples(self) -> TripleTable:
        return self._state.triples

    # ------------------------------------------------------------------
    # Leaf access paths
    # ------------------------------------------------------------------
    def _triples_leaf(
        self, state: _State, query: NormalizedQuery, atom: Atom
    ) -> tuple[Relation, EstimatedRelation]:
        """Resolve a variable-predicate pattern: a ``__triples__`` atom
        over (subject, predicate, object), any subset bound.

        This is where RDF-3X's design shines — the six permutation
        indexes cover every bound/free combination including a free
        predicate, so no per-predicate union is materialized.
        """
        if len(atom.terms) != 3:
            raise ExecutionError(
                f"{TRIPLES_RELATION} patterns have exactly three terms"
            )
        letter_vars = list(zip("spo", atom.terms))
        bound_for: dict[str, int] = {}
        for letter, var in letter_vars:
            value = query.selections.get(var)
            if value is not None:
                bound_for[letter] = value
        permutation = state.triples.best_permutation(
            "s" in bound_for, "p" in bound_for, "o" in bound_for
        )
        index = state.triples.index(permutation)
        prefix: list[int] = []
        for letter in permutation:
            if letter not in bound_for:
                break
            prefix.append(bound_for[letter])
        lo, hi = index.range_for_prefix(*prefix)

        free = [
            (letter, var)
            for letter, var in letter_vars
            if var not in query.selections
        ]
        if not free:
            return existence_leaf(f"{TRIPLES_RELATION}_exists", hi > lo)
        columns = index.slice_columns(
            lo, hi, "".join(letter for letter, _ in free)
        )
        return materialized_leaf(
            f"{TRIPLES_RELATION}_scan",
            [(var.name, column) for (_, var), column in zip(free, columns)],
        )

    def _pattern_leaf(
        self, state: _State, query: NormalizedQuery, atom: Atom
    ) -> tuple[Relation, EstimatedRelation]:
        """Resolve one triple pattern via the best permutation index."""
        if atom.relation == TRIPLES_RELATION:
            return self._triples_leaf(state, query, atom)
        predicate_key = state.predicate_key.get(atom.relation)
        if predicate_key is None:
            raise UnknownRelationError(
                atom.relation, sorted(state.predicate_key)
            )
        if len(atom.terms) != 2:
            raise ExecutionError(
                "RDF engines evaluate (subject, object) patterns only"
            )
        subject_var, object_var = atom.variables
        bound_s = subject_var in query.selections
        bound_o = object_var in query.selections

        permutation = state.triples.best_permutation(bound_s, True, bound_o)
        index = state.triples.index(permutation)
        prefix: list[int] = []
        for letter in permutation:
            if letter == "p":
                prefix.append(predicate_key)
            elif letter == "s" and bound_s:
                prefix.append(query.selections[subject_var])
            elif letter == "o" and bound_o:
                prefix.append(query.selections[object_var])
            else:
                break
        lo, hi = index.range_for_prefix(*prefix)

        subjects, objects = index.slice_columns(lo, hi, "so")

        free_pairs: list[tuple[str, np.ndarray]] = []
        if not bound_s:
            free_pairs.append((subject_var.name, subjects))
        if not bound_o:
            free_pairs.append((object_var.name, objects))
        if not free_pairs:
            # Fully bound pattern: an existence check. A one/zero-row
            # dummy relation keeps the pairwise pipeline uniform.
            return existence_leaf(
                f"{atom.relation}_exists", subjects.size > 0
            )
        names = [name for name, _ in free_pairs]
        columns = [column for _, column in free_pairs]

        # Repeated variable (?x p ?x): filter for equality, single column.
        if not bound_s and not bound_o and subject_var == object_var:
            mask = columns[0] == columns[1]
            columns = [columns[0][mask]]
            names = [subject_var.name]

        relation = Relation(f"{atom.relation}_scan", names, columns)
        # Selectivity from the aggregate stats — no data touched.
        stats = state.predicate_stats.get(predicate_key)
        _, distinct_s, distinct_o = stats if stats else (0, 0, 0)
        base = {"s": distinct_s, "o": distinct_o}
        free_letters = ("" if bound_s else "s") + ("" if bound_o else "o")
        distincts = {}
        for name, letter in zip(names, free_letters):
            distincts[name] = float(
                min(base[letter] or relation.num_rows, relation.num_rows)
            )
        estimate = EstimatedRelation(
            attributes=tuple(names),
            rows=float(relation.num_rows),
            distincts=distincts,
        )
        return relation, estimate

    # ------------------------------------------------------------------
    def _join_order(self, estimates: list[EstimatedRelation]):
        return selinger_join_order(estimates).order

    def _execute_bound(self, query: ConjunctiveQuery) -> Relation:
        # One bundle snapshot per execution: an update racing this query
        # swaps self._state, never mutates the snapshot.
        state = self._state
        normalized = normalize(query)
        leaves: list[Relation] = []
        estimates: list[EstimatedRelation] = []
        for atom in normalized.atoms:
            leaf, estimate = self._pattern_leaf(state, normalized, atom)
            leaves.append(leaf)
            estimates.append(estimate)

        order = self._join_order(estimates)
        result = join_in_order(leaves, order)

        return finalize_result(result, normalized)
