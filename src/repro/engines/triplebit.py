"""TripleBit-like specialized RDF engine.

TripleBit stores RDF in a compact per-predicate matrix with auxiliary
structures that let it pick effective indexes while keeping far fewer of
them than RDF-3X; its planner is driven greedily by selectivity
estimates of the query patterns.

We model this as per-predicate dual-order matrices: each predicate's
(subject, object) pairs sorted both subject-first and object-first (the
two column orders of TripleBit's matrix), accessed by binary search, with
a greedy selectivity-first pairwise join order. It therefore shares the
pairwise asymptotics of RDF-3X while paying less for index construction.

The paper measures it on static loads (Table II), so an update is
absorbed by rebuilding the matrices from the store on the next query,
through the same :meth:`TripleBitLikeEngine._build_structures` the
constructor runs. The (matrices, key maps, stats) bundle is swapped
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
from repro.errors import ExecutionError, UnknownRelationError
from repro.relalg.estimates import EstimatedRelation
from repro.relalg.greedy import greedy_join_order
from repro.relalg.kernels import join_in_order
from repro.storage.relation import Relation
from repro.storage.vertical import (
    OBJECT,
    SUBJECT,
    TRIPLES_RELATION,
    VerticallyPartitionedStore,
)


class _PredicateMatrix:
    """One predicate's pairs in subject-first and object-first order."""

    __slots__ = (
        "so_subject",
        "so_object",
        "os_object",
        "os_subject",
        "_distinct_subjects",
        "_distinct_objects",
    )

    def __init__(self, relation: Relation) -> None:
        subjects = relation.column("subject")
        objects = relation.column("object")
        so_order = np.lexsort((objects, subjects))
        self.so_subject = subjects[so_order]
        self.so_object = objects[so_order]
        os_order = np.lexsort((subjects, objects))
        self.os_object = objects[os_order]
        self.os_subject = subjects[os_order]
        # Load-time statistics (TripleBit's auxiliary structures) —
        # computed lazily: the engine normally seeds them from the
        # store's shared frequency sketches instead.
        self._distinct_subjects: int | None = None
        self._distinct_objects: int | None = None

    @property
    def distinct_subjects(self) -> int:
        if self._distinct_subjects is None:
            self._distinct_subjects = int(np.unique(self.so_subject).size)
        return self._distinct_subjects

    @property
    def distinct_objects(self) -> int:
        if self._distinct_objects is None:
            self._distinct_objects = int(np.unique(self.os_object).size)
        return self._distinct_objects

    @property
    def num_pairs(self) -> int:
        return int(self.so_subject.shape[0])

    def scan(
        self, bound_subject: int | None, bound_object: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Matching (subject, object) pairs for zero/one/two bound ends."""
        if bound_subject is not None:
            lo = int(np.searchsorted(self.so_subject, bound_subject, "left"))
            hi = int(np.searchsorted(self.so_subject, bound_subject, "right"))
            subjects = self.so_subject[lo:hi]
            objects = self.so_object[lo:hi]
            if bound_object is not None:
                mask = objects == np.uint32(bound_object)
                return subjects[mask], objects[mask]
            return subjects, objects
        if bound_object is not None:
            lo = int(np.searchsorted(self.os_object, bound_object, "left"))
            hi = int(np.searchsorted(self.os_object, bound_object, "right"))
            return self.os_subject[lo:hi], self.os_object[lo:hi]
        return self.so_subject, self.so_object


class _State(NamedTuple):
    """Immutable engine-structure bundle (swapped atomically).

    ``cache`` is a per-bundle scratch dict (e.g. the concatenated
    fully-free triples scan): the bundle's logical content never
    changes, so concurrent fills race benignly — both compute the same
    value and one wins.

    ``predicate_stats`` maps predicate name to
    ``(distinct_subjects, distinct_objects)``, the planner's
    selectivity input.
    """

    matrices: dict[str, _PredicateMatrix]
    predicate_key: dict[str, int]
    matrix_name_for_key: dict[int, str]
    cache: dict
    predicate_stats: dict[str, tuple[int, int]]


class TripleBitLikeEngine(Engine):
    """Per-predicate matrix engine with greedy ordering ("TripleBit")."""

    name = "triplebit-like"

    def __init__(self, store: VerticallyPartitionedStore) -> None:
        super().__init__(store)
        self._build_structures()

    def _build_structures(self) -> None:
        matrices = {
            name: _PredicateMatrix(relation)
            for name, relation in self.store.tables.items()
        }
        # Predicate dictionary keys, for variable-predicate patterns: a
        # free predicate scans every matrix, a bound one picks its matrix
        # directly (TripleBit's predicate-first organization).
        predicate_key = {
            name: self.store.predicate_key(name) for name in self.store.tables
        }
        # Seed the per-predicate distinct counts from the store's shared
        # frequency sketches (exact histograms, one build amortized
        # across every engine); a table the registry misses falls back
        # to the matrix's own unique scan.
        sketches = self.store.column_sketches()
        predicate_stats: dict[str, tuple[int, int]] = {}
        for name, matrix in matrices.items():
            table = sketches.get(name)
            if table is not None and SUBJECT in table and OBJECT in table:
                predicate_stats[name] = (
                    table[SUBJECT].distinct,
                    table[OBJECT].distinct,
                )
            else:  # pragma: no cover - registry covers stored tables
                predicate_stats[name] = (
                    matrix.distinct_subjects,
                    matrix.distinct_objects,
                )
        self._state = _State(
            matrices,
            predicate_key,
            {key: name for name, key in predicate_key.items()},
            {},
            predicate_stats,
        )

    @property
    def matrices(self) -> dict[str, _PredicateMatrix]:
        return self._state.matrices

    def _triples_leaf(
        self, state: _State, query: NormalizedQuery, atom: Atom
    ) -> tuple[Relation, EstimatedRelation]:
        """Resolve a ``__triples__`` atom: a bound predicate picks its
        matrix, a free predicate unions the scans of every matrix with
        the predicate's dictionary key bound into the rows."""
        if len(atom.terms) != 3:
            raise ExecutionError(
                f"{TRIPLES_RELATION} patterns have exactly three terms"
            )
        s_var, p_var, o_var = atom.terms
        bound_s = query.selections.get(s_var)
        bound_p = query.selections.get(p_var)
        bound_o = query.selections.get(o_var)

        # Always scan the snapshot's own matrices — borrowing
        # the store's cached union view here could mix a newer epoch's
        # rows into this execution's older snapshot (a torn read). The
        # fully-free scan is cached on the bundle, so repeated ?s ?p ?o
        # traffic pays the concatenation once per epoch.
        all_free = bound_s is None and bound_p is None and bound_o is None
        triple_columns = (
            state.cache.get("free_triples") if all_free else None
        )
        if triple_columns is None:
            if bound_p is not None:
                name = state.matrix_name_for_key.get(bound_p)
                scanned = [] if name is None else [name]
            else:
                scanned = sorted(state.predicate_key)
            parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            for name in scanned:
                subjects, objects = state.matrices[name].scan(
                    bound_s, bound_o
                )
                predicates = np.full(
                    subjects.shape[0],
                    state.predicate_key[name],
                    dtype=np.uint32,
                )
                parts.append((subjects, predicates, objects))
            empty = np.empty(0, dtype=np.uint32)
            triple_columns = (
                np.concatenate([p[0] for p in parts]) if parts else empty,
                np.concatenate([p[1] for p in parts]) if parts else empty,
                np.concatenate([p[2] for p in parts]) if parts else empty,
            )
            if all_free:
                state.cache["free_triples"] = triple_columns

        free = [
            (var.name, column)
            for column, var in zip(triple_columns, (s_var, p_var, o_var))
            if var not in query.selections
        ]
        if not free:
            return existence_leaf(
                f"{TRIPLES_RELATION}_exists", triple_columns[0].size > 0
            )
        return materialized_leaf(f"{TRIPLES_RELATION}_matrix", free)

    def _pattern_leaf(
        self, state: _State, query: NormalizedQuery, atom: Atom
    ) -> tuple[Relation, EstimatedRelation]:
        if atom.relation == TRIPLES_RELATION:
            return self._triples_leaf(state, query, atom)
        if atom.relation not in state.predicate_key:
            raise UnknownRelationError(
                atom.relation, sorted(state.predicate_key)
            )
        if len(atom.terms) != 2:
            raise ExecutionError(
                "RDF engines evaluate (subject, object) patterns only"
            )
        subject_var, object_var = atom.variables
        bound_subject = query.selections.get(subject_var)
        bound_object = query.selections.get(object_var)
        subjects, objects = state.matrices[atom.relation].scan(
            bound_subject, bound_object
        )

        names: list[str] = []
        columns: list[np.ndarray] = []
        if bound_subject is None:
            names.append(subject_var.name)
            columns.append(subjects)
        if bound_object is None:
            names.append(object_var.name)
            columns.append(objects)
        if not names:
            # Fully bound pattern: existence check via a dummy relation.
            return existence_leaf(
                f"{atom.relation}_exists", subjects.size > 0
            )
        if (
            bound_subject is None
            and bound_object is None
            and subject_var == object_var
        ):
            mask = columns[0] == columns[1]
            names, columns = [subject_var.name], [columns[0][mask]]

        relation = Relation(f"{atom.relation}_matrix", names, columns)
        stats = state.predicate_stats.get(atom.relation)
        distinct_s, distinct_o = stats if stats else (
            relation.num_rows,
            relation.num_rows,
        )
        base = {
            subject_var.name: distinct_s,
            object_var.name: distinct_o,
        }
        estimate = EstimatedRelation(
            attributes=tuple(names),
            rows=float(relation.num_rows),
            distincts={
                name: float(min(base[name] or relation.num_rows, relation.num_rows))
                for name in names
            },
        )
        return relation, estimate

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

        order = greedy_join_order(estimates).order
        result = join_in_order(leaves, order)

        return finalize_result(result, normalized)
