"""MonetDB-like baseline: column scans + Selinger-ordered pairwise joins.

The traditional relational design the paper compares against: RDF stored
as vertically partitioned two-column tables in a column store, queries
executed as a sequence of *pairwise* joins with full materialization of
every intermediate result, join order chosen by a Selinger-style dynamic
program over textbook estimates.

Two properties matter for the reproduction:

* equality selections are **full-column vectorized scans** — there are
  no fine-grained indexes, so a selective query still reads the whole
  predicate column (this is why the paper measures MonetDB thousands of
  times slower on LUBM query 4);
* cyclic queries are executed as pairwise joins, which materialize an
  intermediate that is asymptotically larger than the output (the
  Ω(N²) vs O(N^{3/2}) gap of Section I).

The paper measures it on static loads, so after an update the engine
re-registers the store's tables in a fresh catalog on the next query
(the same :meth:`ColumnStoreEngine._build_structures` its constructor
runs — a column store has no indexes beyond the columns themselves).
"""

from __future__ import annotations

import numpy as np

from repro.core.modifiers import finalize_result
from repro.core.query import (
    Atom,
    ConjunctiveQuery,
    NormalizedQuery,
    normalize,
)
from repro.engines.base import Engine
from repro.engines.leaves import existence_leaf
from repro.errors import ExecutionError
from repro.relalg.estimates import EstimatedRelation
from repro.relalg.kernels import join_in_order
from repro.relalg.selinger import selinger_join_order
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.vertical import (
    TRIPLES_RELATION,
    VerticallyPartitionedStore,
    build_triples_view,
)


class ColumnStoreEngine(Engine):
    """Vertically partitioned column store with pairwise joins."""

    name = "monetdb-like"

    def __init__(self, store: VerticallyPartitionedStore) -> None:
        super().__init__(store)
        # Created once and never reassigned: entries verify relation
        # identity on hit (see _column_distinct), so entries stranded by
        # a catalog swap simply miss and recompute — reassigning the
        # dict under the update locks while executions insert into it
        # unlocked would be a guarded/unguarded mutation mix.
        self._distinct_cache: dict[tuple[str, int], tuple[Relation, int]] = {}
        self._build_structures()

    def _build_structures(self) -> None:
        catalog = Catalog()
        catalog.register_all(self.store.relations())
        self.catalog = catalog

    # ------------------------------------------------------------------
    def _column_distinct(self, relation: Relation, position: int) -> int:
        """Distinct count of one column (cached per relation/position).

        The cached entry records the relation object it was computed
        from; after an update the catalog serves a *different* (replaced)
        relation under the same name, the identity check misses, and the
        count recomputes — stale statistics never survive a mutation.
        A base table covered by the store's frequency sketches answers
        from the sketch (no column scan); the total-row guard skips the
        sketch whenever its epoch diverges from this catalog snapshot.
        """
        key = (relation.name, position)
        cached = self._distinct_cache.get(key)
        if cached is not None and cached[0] is relation:
            return cached[1]
        count = self._sketched_distinct(relation, position)
        if count is None:
            column = relation.columns[position]
            count = int(np.unique(column).size) if column.size else 0
        self._distinct_cache[key] = (relation, count)
        return count

    def _sketched_distinct(
        self, relation: Relation, position: int
    ) -> int | None:
        table = self.store.column_sketches().get(relation.name)
        if table is None or position >= len(relation.attributes):
            return None
        sketch = table.get(relation.attributes[position])
        if sketch is None or sketch.total != relation.num_rows:
            return None
        return sketch.distinct

    def _scan_atom(
        self, catalog: Catalog, query: NormalizedQuery, atom: Atom
    ) -> tuple[Relation, EstimatedRelation]:
        """Leaf access path: full-column scan with selection filters."""
        from repro.core.statistics import atom_relation

        base = atom_relation(catalog, atom)
        mask: np.ndarray | None = None
        keep: list[int] = []
        for i, name in enumerate(base.attributes):
            var = next(v for v in atom.variables if v.name == name)
            value = query.selections.get(var)
            if value is None:
                keep.append(i)
                continue
            condition = base.columns[i] == np.uint32(value)
            mask = condition if mask is None else (mask & condition)
        filtered = base.filter(mask) if mask is not None else base
        if not keep:
            # Fully bound pattern: an existence check. A one/zero-row
            # dummy relation keeps the pairwise pipeline uniform (a
            # zero-attribute relation cannot carry a row count).
            return existence_leaf(
                f"{atom.relation}_exists", filtered.num_rows > 0
            )
        # Drop the now-constant selection columns.
        attrs = [filtered.attributes[i] for i in keep]
        scanned = filtered.project(attrs)
        estimate = EstimatedRelation(
            attributes=tuple(attrs),
            rows=float(scanned.num_rows),
            distincts={
                a: float(
                    min(
                        self._column_distinct(base, keep[j]),
                        scanned.num_rows,
                    )
                )
                for j, a in enumerate(attrs)
            },
        )
        return scanned, estimate

    # ------------------------------------------------------------------
    def _execute_bound(self, query: ConjunctiveQuery) -> Relation:
        # One catalog snapshot per execution: an update racing this
        # query swaps the engine's catalog, never mutates this one.
        catalog = self.catalog
        # Variable-predicate patterns scan the (lazily built) union of
        # all predicate tables — in a column store that is just one more
        # vertically partitioned table to scan. It is built from the
        # snapshot's own tables so a racing update cannot mix epochs.
        if TRIPLES_RELATION not in catalog and any(
            atom.relation == TRIPLES_RELATION for atom in query.atoms
        ):
            catalog.get_or_register(
                build_triples_view(
                    catalog.two_column_tables(), self.store.predicate_key
                )
            )
        normalized = normalize(query)
        leaves: list[Relation] = []
        estimates: list[EstimatedRelation] = []
        for atom in normalized.atoms:
            scanned, estimate = self._scan_atom(catalog, normalized, atom)
            leaves.append(scanned)
            estimates.append(estimate)

        order = selinger_join_order(estimates).order
        result = join_in_order(leaves, order)

        names = [v.name for v in normalized.projection]
        missing = [n for n in names if n not in result.attributes]
        if missing:  # pragma: no cover - every projected var is in an atom
            raise ExecutionError(f"missing projection attributes {missing}")
        return finalize_result(result, normalized)
