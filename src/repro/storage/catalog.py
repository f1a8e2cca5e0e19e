"""Catalog of relations with a trie-index cache.

Engines resolve atom names against a :class:`Catalog`. WCOJ engines also
ask it for trie indexes over specific attribute orders; builds are cached
per (relation, order, layout mode) the way EmptyHeaded reuses indexes
across back-to-back queries. The cache belongs to one catalog, but the
sort behind a build belongs to the relation
(:meth:`~repro.storage.relation.Relation.sorted_columns`): catalogs
that register the same store table, as every fresh engine over one
epoch does, sort it once per order between them and each build only
the prefix scan.

The catalog is safe for concurrent readers (the serving layer's
``execute_concurrent`` runs many queries over one read-only catalog):
registration and trie-cache insertion are serialized by an internal
lock, and concurrent trie builds for the same key race benignly — both
build, one wins the cache, both results are equivalent.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence

from repro.errors import ArityMismatchError, StorageError, UnknownRelationError
from repro.sets.base import SetLayout
from repro.storage.relation import Relation
from repro.storage.vertical import patch_relation
from repro.trie.trie import Trie


class Catalog:
    """A named collection of relations plus cached trie indexes."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._trie_cache: dict[
            tuple[str, tuple[str, ...], SetLayout | None], Trie
        ] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Relation management
    # ------------------------------------------------------------------
    def register(self, relation: Relation, *, replace: bool = False) -> None:
        """Add ``relation`` under its name."""
        with self._lock:
            if relation.name in self._relations and not replace:
                raise StorageError(
                    f"relation {relation.name!r} already registered"
                )
            self._relations[relation.name] = relation
            # Invalidate any cached indexes for the replaced relation.
            stale = [k for k in self._trie_cache if k[0] == relation.name]
            for key in stale:
                del self._trie_cache[key]

    def apply_delta(
        self,
        added: dict[str, Relation],
        removed: dict[str, Relation],
        dropped: Iterable[str] = (),
    ) -> "Catalog":
        """A patched copy of this catalog for one logical update batch.

        ``added``/``removed`` hold the batch's delta rows per name, with
        the *stored* attribute names; a name not yet registered is a
        created table (its relation is exactly its added rows). Both
        the registered relations **and** their cached tries are patched
        from the delta rows alone — never from the live store — so the
        copy is exactly this catalog's epoch plus one batch, and
        applying N batches in sequence walks the committed epochs one
        by one (a concurrent reader can never observe a mixture that
        matches no commit). The copy shares every unaffected relation
        and cached trie with this catalog. An affected relation is one
        sorted splice (:func:`~repro.storage.vertical.patch_relation`):
        the delta rows are searched in its sorted columns and each
        changed column is copied once, so it stays sorted-distinct and
        a trie built over it later sorts nothing. Its cached tries
        splice their CSR levels
        (:meth:`~repro.trie.trie.Trie.apply_delta`; nothing else is
        discarded), so warm indexes survive updates. Cost follows the
        batch plus one copy per changed array; no sort or hash touches
        the stored rows. This catalog is left untouched — an execution
        racing the update keeps one consistent snapshot.
        """
        dropped = set(dropped)
        affected = (set(added) | set(removed)) - dropped
        with self._lock:
            relations = {
                name: relation
                for name, relation in self._relations.items()
                if name not in dropped
            }
            for name in affected:
                old = relations.get(name)
                if old is None:  # a created table: its rows are the adds
                    created = added.get(name)
                    if created is not None and created.num_rows:
                        relations[name] = created
                    continue
                relations[name] = patch_relation(
                    old, added.get(name), removed.get(name)
                )
            trie_cache: dict[
                tuple[str, tuple[str, ...], SetLayout | None], Trie
            ] = {}
            for key, trie in self._trie_cache.items():
                name, order, _ = key
                if name in dropped:
                    continue
                if name not in affected:
                    trie_cache[key] = trie
                    continue
                added_rel = added.get(name)
                removed_rel = removed.get(name)
                trie_cache[key] = trie.apply_delta(
                    None
                    if added_rel is None
                    else [added_rel.column(a) for a in order],
                    None
                    if removed_rel is None
                    else [removed_rel.column(a) for a in order],
                )
        patched = Catalog()
        patched._relations = relations
        patched._trie_cache = trie_cache
        return patched

    def get_or_register(self, relation: Relation) -> Relation:
        """Register ``relation`` unless its name is taken; return the
        catalog's copy either way (the concurrency-safe form of
        ``if name not in catalog: register``)."""
        with self._lock:
            existing = self._relations.get(relation.name)
            if existing is not None:
                return existing
            self._relations[relation.name] = relation
            return relation

    def register_all(self, relations: Iterable[Relation]) -> None:
        for relation in relations:
            self.register(relation)

    def get(self, name: str) -> Relation:
        """Look up a relation; raises :class:`UnknownRelationError`."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(
                name, list(self._relations)
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self):
        return iter(self._relations.values())

    def names(self) -> list[str]:
        return sorted(self._relations)

    def two_column_tables(self) -> dict[str, Relation]:
        """The registered two-column predicate tables (the inputs a
        snapshot-consistent ``__triples__`` view is built from)."""
        with self._lock:
            return {
                name: relation
                for name, relation in self._relations.items()
                if len(relation.attributes) == 2
            }

    def check_arity(self, name: str, arity: int) -> Relation:
        """Fetch a relation and validate the arity an atom expects."""
        relation = self.get(name)
        if relation.arity != arity:
            raise ArityMismatchError(name, relation.arity, arity)
        return relation

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def trie(
        self,
        name: str,
        attribute_order: Sequence[str],
        *,
        force_layout: SetLayout | None = None,
    ) -> Trie:
        """A trie over ``name`` with the given level order (cached)."""
        key = (name, tuple(attribute_order), force_layout)
        cached = self._trie_cache.get(key)
        if cached is None:
            relation = self.get(name)
            built = Trie.from_relation(
                relation, attribute_order, force_layout=force_layout
            )
            # Concurrent builders race benignly; first insert wins so
            # every thread probes the same object afterwards.
            with self._lock:
                cached = self._trie_cache.setdefault(key, built)
        return cached

    def total_rows(self) -> int:
        """Sum of rows across all relations (dataset size metric)."""
        return sum(r.num_rows for r in self._relations.values())

    def stats(self) -> dict[str, int]:
        """Per-relation row counts (planner input and debug aid)."""
        return {name: r.num_rows for name, r in self._relations.items()}
