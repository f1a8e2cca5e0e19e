"""Columnar relations over dictionary-encoded ``uint32`` columns.

A :class:`Relation` is the unit every engine consumes and produces:
a named tuple of equally long ``uint32`` numpy columns. All bulk
operations (selection, projection, dedup, concat) are vectorized; dedup
sorts through :func:`repro.nputil.sorted_distinct_rows`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import StorageError
from repro.nputil import sorted_distinct_rows

VALUE_DTYPE = np.uint32

#: Sentinel key for an *unbound* variable (SPARQL OPTIONAL semantics).
#: The dictionary hands out keys densely from zero, so the maximum
#: ``uint32`` value can never collide with a real term key in practice
#: (a dataset would need 2^32 - 1 distinct terms first).
NULL_KEY = int(np.iinfo(VALUE_DTYPE).max)


class Relation:
    """An immutable named relation with ``uint32`` columns.

    Its sorted-distinct rows in a given column order are computed on
    the first :meth:`sorted_columns` call for that order and kept with
    the relation, so every trie built over it in that order reuses one
    sort. The columns never change, so the memo cannot go stale: an
    update makes a new relation, which starts without one. The memo
    stays in this process: a pickled relation carries only its name,
    attributes and columns.
    """

    __slots__ = ("name", "attributes", "columns", "_sorted")

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        columns: Sequence[np.ndarray],
    ) -> None:
        if len(attributes) != len(columns):
            raise StorageError(
                f"relation {name!r}: {len(attributes)} attributes but "
                f"{len(columns)} columns"
            )
        if len(set(attributes)) != len(attributes):
            raise StorageError(f"relation {name!r}: duplicate attribute names")
        cols = tuple(np.asarray(c, dtype=VALUE_DTYPE) for c in columns)
        lengths = {c.shape[0] for c in cols}
        if len(lengths) > 1:
            raise StorageError(
                f"relation {name!r}: ragged columns with lengths {lengths}"
            )
        self.name = name
        self.attributes = tuple(attributes)
        self.columns = cols
        self._sorted: dict[tuple[str, ...], tuple[np.ndarray, ...]] | None = None

    def __reduce__(self):
        return (Relation, (self.name, self.attributes, self.columns))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[int]],
    ) -> "Relation":
        """Build from an iterable of row tuples."""
        rows = list(rows)
        arity = len(attributes)
        for row in rows:
            if len(row) != arity:
                raise StorageError(
                    f"relation {name!r}: row {row!r} does not match arity {arity}"
                )
        if not rows:
            cols = [np.empty(0, dtype=VALUE_DTYPE) for _ in range(arity)]
        else:
            matrix = np.asarray(rows, dtype=VALUE_DTYPE)
            cols = [matrix[:, i] for i in range(arity)]
        return cls(name, attributes, cols)

    @classmethod
    def empty(cls, name: str, attributes: Sequence[str]) -> "Relation":
        """An empty relation with the given schema."""
        return cls(
            name,
            attributes,
            [np.empty(0, dtype=VALUE_DTYPE) for _ in attributes],
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return int(self.columns[0].shape[0])

    def __len__(self) -> int:
        return self.num_rows

    def column(self, attribute: str) -> np.ndarray:
        """The column for ``attribute``."""
        try:
            idx = self.attributes.index(attribute)
        except ValueError:
            raise StorageError(
                f"relation {self.name!r} has no attribute {attribute!r} "
                f"(has {self.attributes})"
            ) from None
        return self.columns[idx]

    def sorted_columns(self, order: Sequence[str]) -> tuple[np.ndarray, ...]:
        """The distinct rows of the columns in ``order``, sorted
        (:func:`~repro.nputil.sorted_distinct_rows`), computed on the
        first call for ``order`` and returned as the same tuple on every
        later one. For an order the rows are already sorted-distinct in
        (a store table's (subject, object)) these are the relation's own
        arrays. Concurrent first calls race benignly: both sort, and
        each gets an equal result."""
        order = tuple(order)
        memo = self._sorted
        if memo is None:
            memo = self._sorted = {}
        columns = memo.get(order)
        if columns is None:
            columns = memo.setdefault(
                order, sorted_distinct_rows([self.column(a) for a in order])
            )
        return columns

    def iter_rows(self) -> Iterator[tuple[int, ...]]:
        """Iterate rows as Python int tuples (test/debug helper)."""
        if self.num_rows == 0:
            return iter(())
        stacked = np.stack(self.columns, axis=1, dtype=np.int64)
        return (tuple(int(v) for v in row) for row in stacked)

    def to_set(self) -> frozenset[tuple[int, ...]]:
        """The relation's rows as a frozenset of tuples (order-free compare)."""
        return frozenset(self.iter_rows())

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, attrs={list(self.attributes)}, "
            f"rows={self.num_rows})"
        )

    # ------------------------------------------------------------------
    # Vectorized relational operators
    # ------------------------------------------------------------------
    def rename(
        self, name: str | None = None, attributes: Sequence[str] | None = None
    ) -> "Relation":
        """A view with a new name and/or attribute names."""
        return Relation(
            name if name is not None else self.name,
            attributes if attributes is not None else self.attributes,
            self.columns,
        )

    def project(self, attributes: Sequence[str]) -> "Relation":
        """Projection (without dedup; compose with :meth:`distinct`)."""
        cols = [self.column(a) for a in attributes]
        return Relation(self.name, attributes, cols)

    def select_equals(self, attribute: str, value: int) -> "Relation":
        """Equality selection via a full-column vectorized scan."""
        mask = self.column(attribute) == VALUE_DTYPE(value)
        return self.filter(mask)

    def filter(self, mask: np.ndarray) -> "Relation":
        """Keep rows where ``mask`` is True."""
        return Relation(self.name, self.attributes, [c[mask] for c in self.columns])

    def take(self, indices: np.ndarray) -> "Relation":
        """Keep rows at ``indices`` (with repetition allowed)."""
        return Relation(
            self.name, self.attributes, [c[indices] for c in self.columns]
        )

    def slice_rows(self, start: int, stop: int | None = None) -> "Relation":
        """Rows ``[start:stop]`` in current order (LIMIT/OFFSET support)."""
        return Relation(
            self.name,
            self.attributes,
            [c[start:stop] for c in self.columns],
        )

    def head(self, n: int) -> "Relation":
        """The first ``n`` rows in current order."""
        return self.slice_rows(0, n)

    def distinct(self) -> "Relation":
        """Remove duplicate rows, leaving them sorted by the attributes in
        order. A relation already sorted-distinct is returned as is."""
        columns = sorted_distinct_rows(self.columns)
        if all(new is old for new, old in zip(columns, self.columns)):
            return self
        return Relation(self.name, self.attributes, columns)

    def concat(self, other: "Relation") -> "Relation":
        """Union-all with another relation over the same attributes."""
        if other.attributes != self.attributes:
            raise StorageError(
                f"cannot concat {self.name!r} and {other.name!r}: "
                f"schemas differ ({self.attributes} vs {other.attributes})"
            )
        cols = [
            np.concatenate([a, b])
            for a, b in zip(self.columns, other.columns)
        ]
        return Relation(self.name, self.attributes, cols)

    def equals_content(self, other: "Relation") -> bool:
        """True when both relations hold the same set of rows.

        Attribute *positions* matter, names do not; duplicates do not.
        """
        if self.arity != other.arity:
            return False
        return self.to_set() == other.to_set()
