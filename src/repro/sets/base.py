"""Abstract interface shared by the trie set layouts."""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.nputil import sorted_distinct_rows

VALUE_DTYPE = np.uint32
"""All set elements are dictionary-encoded 32-bit unsigned integers."""


class SetLayout(enum.Enum):
    """The physical layout of a set inside a trie level."""

    UINT_ARRAY = "uint_array"
    BITSET = "bitset"


class OrderedSet(ABC):
    """A sorted set of ``uint32`` values with layout-specific operations.

    Both layouts expose the same logical content: a strictly increasing
    sequence of 32-bit values. Engines interact with sets through this
    interface so the layout decision (Section II-A2 of the paper) is
    transparent to the join algorithm.
    """

    __slots__ = ()

    @property
    @abstractmethod
    def layout(self) -> SetLayout:
        """Which physical layout this set uses."""

    @property
    @abstractmethod
    def cardinality(self) -> int:
        """Number of elements in the set."""

    @property
    @abstractmethod
    def min_value(self) -> int:
        """Smallest element; raises ``ValueError`` on an empty set."""

    @property
    @abstractmethod
    def max_value(self) -> int:
        """Largest element; raises ``ValueError`` on an empty set."""

    @abstractmethod
    def contains(self, value: int) -> bool:
        """Membership probe: O(1) for bitsets, O(log n) for arrays."""

    @abstractmethod
    def contains_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized membership: boolean mask aligned with ``values``."""

    @abstractmethod
    def to_array(self) -> np.ndarray:
        """Materialize the sorted ``uint32`` element array."""

    @property
    def span(self) -> int:
        """Size of the value range covered by the set (max - min + 1)."""
        if self.cardinality == 0:
            return 0
        return int(self.max_value) - int(self.min_value) + 1

    @property
    def density(self) -> float:
        """Fraction of the covered range that is populated."""
        if self.cardinality == 0:
            return 0.0
        return self.cardinality / self.span

    def __len__(self) -> int:
        return self.cardinality

    def __bool__(self) -> bool:
        return self.cardinality > 0

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self.to_array())

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, (int, np.integer)):
            return False
        if value < 0 or value > np.iinfo(VALUE_DTYPE).max:
            return False
        return self.contains(int(value))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedSet):
            return NotImplemented
        if self.cardinality != other.cardinality:
            return False
        return bool(np.array_equal(self.to_array(), other.to_array()))

    def __hash__(self) -> int:  # pragma: no cover - sets are not dict keys
        return hash(self.to_array().tobytes())

    def __repr__(self) -> str:
        preview = ", ".join(str(v) for v in self.to_array()[:6])
        suffix = ", ..." if self.cardinality > 6 else ""
        return (
            f"{type(self).__name__}(card={self.cardinality}, "
            f"values=[{preview}{suffix}])"
        )


def as_value_array(values: object) -> np.ndarray:
    """Coerce ``values`` to a sorted, duplicate-free ``uint32`` array.

    Accepts any iterable of non-negative integers or a numpy array.
    Raises ``ValueError`` for values outside the ``uint32`` range.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return np.empty(0, dtype=VALUE_DTYPE)
    if arr.dtype.kind not in ("i", "u"):
        raise ValueError(f"set values must be integers, got dtype {arr.dtype}")
    if arr.dtype != VALUE_DTYPE:
        info = np.iinfo(VALUE_DTYPE)
        if arr.min() < info.min or arr.max() > info.max:
            raise ValueError("set values must fit in uint32")
        arr = arr.astype(VALUE_DTYPE)
    (arr,) = sorted_distinct_rows([arr])
    return arr


class _EmptySet(OrderedSet):
    """Singleton empty set; shared so intersections can short-circuit."""

    __slots__ = ()

    @property
    def layout(self) -> SetLayout:
        return SetLayout.UINT_ARRAY

    @property
    def cardinality(self) -> int:
        return 0

    @property
    def min_value(self) -> int:
        raise ValueError("empty set has no minimum")

    @property
    def max_value(self) -> int:
        raise ValueError("empty set has no maximum")

    def contains(self, value: int) -> bool:
        return False

    def contains_many(self, values: np.ndarray) -> np.ndarray:
        return np.zeros(len(values), dtype=bool)

    def to_array(self) -> np.ndarray:
        return np.empty(0, dtype=VALUE_DTYPE)


EMPTY_SET = _EmptySet()
"""The canonical empty :class:`OrderedSet`."""
