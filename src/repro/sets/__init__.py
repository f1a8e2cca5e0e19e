"""Ordered-set layouts used inside EmptyHeaded-style tries.

The paper (Section II-A2) stores every set of 32-bit values in one of two
layouts chosen by a *set optimizer*:

* :class:`UintArraySet` — a sorted array of unsigned 32-bit integers.
  Equality probes cost O(log n) via binary search.
* :class:`BitSet` — a packed bitmap over the value range. Equality probes
  cost O(1); intersections are word-parallel bitwise ANDs (the stand-in for
  the paper's AVX SIMD intersections).

The optimizer picks the bitset "when more than one out of every 256 values
appears in the set" (256 = the size of an AVX register in the paper).

Public API::

    from repro.sets import build_set, choose_layout, intersect_many, SetLayout
"""

from repro.sets.base import EMPTY_SET, OrderedSet, SetLayout
from repro.sets.bitset import BitSet
from repro.sets.intersect import intersect_arrays, intersect_many
from repro.sets.layout import DENSITY_THRESHOLD, build_set, choose_layout
from repro.sets.uint_array import UintArraySet

__all__ = [
    "BitSet",
    "DENSITY_THRESHOLD",
    "EMPTY_SET",
    "OrderedSet",
    "SetLayout",
    "UintArraySet",
    "build_set",
    "choose_layout",
    "intersect_arrays",
    "intersect_many",
]
