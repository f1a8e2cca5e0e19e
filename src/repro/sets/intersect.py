"""Set-intersection kernels across layout combinations.

Intersection is the core operation of the generic worst-case optimal join
(Algorithm 1 in the paper): at every recursion level the algorithm
intersects the candidate sets of all relations containing the current
attribute. :func:`intersect_many` keeps the running result as a sorted
``uint32`` array, smallest set first, and meets each further set by its
layout:

* array — numpy sorted intersection, or a vectorized "galloping" probe
  of the smaller side into the larger when sizes are skewed
  (:func:`intersect_arrays`);
* bitset — vectorized O(1) membership probes of the running result
  against the bitmap.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sets.base import VALUE_DTYPE, OrderedSet
from repro.sets.bitset import BitSet

GALLOP_RATIO = 32
"""Probe the small side into the large one when sizes differ by this factor."""


def intersect_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted unique ``uint32`` arrays."""
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=VALUE_DTYPE)
    if a.size > b.size:
        a, b = b, a
    # a is the smaller side now.
    if b.size >= a.size * GALLOP_RATIO:
        idx = np.searchsorted(b, a)
        idx = np.minimum(idx, b.size - 1)
        return a[b[idx] == a]
    return np.intersect1d(a, b, assume_unique=True)


def intersect_many(sets: Sequence[OrderedSet]) -> np.ndarray:
    """Intersect any number of sets, smallest-first, with early exit.

    This is the multiway intersection at the heart of Algorithm 1. Sorting
    by cardinality bounds the work by the smallest set, mirroring the
    "min-set" iteration order of leapfrog-style implementations.
    """
    if not sets:
        return np.empty(0, dtype=VALUE_DTYPE)
    if len(sets) == 1:
        return sets[0].to_array()
    ordered = sorted(sets, key=lambda s: s.cardinality)
    if ordered[0].cardinality == 0:
        return np.empty(0, dtype=VALUE_DTYPE)
    result = ordered[0].to_array()
    for other in ordered[1:]:
        if result.size == 0:
            break
        if isinstance(other, BitSet):
            result = result[other.contains_many(result)]
        else:
            result = intersect_arrays(result, other.to_array())
    return result
