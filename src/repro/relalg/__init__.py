"""Vectorized relational-algebra kernels and pairwise join planning.

Used by (a) the GHD executor's top-down materialization pass,
(b) :mod:`repro.core.blocks`, whose OPTIONAL assembly matches rows
with :func:`~repro.relalg.kernels.join_indices`, and (c) the three
pairwise baseline engines (MonetDB-, RDF-3X-, TripleBit-like), so
every engine pays the same per-operator constants and comparisons
reflect algorithmic differences, not implementation skew. A GHD
node's join and the sharded coordinator's merge of fragment results
run :func:`repro.core.generic_join.generic_join` instead.
"""

from repro.relalg.estimates import RelationStatistics, estimate_join_size
from repro.relalg.kernels import natural_join, semijoin
from repro.relalg.selinger import JoinTree, selinger_join_order
from repro.relalg.greedy import greedy_join_order

__all__ = [
    "JoinTree",
    "RelationStatistics",
    "estimate_join_size",
    "greedy_join_order",
    "natural_join",
    "selinger_join_order",
    "semijoin",
]
