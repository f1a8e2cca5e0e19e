"""Vectorized relational-algebra kernels and pairwise join planning.

Used by (a) :mod:`repro.core.blocks`, whose OPTIONAL assembly matches
rows with :func:`~repro.relalg.kernels.join_indices`, and (b) the three
pairwise baseline engines (MonetDB-, RDF-3X-, TripleBit-like), which
share one join loop, :func:`~repro.relalg.kernels.join_in_order`, so
every engine pays the same per-operator constants and comparisons
reflect algorithmic differences, not implementation skew. The GHD
executor — every node's join, the projection across nodes included —
and the sharded coordinator's merge of fragment results run
:func:`repro.core.generic_join.generic_join` instead.
"""

from repro.relalg.estimates import RelationStatistics, estimate_join_size
from repro.relalg.kernels import natural_join
from repro.relalg.selinger import JoinTree, selinger_join_order
from repro.relalg.greedy import greedy_join_order

__all__ = [
    "JoinTree",
    "RelationStatistics",
    "estimate_join_size",
    "greedy_join_order",
    "natural_join",
    "selinger_join_order",
]
