"""The paper's primary contribution: worst-case optimal join processing
with GHD query plans and the three classic optimizations.

Pipeline (mirrors EmptyHeaded's three phases, Section II):

1. :mod:`repro.core.query` / :mod:`repro.core.hypergraph` — a conjunctive
   query is normalized (constants become equality *selections*) and viewed
   as a hypergraph.
2. :mod:`repro.core.ghd_optimizer` — generalized hypertree decompositions
   are enumerated; the planner picks minimum fractional width, then
   smallest height, then (when the +GHD optimization is on) maximal
   selection depth. The global attribute order comes from
   :mod:`repro.core.bounds` under +Attribute (selections first, then the
   minimum-bound attach order over the store's frequency sketches) and
   is :mod:`repro.core.attribute_order`'s appearance order without it.
3. :mod:`repro.core.executor` — each GHD node runs the generic worst-case
   optimal join (:mod:`repro.core.generic_join`) bottom-up; the root's
   join also carries the projected attributes of the nodes below it, so
   it yields the final result; the root may be fused with one
   pipelineable child (+Pipelining, Definition 2).
"""

from repro.core.agm import agm_bound, fractional_edge_cover
from repro.core.config import OptimizationConfig
from repro.core.executor import GHDExecutor
from repro.core.generic_join import generic_join
from repro.core.ghd import GHD, GHDNode
from repro.core.ghd_optimizer import GHDOptimizer
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.blocks import execute_union
from repro.core.planner import Plan, Planner
from repro.core.query import (
    Atom,
    BoundUnion,
    ConjunctiveQuery,
    Constant,
    NumericLiteral,
    OptionalBlock,
    QueryBlock,
    Term,
    UnionQuery,
    Variable,
)

__all__ = [
    "Atom",
    "BoundUnion",
    "ConjunctiveQuery",
    "Constant",
    "NumericLiteral",
    "OptionalBlock",
    "QueryBlock",
    "UnionQuery",
    "execute_union",
    "GHD",
    "GHDExecutor",
    "GHDNode",
    "GHDOptimizer",
    "Hyperedge",
    "Hypergraph",
    "OptimizationConfig",
    "Plan",
    "Planner",
    "Term",
    "Variable",
    "agm_bound",
    "fractional_edge_cover",
    "generic_join",
]
