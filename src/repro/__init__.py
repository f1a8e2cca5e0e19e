"""repro — worst-case optimal joins for RDF processing.

A from-scratch Python reproduction of

    Aberger, Tu, Olukotun, Ré.
    "Old Techniques for New Join Algorithms: A Case Study in RDF
    Processing", ICDE 2016 (arXiv:1602.03557).

The package provides:

* :mod:`repro.core` — the generic worst-case optimal join, GHD query
  plans, and the paper's three classic optimizations;
* :mod:`repro.engines` — the five engines the paper benchmarks
  (EmptyHeaded, LogicBlox-, MonetDB-, RDF-3X-, TripleBit-like);
* :mod:`repro.service` — the serving layer: a plan-cached, warmable,
  update-aware :class:`~repro.service.QueryService` whose
  :class:`~repro.service.PreparedStatement`\\ s serve parameterized
  query templates (``$name`` placeholders) and concurrent traffic,
  fronted by a transport-ready protocol
  (:class:`~repro.service.Session` / :class:`~repro.service.Cursor`:
  open → prepare → execute → fetch in pages → close), streaming result
  wire formats (:mod:`repro.service.formats`), and a stdlib
  SPARQL-protocol HTTP endpoint (:mod:`repro.service.http`);
* :mod:`repro.lubm` — the LUBM data generator and query workload;
* :mod:`repro.sparql` / :mod:`repro.rdf` / :mod:`repro.storage` /
  :mod:`repro.sets` / :mod:`repro.trie` — the substrates;
* :mod:`repro.bench` — the paper's measurement protocol, the Table I /
  Table II / figure regeneration entry points and the cross-engine
  ``smoke`` correctness gate (serving-path performance is measured by
  ``benchmarks/ledger/``, outside the package).

Quickstart::

    from repro import EmptyHeadedEngine, generate_dataset, lubm_query

    dataset = generate_dataset(universities=1, seed=0)
    engine = EmptyHeadedEngine(dataset.store)
    result = engine.execute_sparql(lubm_query(2, dataset.config))
    print(result.num_rows, "rows")
"""

from repro.core.config import OptimizationConfig
from repro.core.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    UnionQuery,
    Variable,
)
from repro.engines import (
    ALL_ENGINES,
    ColumnStoreEngine,
    EmptyHeadedEngine,
    Engine,
    LogicBloxLikeEngine,
    RDF3XLikeEngine,
    TripleBitLikeEngine,
)
from repro.lubm import (
    GeneratorConfig,
    LubmDataset,
    generate_dataset,
    lubm_queries,
    lubm_query,
)
from repro.service import (
    Cursor,
    PreparedStatement,
    QueryService,
    Session,
)
from repro.storage.relation import Relation

__version__ = "1.0.0"

__all__ = [
    "ALL_ENGINES",
    "Atom",
    "ColumnStoreEngine",
    "ConjunctiveQuery",
    "Constant",
    "Cursor",
    "EmptyHeadedEngine",
    "Engine",
    "GeneratorConfig",
    "LogicBloxLikeEngine",
    "LubmDataset",
    "OptimizationConfig",
    "PreparedStatement",
    "QueryService",
    "RDF3XLikeEngine",
    "Relation",
    "Session",
    "TripleBitLikeEngine",
    "UnionQuery",
    "Variable",
    "generate_dataset",
    "lubm_queries",
    "lubm_query",
    "__version__",
]
