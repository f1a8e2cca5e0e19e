"""Test helpers: tiny hand-built stores and a brute-force CQ evaluator."""

from __future__ import annotations

import ast
import pathlib
import sys
from itertools import product

import repro.relalg.kernels
from repro.core.generic_join import generic_join_stream
from repro.core.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    NormalizedQuery,
    Variable,
    normalize,
)
from repro.core.sketch import TableSketches, build_table_sketches
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.vertical import vertically_partition


def drained_stream(chunk_rows: int):
    """``generic_join_stream`` at ``chunk_rows``, drained into one
    relation: a join with :func:`~repro.core.generic_join.generic_join`'s
    signature."""

    def join(attrs, participants, selections, output_attrs, stats=None):
        chunks = list(
            generic_join_stream(
                attrs, participants, selections, output_attrs,
                chunk_rows=chunk_rows, stats=stats,
            )
        )
        if not chunks:
            return Relation.empty("join", [v.name for v in output_attrs])
        result = chunks[0]
        for chunk in chunks[1:]:
            result = result.concat(chunk)
        return result

    join.__name__ = f"generic_join_stream_drained_{chunk_rows}"
    return join


def build_store(triples):
    """A VerticallyPartitionedStore from (s, p, o) string triples."""
    return vertically_partition(triples)


def catalog_of(relations: dict[str, list[tuple[int, ...]]]) -> Catalog:
    """A catalog from {name: [rows]} over integer-encoded values.

    Column names are ``c0, c1, ...`` per relation.
    """
    catalog = Catalog()
    for name, rows in relations.items():
        arity = len(rows[0]) if rows else 2
        attrs = [f"c{i}" for i in range(arity)]
        catalog.register(Relation.from_rows(name, attrs, rows))
    return catalog


def sketches_of(catalog: Catalog) -> TableSketches:
    """The frequency-sketch registry a store would hand the planner for
    ``catalog``'s relations (one sketch per column)."""
    return {
        relation.name: build_table_sketches(
            relation.attributes, relation.columns
        )
        for relation in catalog
    }


def brute_force(
    catalog: Catalog, query: ConjunctiveQuery | NormalizedQuery
) -> frozenset[tuple[int, ...]]:
    """Evaluate a conjunctive query by exhaustive enumeration.

    The executable specification every engine is checked against. Atom
    rows are matched via nested loops with a binding dictionary —
    obviously correct, exponentially slow, only for tiny inputs.
    """
    if isinstance(query, ConjunctiveQuery):
        atoms = query.atoms
        projection = query.projection
    else:
        # Re-substitute selections back into the atoms as constants.
        atoms = []
        for atom in query.atoms:
            terms = []
            for term in atom.terms:
                if isinstance(term, Variable) and term in query.selections:
                    terms.append(Constant(query.selections[term]))
                else:
                    terms.append(term)
            atoms.append(Atom(atom.relation, tuple(terms)))
        projection = query.projection

    rows_per_atom = [
        list(catalog.get(atom.relation).iter_rows()) for atom in atoms
    ]
    results: set[tuple[int, ...]] = set()
    for combo in product(*rows_per_atom):
        binding: dict[str, int] = {}
        ok = True
        for atom, row in zip(atoms, combo):
            for term, value in zip(atom.terms, row):
                if isinstance(term, Constant):
                    if term.value != value:
                        ok = False
                        break
                else:
                    bound = binding.get(term.name)
                    if bound is None:
                        binding[term.name] = value
                    elif bound != value:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            results.add(tuple(binding[v.name] for v in projection))
    return frozenset(results)


def run_query(
    catalog: Catalog, query: ConjunctiveQuery, config=None
) -> frozenset[tuple[int, ...]]:
    """Plan and execute a CQ with the GHD machinery; rows as a frozenset."""
    from repro.core.config import OptimizationConfig
    from repro.core.executor import GHDExecutor
    from repro.core.planner import Planner

    config = config if config is not None else OptimizationConfig()
    planner = Planner(config, sketches_of(catalog))
    plan = planner.plan(normalize(query))
    return GHDExecutor(catalog).execute(plan).to_set()


def spy_pairwise_kernels(monkeypatch) -> list[str]:
    """Count every ``natural_join`` / ``cross_product`` call.

    Wherever a ``repro`` module bound a kernel's name (its defining
    module included, where ``join_in_order`` looks it up), the name is
    replaced by a spy that records the call and runs the kernel. Returns
    the list the spies append the kernel names to.
    """
    calls: list[str] = []
    for kernel in ("natural_join", "cross_product"):
        original = getattr(repro.relalg.kernels, kernel)

        def spy(*args, _kernel=kernel, _original=original, **kwargs):
            calls.append(_kernel)
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(module, kernel, None) is original
            ):
                monkeypatch.setattr(module, kernel, spy)
    return calls


def relalg_imports(path) -> list[str]:
    """The ``repro.relalg`` modules a source file imports."""
    found = []
    for node in ast.walk(ast.parse(pathlib.Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend(n for n in names if n.startswith("repro.relalg"))
    return found
