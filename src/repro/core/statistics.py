"""Atoms as catalog relations.

The executor and the pairwise baselines read an atom's rows through
:func:`atom_relation`. Plan-time statistics are not here: planners read
only the per-column frequency sketches of :mod:`repro.core.sketch`.
"""

from __future__ import annotations

import numpy as np

from repro.core.query import Atom
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation


def atom_relation(catalog: Catalog, atom: Atom) -> Relation:
    """The base relation of ``atom`` with columns renamed to its variables.

    Atoms with a repeated variable (e.g. ``R(x, x)``) are rewritten to a
    filtered relation over distinct variables, registered in the catalog
    under a derived name so downstream trie caching still applies.
    """
    relation = catalog.check_arity(atom.relation, len(atom.terms))
    names = [v.name for v in atom.variables]
    if len(set(names)) == len(atom.terms):
        return relation.rename(attributes=names)

    # Repeated variables: keep rows where all repeated positions agree,
    # then drop the duplicate columns.
    derived_name = f"{atom.relation}[{','.join(names)}]"
    if derived_name in catalog:
        return catalog.get(derived_name)
    positions: dict[str, list[int]] = {}
    for i, var in enumerate(atom.variables):
        positions.setdefault(var.name, []).append(i)
    mask = np.ones(relation.num_rows, dtype=bool)
    keep_attrs: list[str] = []
    keep_cols = []
    for name, idxs in positions.items():
        first = relation.columns[idxs[0]]
        for other in idxs[1:]:
            mask &= first == relation.columns[other]
        keep_attrs.append(name)
        keep_cols.append(first)
    derived = Relation(derived_name, keep_attrs, keep_cols).filter(mask)
    # get_or_register: another thread may have derived it concurrently.
    return catalog.get_or_register(derived)
