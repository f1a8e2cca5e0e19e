"""Compile a bound conjunctive query into per-shard fragments + merge.

Subject partitioning gives one structural guarantee: every atom whose
subject is the *same term* matches triples living on the *same shard*
(for a constant subject, the one shard its hash names; for a variable
subject, whichever shard each binding's subject hashes to). So the
compiler groups atoms by subject term:

* **one group**, or **one shard** (which holds every triple) — each
  shard runs the whole query verbatim over its slice and the merge is
  ``concat + distinct`` (the canonical order makes per-shard
  ``LIMIT offset+limit`` pushdown sound: the global top-k is contained
  in the union of per-shard top-ks).
* **several groups** — each group becomes a fragment projecting onto
  its join/output variables; fragments scatter independently and the
  coordinator binds their results with one generic join (Algorithm 1)
  under the planner's global attribute order for the whole query,
  restricted to the variables the fragments project.

A constant-subject group is *targeted* at its owning shard only, and a
variable-free group degenerates to a coordinator-side membership probe.

The compiler is pure (query + sketches in, plan out) — epoch discipline
is the executor's job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import OptimizationConfig
from repro.core.planner import Planner
from repro.core.query import Atom, ConjunctiveQuery, Constant, Variable
from repro.core.sketch import TableSketches


#: The coordinator binds every fragment result in one generic join — a
#: single GHD node — so its order is planned without a decomposition:
#: the same sketch-bound order search, minus the GHD search, which
#: grows with the atom count and would rerun on every execution
#: (fragment plans are compiled per execution, not cached).
_COORDINATOR_CONFIG = OptimizationConfig.all_on().but(use_ghd=False)


@dataclass(frozen=True)
class Fragment:
    """One scatter unit: a subquery every (or one) shard executes."""

    index: int
    subject: Variable | Constant
    query: ConjunctiveQuery
    #: Result only gates non-emptiness; it joins nothing and projects
    #: into nothing (its variables are private to the group).
    existential: bool = False

    @property
    def targeted(self) -> bool:
        """A constant subject lives on one shard: only it runs this."""
        return isinstance(self.subject, Constant)


@dataclass(frozen=True)
class MembershipProbe:
    """A variable-free atom group: a coordinator-side existence check."""

    atoms: tuple[Atom, ...]


@dataclass(frozen=True)
class FragmentPlan:
    """Per-shard fragments plus the deterministic merge recipe."""

    name: str
    shard_count: int
    projection: tuple[Variable, ...]
    fragments: tuple[Fragment, ...]
    probes: tuple[MembershipProbe, ...]
    #: True when one fragment covers the whole query — merge is pure
    #: concat + distinct and the streaming path can k-way merge.
    single: bool
    #: The coordinator's generic-join order over the fragment results
    #: (multi-fragment plans only).
    order: tuple[Variable, ...] = ()

    def explain(self) -> str:
        """Human-readable fragment plan (the ``/explain`` payload)."""
        lines = [
            f"scatter-gather plan for {self.name!r} "
            f"over {self.shard_count} shard(s)"
        ]
        for fragment in self.fragments:
            atoms = ", ".join(
                atom.relation for atom in fragment.query.atoms
            )
            target = (
                "targeted (owning shard)"
                if fragment.targeted
                else "every shard"
            )
            if fragment.existential:
                target += ", existence only"
            lines.append(
                f"  fragment {fragment.index} [{_term(fragment.subject)}]:"
                f" atoms({atoms}) -> {target}"
            )
        for probe in self.probes:
            atoms = ", ".join(atom.relation for atom in probe.atoms)
            lines.append(
                f"  membership probe: atoms({atoms}) on the owning shard"
            )
        if self.single:
            fragment = self.fragments[0]
            pushed = fragment.query.limit
            suffix = (
                f" (limit {pushed} pushed per shard)"
                if pushed is not None
                else ""
            )
            lines.append(f"  merge: concat + distinct{suffix}")
        elif self.fragments:
            order = ", ".join(variable.name for variable in self.order)
            names = ", ".join(
                variable.name for variable in self.projection
            )
            lines.append(
                f"  merge: generic join over [{order}]; "
                f"project ({names}); distinct"
            )
        return "\n".join(lines)


def _term(term: Variable | Constant) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    return f"={term.value}"


def _group_projection(
    atoms: tuple[Atom, ...],
    others: set[Variable],
    projection: tuple[Variable, ...],
) -> tuple[tuple[Variable, ...], bool]:
    """(fragment projection, existential?) for one atom group.

    Keeps the variables the merge needs — join keys shared with other
    groups plus final output variables — in first-appearance order. A
    group sharing and outputting nothing is existential: it still
    scatters (on one variable) but only its non-emptiness matters.
    """
    wanted = others | set(projection)
    kept: list[Variable] = []
    all_vars: list[Variable] = []
    for atom in atoms:
        for term in atom.terms:
            if not isinstance(term, Variable):
                continue
            if term not in all_vars:
                all_vars.append(term)
            if term in wanted and term not in kept:
                kept.append(term)
    if kept:
        return tuple(kept), False
    return (all_vars[0],), True


def compile_fragment_plan(
    query: ConjunctiveQuery,
    shard_count: int,
    sketches: TableSketches,
) -> FragmentPlan:
    """Compile a bound, modifier-free conjunctive query.

    ``query`` is what :meth:`Engine.split_modifiers` hands to
    ``_execute_bound``: filters and ORDER BY already stripped (or the
    bare query with only limit/offset attached). ``sketches`` order the
    coordinator's generic join of a multi-fragment plan.
    """
    groups: dict[Variable | Constant, list[Atom]] = {}
    for atom in query.atoms:
        groups.setdefault(atom.terms[0], []).append(atom)

    has_variable = any(
        isinstance(term, Variable)
        for atom in query.atoms
        for term in atom.terms
    )
    if has_variable and (len(groups) == 1 or shard_count == 1):
        # One subject group, or one shard holding every triple: each
        # shard's own engine runs the whole query under its own plan.
        shard_query = query
        if query.limit is not None:
            # Canonical order makes per-shard top-(offset+limit)
            # a superset of the global slice.
            shard_query = replace(
                query, limit=query.offset + query.limit, offset=0
            )
        return FragmentPlan(
            name=query.name,
            shard_count=shard_count,
            projection=query.projection,
            fragments=(Fragment(0, query.atoms[0].terms[0], shard_query),),
            probes=(),
            single=True,
        )
    if len(groups) == 1:
        # Entirely variable-free: one membership probe, no fragments.
        return FragmentPlan(
            name=query.name,
            shard_count=shard_count,
            projection=query.projection,
            fragments=(),
            probes=(MembershipProbe(tuple(query.atoms)),),
            single=False,
        )

    fragments: list[Fragment] = []
    probes: list[MembershipProbe] = []
    entries: list[tuple[Variable | Constant, tuple[Atom, ...]]] = []
    for subject, atoms in groups.items():
        if not any(
            isinstance(term, Variable)
            for atom in atoms
            for term in atom.terms
        ):
            probes.append(MembershipProbe(tuple(atoms)))
            continue
        entries.append((subject, tuple(atoms)))

    for position, (subject, atoms) in enumerate(entries):
        other_vars: set[Variable] = set()
        for other_position, (_, other_atoms) in enumerate(entries):
            if other_position == position:
                continue
            for atom in other_atoms:
                other_vars.update(
                    term
                    for term in atom.terms
                    if isinstance(term, Variable)
                )
        projection, existential = _group_projection(
            atoms, other_vars, query.projection
        )
        fragments.append(
            Fragment(
                index=position,
                subject=subject,
                query=ConjunctiveQuery(
                    atoms=atoms,
                    projection=projection,
                    name=f"{query.name}#f{position}",
                ),
                existential=existential,
            )
        )

    joined = {
        variable
        for fragment in fragments
        if not fragment.existential
        for variable in fragment.query.projection
    }
    order: tuple[Variable, ...] = ()
    if joined:
        global_order = (
            Planner(_COORDINATOR_CONFIG, sketches).plan(query).global_order
        )
        order = tuple(v for v in global_order if v in joined)
    return FragmentPlan(
        name=query.name,
        shard_count=shard_count,
        projection=query.projection,
        fragments=tuple(fragments),
        probes=tuple(probes),
        single=False,
        order=order,
    )


__all__ = [
    "Fragment",
    "MembershipProbe",
    "FragmentPlan",
    "compile_fragment_plan",
]
