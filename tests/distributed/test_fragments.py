"""Fragment compilation: grouping, targeting, pushdown, merge order,
explain."""

from dataclasses import replace

import pytest

from repro.core.config import OptimizationConfig
from repro.core.planner import Planner
from repro.core.query import Variable
from repro.distributed import ShardedEngine, ShardedStore
from repro.distributed.fragments import MembershipProbe

EX = "http://ex/"


def _graph():
    triples = []
    for i in range(24):
        s = f"<{EX}s{i}>"
        triples.append((s, f"<{EX}advisor>", f"<{EX}s{(i * 7) % 24}>"))
        if i % 2 == 0:
            triples.append((s, f"<{EX}memberOf>", f"<{EX}org{i % 3}>"))
    for j in range(3):
        triples.append(
            (f"<{EX}org{j}>", f"<{EX}worksFor>", f"<{EX}dept{j % 2}>")
        )
    return sorted(set(triples))


@pytest.fixture()
def engine():
    store = ShardedStore.partition(_graph(), 3)
    return ShardedEngine(store)


def _inner(engine, text):
    bound = engine.bind(engine.prepare_sparql(text))
    assert bound is not None, text
    inner, _ = engine.split_modifiers(bound)
    return inner


def _plan(engine, text):
    return engine.plan_for(_inner(engine, text))


def test_single_subject_group_compiles_to_one_partitioned_fragment(
    engine,
):
    plan = _plan(
        engine,
        f"SELECT ?x ?y WHERE {{ ?x <{EX}advisor> ?y . "
        f"?x <{EX}memberOf> <{EX}org0> }}",
    )
    assert plan.single
    assert len(plan.fragments) == 1
    assert not plan.fragments[0].targeted
    assert plan.shard_count == 3
    assert plan.probes == ()
    assert plan.order == ()
    assert "-> every shard" in plan.explain()
    assert "concat + distinct" in plan.explain()


def test_limit_pushdown_on_single_fragment_plans(engine):
    plan = _plan(
        engine,
        f"SELECT ?y WHERE {{ ?x <{EX}advisor> ?y }} LIMIT 5 OFFSET 2",
    )
    assert plan.single
    fragment = plan.fragments[0].query
    # Per-shard LIMIT offset+limit, OFFSET applied at the coordinator:
    # the global top-k is a subset of the union of per-shard top-ks.
    assert fragment.limit == 7
    assert fragment.offset == 0


def test_constant_subject_targets_one_shard(engine):
    plan = _plan(
        engine, f"SELECT ?y WHERE {{ <{EX}s3> <{EX}advisor> ?y }}"
    )
    fragment = plan.fragments[0]
    assert fragment.targeted
    assert "targeted" in plan.explain()


def test_multi_group_plans_merge_by_generic_join_in_planner_order(
    engine,
):
    text = (
        f"SELECT ?x ?z WHERE {{ ?x <{EX}memberOf> ?y . "
        f"?y <{EX}worksFor> ?z }}"
    )
    inner = _inner(engine, text)
    plan = engine.plan_for(inner)
    assert not plan.single
    assert len(plan.fragments) == 2
    assert not any(f.targeted for f in plan.fragments)
    # The coordinator's order is the planner's global order for the
    # whole query as one node, restricted to the variables the
    # fragments project.
    planned = Planner(
        OptimizationConfig.all_on().but(use_ghd=False),
        engine.store.column_sketches(),
    ).plan(inner).global_order
    projected = {
        v for f in plan.fragments for v in f.query.projection
    }
    assert plan.order == tuple(v for v in planned if v in projected)
    assert {v.name for v in plan.order} == {"x", "y", "z"}
    explain = plan.explain()
    assert "scatter-gather plan" in explain
    order = ", ".join(v.name for v in plan.order)
    assert f"merge: generic join over [{order}]" in explain
    assert "natural join" not in explain


def test_variable_free_group_becomes_membership_probe(engine):
    plan = _plan(
        engine,
        f"SELECT ?x ?y WHERE {{ ?x <{EX}advisor> ?y . "
        f"<{EX}org0> <{EX}worksFor> <{EX}dept0> }}",
    )
    assert len(plan.probes) == 1
    assert len(plan.fragments) == 1
    assert not plan.fragments[0].targeted


def test_one_shard_runs_the_whole_query_as_one_fragment():
    engine = ShardedEngine(ShardedStore.partition(_graph(), 1))
    for text in (
        f"SELECT ?x ?z WHERE {{ ?x <{EX}memberOf> ?y . "
        f"?y <{EX}worksFor> ?z }}",
        f"SELECT ?x ?y WHERE {{ ?x <{EX}advisor> ?y . "
        f"<{EX}org0> <{EX}worksFor> <{EX}dept0> }}",
    ):
        inner = _inner(engine, text)
        plan = engine.plan_for(inner)
        assert plan.single, plan.explain()
        assert plan.probes == ()
        assert plan.fragments[0].query == inner
    # The last query's constant atom alone has no variable: it still
    # only probes membership.
    constant = replace(
        inner,
        atoms=tuple(
            atom
            for atom in inner.atoms
            if not any(isinstance(t, Variable) for t in atom.terms)
        ),
        projection=(),
    )
    plan = engine.plan_for(constant)
    assert plan.fragments == ()
    assert plan.probes == (MembershipProbe(constant.atoms),)


def test_fragment_queries_project_join_and_output_vars(engine):
    plan = _plan(
        engine,
        f"SELECT ?x WHERE {{ ?x <{EX}memberOf> ?y . "
        f"?y <{EX}worksFor> ?z }}",
    )
    by_subject = {
        fragment.subject.name: fragment for fragment in plan.fragments
    }
    x_names = [v.name for v in by_subject["x"].query.projection]
    y_names = [v.name for v in by_subject["y"].query.projection]
    assert "x" in x_names and "y" in x_names  # output + join var
    assert "y" in y_names  # join var kept; ?z existential-or-kept
