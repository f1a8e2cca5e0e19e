"""Per-value re-optimization: the structural plan cache stays the fast
path, but a bound parameter whose sketched selectivity diverges from
the cached plan's assumption re-plans for its value class."""

import pytest

from repro.core.config import OptimizationConfig
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.service.prepared import PreparedStatement
from repro.storage.vertical import VerticallyPartitionedStore

EX = "http://ex/"


@pytest.fixture()
def store():
    triples = []
    # p0 is a hot advisor (50 students), p1 a cold one (3).
    for i in range(50):
        triples.append((f"<{EX}s{i}>", f"<{EX}advisor>", f"<{EX}p0>"))
    for i in range(3):
        triples.append((f"<{EX}t{i}>", f"<{EX}advisor>", f"<{EX}p1>"))
    for i in range(50):
        triples.append((f"<{EX}s{i}>", f"<{EX}a>", f"<{EX}Grad>"))
    for i in range(3):
        triples.append((f"<{EX}t{i}>", f"<{EX}a>", f"<{EX}Grad>"))
    store = VerticallyPartitionedStore()
    store.add_triples(triples)
    return store


TEMPLATE = (
    f"SELECT ?x WHERE {{ ?x <{EX}advisor> $prof . ?x <{EX}a> <{EX}Grad> }}"
)


def _statement(store, **kwargs):
    engine = EmptyHeadedEngine(store)
    return PreparedStatement(
        engine, TEMPLATE, result_cache_size=0, **kwargs
    )


def test_divergent_value_reoptimizes_and_caches(store):
    stmt = _statement(store)
    assert len(stmt.execute(prof=f"<{EX}p0>")) == 50  # cold plan
    assert stmt.stats.plans_retained == 0
    assert stmt.stats.plans_reoptimized == 0

    assert len(stmt.execute(prof=f"<{EX}p0>")) == 50
    assert stmt.stats.plans_retained == 1

    # 3 rows vs the cached plan's 50-row assumption: diverges at 8x.
    assert len(stmt.execute(prof=f"<{EX}p1>")) == 3
    assert stmt.stats.plans_reoptimized == 1

    # The value-class plan is cached: re-running p1 re-optimizes again
    # (same disposition) without growing the plan cache.
    cache_size = len(stmt.engine._plan_cache)
    assert len(stmt.execute(prof=f"<{EX}p1>")) == 3
    assert stmt.stats.plans_reoptimized == 2
    assert len(stmt.engine._plan_cache) == cache_size


def test_same_class_values_share_the_structural_plan(store):
    stmt = _statement(store)
    stmt.execute(prof=f"<{EX}p0>")
    stmt.execute(prof=f"<{EX}p0>")
    assert stmt.stats.plans_retained == 1
    assert stmt.stats.plans_reoptimized == 0


def test_reoptimize_off_retains_everything(store):
    engine = EmptyHeadedEngine(
        store, config=OptimizationConfig.all_on().but(reoptimize=False)
    )
    stmt = PreparedStatement(engine, TEMPLATE, result_cache_size=0)
    stmt.execute(prof=f"<{EX}p0>")
    stmt.execute(prof=f"<{EX}p1>")
    stmt.execute(prof=f"<{EX}p1>")
    assert stmt.stats.plans_reoptimized == 0
    assert stmt.stats.plans_retained == 2


def test_explain_reports_plan_source_and_bounds(store):
    engine = EmptyHeadedEngine(store)
    hot = TEMPLATE.replace("$prof", f"<{EX}p0>")
    first = engine.explain_sparql(hot)
    assert "plan source: freshly planned" in first
    assert "bounds:" in first
    second = engine.explain_sparql(hot)
    assert "plan source: structural-cached" in second

    cold = TEMPLATE.replace("$prof", f"<{EX}p1>")
    third = engine.explain_sparql(cold)
    assert "plan source: value-reoptimized" in third


def test_executor_stats_record_order_and_bounds(store):
    engine = EmptyHeadedEngine(store)
    engine.execute_sparql(TEMPLATE.replace("$prof", f"<{EX}p0>"))
    stats = engine.executor.stats
    assert stats.last_order  # the chosen attach order is surfaced
    assert stats.last_bounds is not None
    assert set(stats.last_bounds) == set(stats.last_order)


# ---------------------------------------------------------------------------
# Skew: one hot value, a tail of singletons, a two-hop filtered template
# ---------------------------------------------------------------------------
HOT, FANOUT, FLAGS = 200, 2, 5

SKEW_TEMPLATE = (
    f"SELECT ?x ?y WHERE {{ ?x <{EX}p> $v . "
    f"?x <{EX}s> ?y . ?y <{EX}t> <{EX}flag> }}"
)


def _skewed_store():
    """``v0`` matches HOT subjects, ``v1..v3`` one each. Every hot
    subject has FANOUT dead-end ``s`` edges; only the first FLAGS (and
    every cold subject) also reach a flagged object."""
    triples = [
        (f"<{EX}f{m}>", f"<{EX}t>", f"<{EX}flag>") for m in range(FLAGS)
    ]
    for i in range(HOT):
        triples.append((f"<{EX}x{i}>", f"<{EX}p>", f"<{EX}v0>"))
        for k in range(FANOUT):
            triples.append((f"<{EX}x{i}>", f"<{EX}s>", f"<{EX}y{i}_{k}>"))
        if i < FLAGS:
            triples.append((f"<{EX}x{i}>", f"<{EX}s>", f"<{EX}f{i}>"))
    for j in range(1, 4):
        triples.append((f"<{EX}c{j}>", f"<{EX}p>", f"<{EX}v{j}>"))
        triples.append((f"<{EX}c{j}>", f"<{EX}s>", f"<{EX}f{j % FLAGS}>"))
    store = VerticallyPartitionedStore()
    store.add_triples(triples)
    return store


def test_hot_value_runs_under_bounds_that_hold_for_it():
    # The skew claim without a clock: warmed on a cold value, the
    # structural plan opens with ?x and promises one subject. With
    # re-optimization the hot value gets the order that opens with the
    # FLAGS flagged objects; without it the hot value runs the cold
    # plan, whose leading bound it breaks HOT times over.
    store = _skewed_store()
    ran = {}
    for reoptimize in (True, False):
        engine = EmptyHeadedEngine(
            store,
            config=OptimizationConfig.all_on().but(reoptimize=reoptimize),
        )
        stmt = PreparedStatement(engine, SKEW_TEMPLATE, result_cache_size=0)
        stmt.execute(v=f"<{EX}v1>")
        rows = engine.decode(stmt.execute(v=f"<{EX}v0>"))
        stats = engine.executor.stats
        joined = [name for name in stats.last_order if name in ("x", "y")]
        ran[reoptimize] = (rows, joined, stats.last_bounds)

    rows_on, order_on, bounds_on = ran[True]
    rows_off, order_off, bounds_off = ran[False]
    assert rows_on == rows_off and len(rows_on) == FLAGS
    assert order_on == ["y", "x"] and bounds_on["y"] == FLAGS
    assert order_off == ["x", "y"] and bounds_off["x"] == 1 < HOT
