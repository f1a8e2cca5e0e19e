"""Differential harness, sharded leg: every randomized query must
return *identical* rows (including canonical order) from a
:class:`~repro.distributed.engine.ShardedEngine` over subject-hash
partitioned stores (N=2 and N=3) and from the same inner engine over
the equivalent single store — the same generators, specs and SPARQL
surface as :mod:`tests.integration.test_differential_random`, so plan
diversity, UNION/OPTIONAL assembly, filters and slices all cross the
scatter-gather path. A second leg drives ``add_triples`` /
``remove_triples`` against *open* streaming cursors: the pinned
cross-shard epoch must keep serving the pre-update snapshot while
fresh executions see the mutated graph, row-for-row with the single
store. A third leg runs cyclic, clique, hub-star and disconnected
shapes whose atoms have different subjects, so the coordinator joins
several fragment results — with the generic join and never pairwise.
"""

import pathlib
import random

import pytest

import repro.core
import repro.distributed

from repro.distributed import ShardedEngine, ShardedStore
from repro.engines import ALL_ENGINES
from repro.storage.vertical import vertically_partition

from tests.integration.test_differential_random import (
    _make_graph,
    _QueryGen,
)
from tests.util import relalg_imports, spy_pairwise_kernels

SHARD_COUNTS = (2, 3)
QUERIES_PER_SEED = 6


def _single_engines(graph):
    store = vertically_partition(list(graph))
    return store, {cls.name: cls(store) for cls in ALL_ENGINES}


def _sharded_engines(graph):
    """One ShardedEngine per (shard count, inner engine name)."""
    stores = {
        count: ShardedStore.partition(list(graph), count)
        for count in SHARD_COUNTS
    }
    engines = {
        (count, cls.name): ShardedEngine(store, cls.name)
        for count, store in stores.items()
        for cls in ALL_ENGINES
    }
    return stores, engines


@pytest.mark.parametrize("seed", range(8))
def test_sharded_matches_single_store_on_random_queries(seed):
    rng = random.Random(7000 + seed)
    graph = _make_graph(rng)
    _, singles = _single_engines(graph)
    _, sharded = _sharded_engines(graph)
    gen = _QueryGen(rng, graph)
    for index in range(QUERIES_PER_SEED):
        spec = gen.spec()
        text = gen.text(spec)
        for name, engine in singles.items():
            expected = engine.decode(engine.execute_sparql(text))
            for count in SHARD_COUNTS:
                dist = sharded[(count, name)]
                rows = dist.decode(dist.execute_sparql(text))
                assert rows == expected, (
                    f"seed={seed} query#{index} engine={name} "
                    f"shards={count} query={text!r}: sharded returned "
                    f"{rows!r}, single store {expected!r}"
                )


@pytest.mark.parametrize("seed", range(4))
def test_sharded_open_cursors_pin_epoch_through_updates(seed):
    """Mid-stream updates: open sharded cursors keep the pinned epoch,
    fresh streamed executions see the new graph — both row-for-row
    with the single store applying the same batches."""
    from repro.service import QueryService

    rng = random.Random(8000 + seed)
    graph = list(_make_graph(rng))
    single_store, singles = _single_engines(graph)
    shard_stores, sharded = _sharded_engines(graph)
    services = {
        key: QueryService(engine) for key, engine in sharded.items()
    }
    single_services = {
        name: QueryService(engine) for name, engine in singles.items()
    }

    gen = _QueryGen(rng, graph)
    specs = [gen.spec() for _ in range(3)]
    for spec in specs:  # exact-comparison queries: no final slice
        spec["limit"] = None
        spec["offset"] = 0
    texts = [gen.text(spec) for spec in specs]
    subjects = sorted({s for s, _, _ in graph})
    predicates = sorted({p for _, p, _ in graph})

    for step, text in enumerate(texts):
        snapshots = {
            key: service.engine.decode(service.execute(text))
            for key, service in services.items()
        }
        cursors = {
            key: service.session().execute(
                text, page_size=2, stream=True
            )
            for key, service in services.items()
        }
        first = {key: cursor.fetch() for key, cursor in cursors.items()}

        additions = [
            (
                rng.choice(subjects),
                rng.choice(predicates),
                rng.choice(subjects),
            )
            for _ in range(rng.randint(1, 3))
        ]
        removals = [sorted(set(graph) | set(additions))[0]]
        added = single_store.add_triples(additions)
        removed = single_store.remove_triples(removals)
        for count, store in shard_stores.items():
            assert store.add_triples(additions) == added, (count, step)
            assert store.remove_triples(removals) == removed, (
                count,
                step,
            )
        graph = sorted((set(graph) | set(additions)) - set(removals))

        # Open cursors keep serving the pre-update cross-shard epoch.
        for key, cursor in cursors.items():
            rest = [] if first[key].done else cursor.fetch_all()
            rows = list(first[key].rows) + rest
            assert rows == snapshots[key], (
                f"seed={seed} step={step} engine={key}: open sharded "
                f"cursor returned {rows!r}, pre-update snapshot "
                f"{snapshots[key]!r}"
            )

        # Fresh streamed executions observe the new epoch and match
        # the single store exactly.
        for name, service in single_services.items():
            expected = (
                service.session().execute(text, stream=True).fetch_all()
            )
            for count in SHARD_COUNTS:
                rows = (
                    services[(count, name)]
                    .session()
                    .execute(text, stream=True)
                    .fetch_all()
                )
                assert rows == expected, (
                    f"seed={seed} step={step} engine={name} "
                    f"shards={count}: post-update stream returned "
                    f"{rows!r}, single store {expected!r}"
                )


# ---------------------------------------------------------------------------
# Multi-fragment shapes: the coordinator's generic join
# ---------------------------------------------------------------------------
EX = "http://ex/"
EDGE = f"<{EX}e>"
TAG = f"<{EX}tag>"
SHAPE_SHARDS = (1, 2, 3)

#: Every atom subject differs across groups, so on two or more shards
#: each shape compiles to several fragments and exercises the
#: coordinator merge; on one shard it runs whole on the shard.
SHAPES = {
    "triangle": "SELECT ?a ?b ?c WHERE { "
    f"?a {EDGE} ?b . ?b {EDGE} ?c . ?c {EDGE} ?a }}",
    "cycle4": "SELECT ?a ?b ?c ?d WHERE { "
    f"?a {EDGE} ?b . ?b {EDGE} ?c . ?c {EDGE} ?d . ?d {EDGE} ?a }}",
    "clique4": "SELECT ?a ?b ?c ?d WHERE { "
    f"?a {EDGE} ?b . ?a {EDGE} ?c . ?a {EDGE} ?d . "
    f"?b {EDGE} ?c . ?b {EDGE} ?d . ?c {EDGE} ?d }}",
    "lollipop": "SELECT ?a ?b ?c ?d WHERE { "
    f"?a {EDGE} ?b . ?b {EDGE} ?c . ?c {EDGE} ?a . ?a {EDGE} ?d }}",
    # The hub's leaves are subjects of their own atoms, joined on ?t.
    "hub_star": "SELECT ?h ?a ?b ?t WHERE { "
    f"?h {EDGE} ?a . ?h {EDGE} ?b . ?a {TAG} ?t . ?b {TAG} ?t }}",
    # Two groups sharing no variable: a cross product at the coordinator.
    "disconnected": "SELECT ?a ?b ?t WHERE { "
    f"?a {EDGE} ?b . ?b {EDGE} ?a . ?c {TAG} ?t }}",
}


def _community_graph(seed, nodes=40, edges=110, community=8):
    """A sparse random digraph plus a planted dense community (member
    ``i`` points at the next ``community // 2`` members), and a tag
    per node."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            pairs.add((a, b))
    members = rng.sample(range(nodes), community)
    for i, a in enumerate(members):
        for step in range(1, community // 2 + 1):
            pairs.add((a, members[(i + step) % community]))
    triples = [
        (f"<{EX}n{a}>", EDGE, f"<{EX}n{b}>") for a, b in pairs
    ] + [
        (f"<{EX}n{n}>", TAG, f"<{EX}t{rng.randrange(3)}>")
        for n in range(nodes)
    ]
    return sorted(triples)



def _inner(engine, text):
    bound = engine.bind(engine.prepare_sparql(text))
    inner, _ = engine.split_modifiers(bound)
    return inner


@pytest.fixture(scope="module")
def community():
    graph = _community_graph(11)
    _, singles = _single_engines(graph)
    stores = {
        count: ShardedStore.partition(graph, count)
        for count in SHAPE_SHARDS
    }
    return singles, stores


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_multi_fragment_shapes_match_single_store(community, shape):
    singles, stores = community
    text = SHAPES[shape]
    for name, engine in singles.items():
        expected = engine.decode(engine.execute_sparql(text))
        assert expected, (shape, name)  # the planted community matches
        for count, store in stores.items():
            sharded = ShardedEngine(store, name)
            plan = sharded.plan_for(_inner(sharded, text))
            if count == 1:
                # One shard holds every triple: it runs the whole query.
                assert plan.single, (shape, plan.explain())
            else:
                assert len(plan.fragments) > 1, (shape, plan.explain())
            rows = sharded.decode(sharded.execute_sparql(text))
            assert rows == expected, (
                f"shape={shape} engine={name} shards={count}: sharded "
                f"returned {len(rows)} rows, single store "
                f"{len(expected)}"
            )


@pytest.mark.parametrize("shape", ["triangle", "disconnected"])
def test_coordinator_joins_no_pair(community, monkeypatch, shape):
    """No pairwise kernel runs for a sharded multi-fragment query —
    wherever a module bound the name, the spy counts the call."""
    calls = spy_pairwise_kernels(monkeypatch)
    _, stores = community
    engine = ShardedEngine(stores[2])
    assert engine.execute_sparql(SHAPES[shape]).num_rows > 0
    assert calls == []


def test_distributed_imports_no_relalg():
    package = pathlib.Path(repro.distributed.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert relalg_imports(path) == [], path


def test_core_joins_import_no_relalg():
    """The GHD executor and the generic join use no pairwise kernel;
    in ``core/`` only OPTIONAL assembly (``blocks.py``, which matches
    rows with ``join_indices``) imports ``repro.relalg``."""
    package = pathlib.Path(repro.core.__file__).parent
    importers = {
        path.name
        for path in sorted(package.glob("*.py"))
        if relalg_imports(path)
    }
    assert importers == {"blocks.py"}
