"""Skew benchmark: per-value re-optimization vs the structural cache.

The structural plan cache (PR 3) deliberately reuses one attach order
for every parameter value of a template — the documented loser under
skew. This bench builds the adversarial-but-realistic shape: a
two-hop filtered join

    SELECT ?x ?y WHERE { ?x <p> $v . ?x <s> ?y . ?y <t> <flag> }

over a store where one *hot* ``$v`` matches thousands of subjects and
every *cold* value matches one. The bound-driven order search
(``core/bounds.py``) picks opposite attach orders for the two classes:

* cold ``v``: ``x`` first (one subject, frontier ≈ 1);
* hot ``v``: ``y`` first (ten flagged objects cap the frontier), while
  the cold plan's ``x``-first order slogs through every hot subject.

Both legs replay the *same* Zipf-skewed request stream (rank-``r``
value drawn with probability ∝ ``1/(r+1)^s``; rank 0 is the hot value)
through a prepared statement whose structural plan was warmed on a
cold value:

* **reoptimize_on** — the default config: the first hot request's
  sketched selectivity diverges from the cached plan's assumption by
  ``reoptimize_factor``, so the engine re-plans for that value class
  and caches the specialized plan;
* **reoptimize_off** — ``OptimizationConfig.but(reoptimize=False)``:
  every request reuses the structural plan.

The gate: hot-value p50 with re-optimization on must beat the
structural-cache-only leg by ``--min-speedup`` (2x in CI), both legs'
rows must agree value-for-value, and the on-leg's
``StatementStats`` must show *both* dispositions fired
(``plans_retained`` for cold traffic, ``plans_reoptimized`` for hot).
Result caches are disabled so every request pays the join — the
regime where plan quality is the latency.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.bench.report import percentile
from repro.core.config import OptimizationConfig
from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.service.prepared import PreparedStatement
from repro.storage.vertical import vertically_partition

EX = "http://skew.bench/"

TEMPLATE = (
    f"SELECT ?x ?y WHERE {{ ?x <{EX}p> $v . "
    f"?x <{EX}s> ?y . ?y <{EX}t> <{EX}flag> }}"
)


def _skewed_triples(
    hot_rows: int, cold_values: int, fanout: int, flags: int
) -> list[tuple[str, str, str]]:
    """One hot ``v0`` (``hot_rows`` subjects) + ``cold_values`` singletons.

    Every hot subject carries ``fanout`` unflagged ``s``-edges (dead
    ends for the join), the first ``flags`` hot subjects plus every
    cold subject also reach a flagged object — so hot answers stay
    small (``flags`` rows) while the hot frontier under an ``x``-first
    order is the full ``hot_rows``.
    """
    triples: list[tuple[str, str, str]] = []
    for m in range(flags):
        triples.append((f"<{EX}f{m}>", f"<{EX}t>", f"<{EX}flag>"))
    for i in range(hot_rows):
        subject = f"<{EX}x{i}>"
        triples.append((subject, f"<{EX}p>", f"<{EX}v0>"))
        for k in range(fanout):
            triples.append((subject, f"<{EX}s>", f"<{EX}y{i}_{k}>"))
        if i < flags:
            triples.append((subject, f"<{EX}s>", f"<{EX}f{i}>"))
    for j in range(1, cold_values + 1):
        subject = f"<{EX}c{j}>"
        triples.append((subject, f"<{EX}p>", f"<{EX}v{j}>"))
        triples.append((subject, f"<{EX}s>", f"<{EX}f{j % flags}>"))
    return triples


@dataclass
class _Leg:
    """One replay of the stream under a fixed engine config."""

    latencies_ms: list[float]
    hot_ms: list[float]
    cold_ms: list[float]
    total_s: float
    rows: dict[str, frozenset]
    retained: int
    reoptimized: int

    def report(self) -> dict:
        return {
            "requests": len(self.latencies_ms),
            "total_s": round(self.total_s, 6),
            "p50_ms": round(percentile(self.latencies_ms, 0.50), 4),
            "p95_ms": round(percentile(self.latencies_ms, 0.95), 4),
            "hot_p50_ms": round(percentile(self.hot_ms, 0.50), 4),
            "hot_p95_ms": round(percentile(self.hot_ms, 0.95), 4),
            "cold_p50_ms": round(percentile(self.cold_ms, 0.50), 4),
            "plans_retained": self.retained,
            "plans_reoptimized": self.reoptimized,
        }


def _replay(store, stream: list[str], warm_value: str, reoptimize: bool) -> _Leg:
    """Run the stream through a fresh statement warmed on ``warm_value``.

    Warming pins the structural plan to the cold value's assumptions —
    the state a serving tier reaches whenever an unremarkable value
    arrives first. Result caches are off so plan quality, not cache
    residency, sets the latency.
    """
    config = OptimizationConfig.all_on().but(reoptimize=reoptimize)
    engine = EmptyHeadedEngine(store, config=config)
    statement = PreparedStatement(engine, TEMPLATE, result_cache_size=0)
    statement.execute(v=warm_value)
    retained0 = statement.stats.plans_retained
    reoptimized0 = statement.stats.plans_reoptimized

    hot_value = f"<{EX}v0>"
    latencies: list[float] = []
    hot_ms: list[float] = []
    cold_ms: list[float] = []
    rows: dict[str, frozenset] = {}
    start_total = time.perf_counter()
    for value in stream:
        start = time.perf_counter()
        result = statement.execute(v=value)
        elapsed = (time.perf_counter() - start) * 1e3
        latencies.append(elapsed)
        (hot_ms if value == hot_value else cold_ms).append(elapsed)
        if value not in rows:
            rows[value] = result.to_set()
    return _Leg(
        latencies,
        hot_ms,
        cold_ms,
        time.perf_counter() - start_total,
        rows,
        statement.stats.plans_retained - retained0,
        statement.stats.plans_reoptimized - reoptimized0,
    )


def run_skew_bench(
    hot_rows: int = 60000,
    cold_values: int = 24,
    fanout: int = 6,
    flags: int = 10,
    requests: int = 300,
    zipf: float = 1.2,
    seed: int = 0,
    min_speedup: float = 2.0,
) -> dict:
    """Run both legs over one Zipf stream and return the report dict."""
    if hot_rows < flags or cold_values < 1 or requests < 1:
        raise ValueError("skew bench needs hot_rows >= flags, values, requests")
    store = vertically_partition(
        _skewed_triples(hot_rows, cold_values, fanout, flags)
    )

    rng = random.Random(seed)
    family = [f"<{EX}v{rank}>" for rank in range(cold_values + 1)]
    weights = [1.0 / (rank + 1) ** zipf for rank in range(len(family))]
    stream = rng.choices(family, weights=weights, k=requests)
    warm_value = family[-1]  # a cold singleton pins the structural plan

    legs = {
        "reoptimize_on": _replay(store, stream, warm_value, True),
        "reoptimize_off": _replay(store, stream, warm_value, False),
    }
    on, off = legs["reoptimize_on"], legs["reoptimize_off"]

    agrees = on.rows == off.rows
    both_paths_fired = on.reoptimized > 0 and on.retained > 0
    on_hot_p50 = percentile(on.hot_ms, 0.50) if on.hot_ms else 0.0
    off_hot_p50 = percentile(off.hot_ms, 0.50) if off.hot_ms else 0.0
    speedup = off_hot_p50 / on_hot_p50 if on_hot_p50 else 0.0
    return {
        "bench": "skew",
        "config": {
            "hot_rows": hot_rows,
            "cold_values": cold_values,
            "fanout": fanout,
            "flags": flags,
            "requests": requests,
            "zipf": zipf,
            "seed": seed,
            "min_speedup": min_speedup,
            "engine": "emptyheaded",
            "triples": store.num_triples,
            "hot_requests": len(on.hot_ms),
        },
        "template": TEMPLATE,
        "reoptimize_on": on.report(),
        "reoptimize_off": off.report(),
        "hot_p50_speedup": round(speedup, 2),
        "agrees": agrees,
        "both_paths_fired": both_paths_fired,
        "ok": agrees and both_paths_fired and speedup >= min_speedup,
    }


def render(report: dict) -> str:
    """Human-readable summary of :func:`run_skew_bench` output."""
    config = report["config"]
    on = report["reoptimize_on"]
    off = report["reoptimize_off"]
    return "\n".join(
        [
            f"skew bench over {config['triples']} triples "
            f"(1 hot value x {config['hot_rows']} rows + "
            f"{config['cold_values']} cold singletons; "
            f"zipf s={config['zipf']:g}, {config['requests']} requests, "
            f"{config['hot_requests']} hot)",
            f"  reoptimize on:  hot p50 {on['hot_p50_ms']:.2f}ms  "
            f"cold p50 {on['cold_p50_ms']:.2f}ms  "
            f"overall p50 {on['p50_ms']:.2f}ms  "
            f"(retained {on['plans_retained']}, "
            f"reoptimized {on['plans_reoptimized']})",
            f"  reoptimize off: hot p50 {off['hot_p50_ms']:.2f}ms  "
            f"cold p50 {off['cold_p50_ms']:.2f}ms  "
            f"overall p50 {off['p50_ms']:.2f}ms",
            f"  hot-value p50 speedup: {report['hot_p50_speedup']:.1f}x "
            f"(gate >= {config['min_speedup']:g}x)   "
            f"rows agree: {report['agrees']}   "
            f"both paths fired: {report['both_paths_fired']}",
        ]
    )
