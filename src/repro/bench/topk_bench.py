"""Top-k streaming benchmark: work must scale with LIMIT, not result size.

The tentpole claim of the streaming executor: a ``LIMIT k`` query stops
enumerating once ``offset + k`` distinct projected rows exist, so the
join work (measured by the executor's ``enumerated_tuples`` counter)
is bounded by the requested slice — independent of how large the store
or the full result would be. The materializing path, by contrast,
enumerates the whole join before slicing.

Three deep-limit legs run over LUBM at two scales (``--universities``
and ``--universities * --scale``) on the EmptyHeaded engine, whose GHD
executor is where the streaming path lives:

* **limit** — a two-atom star join with ``LIMIT 10``;
* **offset** — the same join with ``LIMIT 10 OFFSET 25`` (the cap is
  ``offset + limit`` distinct rows, not ``limit``);
* **union** — a two-branch UNION with ``LIMIT 10 OFFSET 5`` (streamed
  through the sorted k-way merge).

Per leg and scale, both paths run and the report gates on:

1. **rows** — streamed output is row-for-row identical to materialized;
2. **scale independence** — the streamed ``enumerated_tuples`` delta at
   the large scale is within ``--max-scale-ratio`` of the small scale's
   (the materialized delta grows with the store; the streamed one must
   not);
3. **slice bound** — the streamed delta stays under
   ``--bound-factor * max(offset + limit, 64)`` partial tuples (64 is
   the executor's minimum chunk; the factor absorbs per-attribute
   rebinds and branch fan-out);
4. **wall clock** — at the large scale the streamed path's best-of-N
   time beats the materialized path's.

``python -m repro.bench.cli topk --out BENCH_topk.json`` writes the
machine-readable report (a CI artifact beside the other benches).
"""

from __future__ import annotations

import time

from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.lubm import generate_dataset

_UB = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#"
_PREFIX = f"PREFIX ub: <{_UB}> "

#: Deep-limit legs: (name, query, offset + limit). Each query's full
#: result grows with the store while its slice stays fixed.
LEGS = (
    (
        "limit",
        _PREFIX + "SELECT ?x ?y WHERE { ?x ub:advisor ?z . "
        "?x ub:takesCourse ?y } LIMIT 10",
        10,
    ),
    (
        "offset",
        _PREFIX + "SELECT ?x ?y WHERE { ?x ub:advisor ?z . "
        "?x ub:takesCourse ?y } LIMIT 10 OFFSET 25",
        35,
    ),
    (
        "union",
        _PREFIX + "SELECT ?x ?y WHERE { { ?x ub:takesCourse ?y } UNION "
        "{ ?x ub:advisor ?y } } LIMIT 10 OFFSET 5",
        15,
    ),
)

#: The executor's minimum streaming chunk (``_STREAM_CHUNK_MIN``): the
#: slice bound can never undercut one chunk's worth of work.
_MIN_CHUNK = EmptyHeadedEngine._STREAM_CHUNK_MIN


def _measure(engine: EmptyHeadedEngine, text: str, repeats: int) -> dict:
    """Best-of-``repeats`` timings and enumerated-tuple deltas for the
    materialized and streamed paths, plus their decoded rows."""
    query = engine.prepare_sparql(text)
    engine.execute_sparql(text)  # warm plan + tries
    list(engine.execute_iter(query))
    stats = engine.executor_stats

    materialized_s = streamed_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        relation = engine.execute_sparql(text)
        materialized_s = min(materialized_s, time.perf_counter() - start)
    before = stats.enumerated_tuples
    relation = engine.execute_sparql(text)
    materialized_enum = stats.enumerated_tuples - before

    for _ in range(repeats):
        start = time.perf_counter()
        pages = list(engine.execute_iter(query))
        streamed_s = min(streamed_s, time.perf_counter() - start)
    before = stats.enumerated_tuples
    pages = list(engine.execute_iter(query))
    streamed_enum = stats.enumerated_tuples - before

    return {
        "materialized_rows": engine.decode(relation),
        "streamed_rows": [
            row for page in pages for row in engine.decode(page)
        ],
        "materialized_enumerated": materialized_enum,
        "streamed_enumerated": streamed_enum,
        "materialized_s": materialized_s,
        "streamed_s": streamed_s,
    }


def run_topk_bench(
    universities: int = 1,
    seed: int = 0,
    scale: int = 2,
    repeats: int = 3,
    max_scale_ratio: float = 1.5,
    bound_factor: float = 12.0,
) -> dict:
    if scale < 2:
        raise ValueError("--scale must be >= 2 to compare store sizes")
    sizes = (universities, universities * scale)
    checks: list[dict] = []
    legs: dict[str, dict] = {name: {} for name, _, _ in LEGS}

    for size in sizes:
        dataset = generate_dataset(universities=size, seed=seed)
        engine = EmptyHeadedEngine(dataset.store)
        for name, text, cap in LEGS:
            sample = _measure(engine, text, repeats)
            rows_ok = (
                sample["streamed_rows"] == sample["materialized_rows"]
            )
            checks.append(
                {
                    "check": "rows_identical",
                    "leg": name,
                    "universities": size,
                    "ok": rows_ok,
                }
            )
            bound = int(bound_factor * max(cap, _MIN_CHUNK))
            checks.append(
                {
                    "check": "slice_bound",
                    "leg": name,
                    "universities": size,
                    "streamed_enumerated": sample["streamed_enumerated"],
                    "bound": bound,
                    "ok": sample["streamed_enumerated"] <= bound,
                }
            )
            legs[name][size] = {
                key: value
                for key, value in sample.items()
                if not key.endswith("_rows")
            } | {"rows": len(sample["streamed_rows"])}

    small, large = sizes
    for name, _, _ in LEGS:
        at_small, at_large = legs[name][small], legs[name][large]
        checks.append(
            {
                "check": "scale_independent_enumeration",
                "leg": name,
                "small": at_small["streamed_enumerated"],
                "large": at_large["streamed_enumerated"],
                "max_ratio": max_scale_ratio,
                "ok": at_large["streamed_enumerated"]
                <= max_scale_ratio
                * max(at_small["streamed_enumerated"], 1),
            }
        )
        checks.append(
            {
                "check": "wall_clock_win",
                "leg": name,
                "streamed_s": at_large["streamed_s"],
                "materialized_s": at_large["materialized_s"],
                "ok": at_large["streamed_s"] <= at_large["materialized_s"],
            }
        )

    return {
        "bench": "topk",
        "engine": "emptyheaded",
        "universities": list(sizes),
        "seed": seed,
        "repeats": repeats,
        "legs": {
            name: {str(size): stats for size, stats in by_size.items()}
            for name, by_size in legs.items()
        },
        "checks": checks,
        "ok": all(check["ok"] for check in checks),
    }


def render(report: dict) -> str:
    lines = [
        "top-k streaming bench (emptyheaded, universities="
        f"{report['universities']})",
        f"{'leg':<8} {'unis':>5} {'rows':>5} {'mat enum':>9} "
        f"{'str enum':>9} {'mat ms':>8} {'str ms':>8}",
    ]
    for name, by_size in report["legs"].items():
        for size, stats in by_size.items():
            lines.append(
                f"{name:<8} {size:>5} {stats['rows']:>5} "
                f"{stats['materialized_enumerated']:>9} "
                f"{stats['streamed_enumerated']:>9} "
                f"{stats['materialized_s'] * 1e3:>8.2f} "
                f"{stats['streamed_s'] * 1e3:>8.2f}"
            )
    for check in report["checks"]:
        if not check["ok"]:
            lines.append(f"FAILED: {check}")
    lines.append("ok" if report["ok"] else "NOT ok")
    return "\n".join(lines)
