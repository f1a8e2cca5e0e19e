"""``repro-lubm`` command-line interface.

Subcommands::

    repro-lubm generate --universities 1 --out data.nt   # write N-Triples
    repro-lubm query --query 2                           # run one query
    repro-lubm table1                                    # regenerate Table I
    repro-lubm table2                                    # regenerate Table II
    repro-lubm figures                                   # Figures 1-3
    repro-lubm smoke                                     # correctness gate
    repro-lubm service --out BENCH_service.json          # serving bench
    repro-lubm updates --out BENCH_updates.json          # update-path bench
    repro-lubm http --out BENCH_http.json                # live-server bench
    repro-lubm topk --out BENCH_topk.json                # streaming bench
    repro-lubm cluster --out BENCH_cluster.json          # multi-process bench
    repro-lubm skew --out BENCH_skew.json                # re-optimization bench
    repro-lubm shards --out BENCH_shards.json            # sharded-execution bench

``smoke`` runs every engine over a tiny LUBM instance and exits
non-zero on any cross-engine disagreement or golden-count regression —
a benchmark-shaped test with no timing assertions (see
:mod:`repro.bench.smoke`).

``service`` benchmarks the prepared-statement serving tier against
per-text ``execute_sparql`` on a parameterized template family and
writes a machine-readable report (p50/p95 latency, cache hit rates,
template-vs-reparse speedup, concurrent-vs-serial agreement, update
safety); ``--zipf S`` adds a Zipf-skewed traffic leg with its hit
rates; it exits non-zero if any correctness probe fails (see
:mod:`repro.bench.service_bench`).

``updates`` benchmarks the main+delta update path against the
wholesale-rebuild baseline on interleaved write/read traffic across
every engine, cross-checking both legs' rows; ``--min-speedup X``
additionally gates on the measured delta-vs-rebuild ratio (see
:mod:`repro.bench.updates_bench`).

``topk`` benchmarks the streaming top-k executor on deep-``LIMIT``
queries at two store scales, gating on streamed-vs-materialized row
identity, the enumerated-tuples counter staying bounded by the
requested slice (independent of store scale), and a wall-clock win
over full materialization (see :mod:`repro.bench.topk_bench`).

``http`` starts a live :class:`~repro.service.http.SparqlHttpServer`
and measures end-to-end p50/p95 of streamed JSON/binary serving against
in-process ``PreparedStatement.execute`` on the same template family,
cross-checking every response row-for-row and probing protocol
conformance (error codes, ``/stats``, ``/explain``, ``/update``); it
exits non-zero when any check fails or either format exceeds
``--max-overhead`` times the in-process p50 (see
:mod:`repro.bench.http_bench`).

``cluster`` starts the multi-process serving tier (shared-memory
segment store + pre-fork worker pool behind the one HTTP server) and drives
a 1→N worker scaling curve, gating on byte-identical responses versus
the single-process server, cluster-wide update visibility, zero
leftover shared-memory segments after shutdown, and an adaptive
throughput-scaling / p99 target (relaxed on machines with fewer cores
than workers; see :mod:`repro.bench.cluster_bench`).

``skew`` replays one Zipf-skewed parameter stream through two prepared
statements — per-value re-optimization on vs. the structural-cache-only
baseline (``reoptimize=off``) — over a store with one hot value and a
tail of cold singletons; it gates on the hot-value p50 speedup
(``--min-speedup``, 2x in CI), value-for-value row agreement between
the legs, and both plan dispositions (retained/reoptimized) firing
(see :mod:`repro.bench.skew_bench`).

``shards`` gates the distributed tier: every engine's binary response
bodies over a subject-hash :class:`~repro.distributed.store.ShardedStore`
must match the single store byte for byte at every shard count on the
curve (before *and* after a cross-shard update round), and the pooled
scatter-gather transport must beat the 1-shard leg's wall clock on a
scatter-heavy query family by ``--min-speedup`` when the machine has
>= 2 effective cores (see :mod:`repro.bench.shards_bench`).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.report import write_report


def _cmd_generate(args) -> None:
    from repro.lubm.generator import GeneratorConfig, generate_triples
    from repro.rdf.ntriples import to_ntriples

    config = GeneratorConfig(universities=args.universities, seed=args.seed)
    start = time.perf_counter()
    count = 0
    with open(args.out, "w", encoding="utf-8") as handle:
        for triple in generate_triples(config):
            handle.write(
                f"{triple.subject} {triple.predicate} {triple.object} .\n"
            )
            count += 1
    elapsed = time.perf_counter() - start
    print(f"wrote {count} triples to {args.out} in {elapsed:.1f}s")


def _cmd_query(args) -> None:
    from repro.engines.emptyheaded import EmptyHeadedEngine
    from repro.lubm import generate_dataset, lubm_query

    dataset = generate_dataset(universities=args.universities, seed=args.seed)
    engine = EmptyHeadedEngine(dataset.store)
    text = lubm_query(args.query, dataset.config)
    start = time.perf_counter()
    result = engine.execute_sparql(text)
    elapsed = (time.perf_counter() - start) * 1e3
    print(text)
    print(f"-> {result.num_rows} rows in {elapsed:.2f} ms (cold)")
    if args.explain:
        print(engine.explain_sparql(text))
    if args.show:
        for row in list(engine.decode(result))[: args.show]:
            print("  ", *row)


def _cmd_table1(args) -> None:
    from repro.bench.table1 import generate_table1

    table, _ = generate_table1(args.universities, args.seed, args.runs)
    print(table)


def _cmd_table2(args) -> None:
    from repro.bench.table2 import generate_table2

    table, _ = generate_table2(args.universities, args.seed, args.runs)
    print(table)


def _cmd_figures(args) -> None:
    from repro.bench import figures

    figures.main()


def _cmd_smoke(args) -> None:
    from repro.bench.smoke import run_smoke

    report = run_smoke(
        universities=args.universities, seed=args.seed, scale=args.scale
    )
    print(report.render())
    if not report.ok:
        sys.exit(1)


def _emit(report: dict, render, out: str | None) -> None:
    """Print a bench report, write it when asked, exit 1 on a failed gate."""
    print(render(report))
    if out:
        write_report(report, out)
        print(f"wrote {out}")
    if not report["ok"]:
        sys.exit(1)


def _cmd_service(args) -> None:
    from repro.bench.service_bench import render, run_service_bench

    report = run_service_bench(
        universities=args.universities,
        seed=args.seed,
        family=args.family,
        rounds=args.rounds,
        workers=args.workers,
        zipf=args.zipf,
    )
    _emit(report, render, args.out)


def _cmd_updates(args) -> None:
    from repro.bench.updates_bench import render, run_updates_bench

    report = run_updates_bench(
        universities=args.universities,
        seed=args.seed,
        scale=args.scale,
        batches=args.batches,
        batch_size=args.batch_size,
    )
    _emit(report, render, args.out)
    if args.min_speedup and report["update_query_speedup"] < args.min_speedup:
        print(
            f"update_query_speedup {report['update_query_speedup']} "
            f"below --min-speedup {args.min_speedup}"
        )
        sys.exit(1)


def _cmd_topk(args) -> None:
    from repro.bench.topk_bench import render, run_topk_bench

    report = run_topk_bench(
        universities=args.universities,
        seed=args.seed,
        scale=args.scale,
        repeats=args.repeats,
        max_scale_ratio=args.max_scale_ratio,
        bound_factor=args.bound_factor,
    )
    _emit(report, render, args.out)


def _cmd_http(args) -> None:
    from repro.bench.http_bench import render, run_http_bench

    report = run_http_bench(
        universities=args.universities,
        seed=args.seed,
        family=args.family,
        rounds=args.rounds,
        workers=args.workers,
        max_overhead=args.max_overhead,
    )
    _emit(report, render, args.out)


def _cmd_cluster(args) -> None:
    from repro.bench.cluster_bench import render, run_cluster_bench
    from repro.service.cluster.shm import shm_supported

    if not shm_supported():
        print("cluster bench skipped: shared memory unavailable here")
        return
    report = run_cluster_bench(
        universities=args.universities,
        seed=args.seed,
        family=args.family,
        rounds=args.rounds,
        workers=args.workers,
        clients=args.clients,
        p99_target_ms=args.p99_target,
        min_scaling=args.min_scaling,
    )
    _emit(report, render, args.out)


def _cmd_shards(args) -> None:
    from repro.bench.shards_bench import render, run_shards_bench
    from repro.service.cluster.shm import shm_supported

    skip_scaling = not shm_supported()
    if skip_scaling:
        print(
            "shards scaling leg skipped: shared memory unavailable here "
            "(identity leg still gates)"
        )
    report = run_shards_bench(
        universities=args.universities,
        seed=args.seed,
        shards=args.shards,
        rounds=args.rounds,
        clients=args.clients,
        min_speedup=args.min_speedup,
        skip_scaling=skip_scaling,
    )
    _emit(report, render, args.out)


def _cmd_skew(args) -> None:
    from repro.bench.skew_bench import render, run_skew_bench

    report = run_skew_bench(
        hot_rows=args.hot_rows,
        cold_values=args.cold_values,
        fanout=args.fanout,
        requests=args.requests,
        zipf=args.zipf,
        seed=args.seed,
        min_speedup=args.min_speedup,
    )
    _emit(report, render, args.out)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro-lubm",
        description="LUBM reproduction toolkit (Aberger et al., ICDE 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--universities", type=int, default=1)
    common.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate", parents=[common])
    gen.add_argument("--out", default="lubm.nt")
    gen.set_defaults(func=_cmd_generate)

    query = sub.add_parser("query", parents=[common])
    query.add_argument("--query", type=int, required=True)
    query.add_argument("--explain", action="store_true")
    query.add_argument("--show", type=int, default=0)
    query.set_defaults(func=_cmd_query)

    for name, func in (("table1", _cmd_table1), ("table2", _cmd_table2)):
        cmd = sub.add_parser(name, parents=[common])
        cmd.add_argument("--runs", type=int, default=7)
        cmd.set_defaults(func=func)

    figures_cmd = sub.add_parser("figures")
    figures_cmd.set_defaults(func=_cmd_figures)

    smoke = sub.add_parser("smoke", parents=[common])
    smoke.add_argument(
        "--scale",
        type=int,
        default=1,
        help="multiply --universities to smoke-test a larger instance "
        "(golden counts gate only the default size)",
    )
    smoke.set_defaults(func=_cmd_smoke)

    service = sub.add_parser("service", parents=[common])
    service.add_argument(
        "--family",
        type=int,
        default=100,
        help="number of distinct parameter values in the template family",
    )
    service.add_argument(
        "--rounds",
        type=int,
        default=8,
        help="passes over the family (round 1 is cold; later rounds "
        "measure the steady state)",
    )
    service.add_argument(
        "--workers", type=int, default=4, help="concurrent thread count"
    )
    service.add_argument(
        "--zipf",
        type=float,
        default=0.0,
        help="add a Zipf-skewed traffic leg with this exponent "
        "(0 disables; ~1.1 models heavy web skew)",
    )
    service.add_argument(
        "--out",
        default="",
        help="write the machine-readable JSON report to this path",
    )
    service.set_defaults(func=_cmd_service)

    updates = sub.add_parser("updates", parents=[common])
    updates.add_argument(
        "--scale",
        type=int,
        default=1,
        help="multiply --universities (matches the smoke gate's knob)",
    )
    updates.add_argument(
        "--batches", type=int, default=4, help="update batches per phase"
    )
    updates.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="ghost students per batch (default ~0.25%% of the store)",
    )
    updates.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero when delta-vs-rebuild speedup falls below "
        "this (0 disables the timing gate)",
    )
    updates.add_argument(
        "--out",
        default="",
        help="write the machine-readable JSON report to this path",
    )
    updates.set_defaults(func=_cmd_updates)

    http_cmd = sub.add_parser("http", parents=[common])
    http_cmd.add_argument(
        "--family",
        type=int,
        default=100,
        help="number of distinct parameter values in the template family",
    )
    http_cmd.add_argument(
        "--rounds",
        type=int,
        default=4,
        help="passes over the family per leg (round 1 is cold)",
    )
    http_cmd.add_argument(
        "--workers",
        type=int,
        default=4,
        help="server pool size and concurrent-client thread count",
    )
    http_cmd.add_argument(
        "--max-overhead",
        type=float,
        default=2.0,
        help="gate: streamed JSON/binary p50 must stay within this "
        "multiple of the in-process execute p50",
    )
    http_cmd.add_argument(
        "--out",
        default="",
        help="write the machine-readable JSON report to this path",
    )
    http_cmd.set_defaults(func=_cmd_http)

    cluster = sub.add_parser("cluster", parents=[common])
    cluster.add_argument(
        "--family",
        type=int,
        default=30,
        help="number of distinct parameter values in the template family",
    )
    cluster.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="family replays per client in each closed-loop leg",
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes in the scaled leg (the curve runs 1 and N)",
    )
    cluster.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent closed-loop HTTP clients per leg",
    )
    cluster.add_argument(
        "--p99-target",
        type=float,
        default=750.0,
        help="p99 latency target in ms for the scaled leg (enforced "
        "only with >= 2 effective workers)",
    )
    cluster.add_argument(
        "--min-scaling",
        type=float,
        default=2.5,
        help="required N-worker/1-worker throughput ratio with >= 4 "
        "effective workers (adapted down on smaller machines)",
    )
    cluster.add_argument(
        "--out",
        default="",
        help="write the machine-readable JSON report to this path",
    )
    cluster.set_defaults(func=_cmd_cluster)

    shards = sub.add_parser("shards", parents=[common])
    shards.add_argument(
        "--shards",
        type=int,
        default=3,
        help="shard count for the scaled leg (the curve runs 1 and N; "
        "the identity leg compares shard counts {2, N})",
    )
    shards.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="scatter-family replays per client in each scaling leg",
    )
    shards.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent closed-loop clients per scaling leg",
    )
    shards.add_argument(
        "--min-speedup",
        type=float,
        default=1.1,
        help="required 1-shard/N-shard wall-clock ratio with >= 2 "
        "effective shards (no timing gate on single-core machines)",
    )
    shards.add_argument(
        "--out",
        default="",
        help="write the machine-readable JSON report to this path",
    )
    shards.set_defaults(func=_cmd_shards)

    skew = sub.add_parser("skew")
    skew.add_argument("--seed", type=int, default=0)
    skew.add_argument(
        "--hot-rows",
        type=int,
        default=60000,
        help="subjects matching the hot parameter value (the cold tail "
        "is one subject per value)",
    )
    skew.add_argument(
        "--cold-values",
        type=int,
        default=24,
        help="cold singleton values in the Zipf family",
    )
    skew.add_argument(
        "--fanout",
        type=int,
        default=6,
        help="dead-end edges per hot subject (the x-first plan's "
        "per-subject intersection work)",
    )
    skew.add_argument(
        "--requests",
        type=int,
        default=300,
        help="Zipf-sampled requests replayed through each leg",
    )
    skew.add_argument(
        "--zipf",
        type=float,
        default=1.2,
        help="Zipf exponent of the request stream (rank 0 is the hot "
        "value)",
    )
    skew.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="gate: required hot-value p50 speedup of re-optimization "
        "over the structural-cache-only leg",
    )
    skew.add_argument(
        "--out",
        default="",
        help="write the machine-readable JSON report to this path",
    )
    skew.set_defaults(func=_cmd_skew)

    topk = sub.add_parser("topk", parents=[common])
    topk.add_argument(
        "--scale",
        type=int,
        default=2,
        help="multiply --universities for the large-store comparison "
        "(streamed enumeration must not grow with it)",
    )
    topk.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repetitions per leg (best-of)",
    )
    topk.add_argument(
        "--max-scale-ratio",
        type=float,
        default=1.5,
        help="gate: streamed enumerated tuples at the large scale must "
        "stay within this multiple of the small scale's",
    )
    topk.add_argument(
        "--bound-factor",
        type=float,
        default=12.0,
        help="gate: streamed enumerated tuples must stay under this "
        "multiple of max(offset + limit, minimum chunk)",
    )
    topk.add_argument(
        "--out",
        default="",
        help="write the machine-readable JSON report to this path",
    )
    topk.set_defaults(func=_cmd_topk)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main(sys.argv[1:])
