"""``repro-lubm`` command-line interface.

Subcommands::

    repro-lubm generate --universities 1 --out data.nt   # write N-Triples
    repro-lubm query --query 2                           # run one query
    repro-lubm table1                                    # regenerate Table I
    repro-lubm table2                                    # regenerate Table II
    repro-lubm figures                                   # Figures 1-3
    repro-lubm smoke                                     # correctness gate

``smoke`` runs every engine over a tiny LUBM instance and exits
non-zero on any cross-engine disagreement or golden-count regression —
a benchmark-shaped test with no timing assertions (see
:mod:`repro.bench.smoke`).

``table1`` / ``table2`` / ``figures`` regenerate the paper's own
artifacts under its measurement protocol. Serving, update, streaming
and sharded performance is measured by the repo's one benchmark,
``benchmarks/ledger/run.py`` (committed baseline + ``compare.py``);
the behaviour those paths must keep is asserted by the test suite.
"""

from __future__ import annotations

import argparse
import sys
import time


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

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main(sys.argv[1:])
