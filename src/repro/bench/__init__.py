"""Benchmark harness implementing the paper's measurement protocol.

Section IV-A4: each query runs seven times; the best and worst runs are
discarded; the reported number is the average of the remaining five.
Compilation (plan) time is excluded by running queries back-to-back so
only the first (discarded) run pays it.

What lives here is that protocol (:mod:`~repro.bench.harness`), the
paper's own artifacts (:mod:`~repro.bench.table1`,
:mod:`~repro.bench.table2`, :mod:`~repro.bench.figures`) and the
golden-count ``smoke`` gate (:mod:`~repro.bench.smoke`), all behind
:mod:`repro.bench.cli`. Serving, update and sharded performance is
measured by ``benchmarks/ledger/`` and asserted on by nothing in here.
"""

from repro.bench.harness import BenchmarkResult, measure, run_paper_protocol
from repro.bench.report import format_table

__all__ = [
    "BenchmarkResult",
    "format_table",
    "measure",
    "run_paper_protocol",
]
