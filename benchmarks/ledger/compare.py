"""Compare two ledger reports: ``compare.py old.json new.json``.

For every workload x end-to-end metric: both medians, the ratio with
its base (``new / old``), the regression bound from ``BENCHMARK.json``
and a verdict:

* ``regressed``  — the new median is worse than the old by more than
  the bound (or ``failed_ops_share`` rose at all);
* ``unresolved`` — not regressed, but the spread between repeats
  (interquartile distance over median, on either side) is wider than
  the bound, so "unchanged" cannot be claimed;
* ``ok``         — otherwise.

Exits non-zero when any row is ``regressed``. When both reports were
made from the same inputs (equal ``stream_digest``) the exact counters
must repeat too; one that moved is printed as a note, since a change
may move it on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Counts that repeat exactly for a given seed and run length.
EXACT_COUNTERS = (
    "core.join_tuples", "core.rows_out", "trie.built_count",
    "service.serialize_bytes", "storage.compactions",
)

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)


def verdict(old: dict, new: dict, better: str, bound: float) -> tuple[float, str]:
    """``(new/old ratio, verdict)`` for one metric's two summaries."""
    base, value = old["median"], new["median"]
    ratio = value / base if base else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return ratio, "regressed"
    if max(old["spread"], new["spread"]) > bound:
        return ratio, "unresolved"
    return ratio, "ok"


def compare(old: dict, new: dict) -> list[tuple]:
    """Rows ``(workload, metric, old, new, ratio, bound, verdict)``."""
    rows = []
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            ratio, outcome = verdict(
                before["end_to_end"][name], entry["end_to_end"][name],
                metric["better"], metric["bound"],
            )
            rows.append((
                workload, name, before["end_to_end"][name]["median"],
                entry["end_to_end"][name]["median"], ratio,
                metric["bound"], outcome,
            ))
        failed_old = before["failed_ops_share"]
        failed_new = entry["failed_ops_share"]
        if failed_old:
            ratio = failed_new / failed_old
        else:
            ratio = float("inf") if failed_new else 1.0
        rows.append((
            workload, "failed_ops_share", failed_old, failed_new, ratio,
            0.0, "regressed" if failed_new > failed_old else "ok",
        ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows = compare(old, new)
    print(f"{'workload':14s} {'metric':18s} {'old':>12s} {'new':>12s} "
          f"{'new/old':>8s} {'bound':>6s}  verdict")
    for workload, name, before, after, ratio, bound, outcome in rows:
        print(f"{workload:14s} {name:18s} {before:12.4f} {after:12.4f} "
              f"{ratio:8.3f} {bound:6.2f}  {outcome}")
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        if before["stream_digest"] != entry["stream_digest"]:
            print(f"note: {workload} stream_digest differs (another --seed?)")
            continue
        for name in EXACT_COUNTERS:
            was = before["per_layer"][name]["median"]
            now = entry["per_layer"][name]["median"]
            if was != now:
                print(f"note: {workload} {name} moved {was:.0f} -> {now:.0f}")
    regressed = sum(row[-1] == "regressed" for row in rows)
    unresolved = sum(row[-1] == "unresolved" for row in rows)
    print(f"regressed {regressed}  unresolved {unresolved}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
