"""The sharded-execution benchmark target and its JSON report.

Tier-1 runs restrict the identity leg to a query subset and disable
the timing gate (``min_speedup=0``); byte-for-byte identity and the
update round are asserted at any scale. The pooled scaling leg needs
worker processes over shared memory, so it is exercised only where
``shm_supported()``.
"""

import json

import pytest

from repro.bench.report import write_report
from repro.bench.shards_bench import (
    SCATTER_FAMILY,
    render,
    run_shards_bench,
)
from repro.service.cluster.shm import shm_supported

SMOKE_QUERIES = (1, 2, 4, 9)


def test_identity_leg_report_shape(tmp_path):
    report = run_shards_bench(
        shards=3, skip_scaling=True, query_ids=SMOKE_QUERIES
    )
    assert report["ok"], report
    identity = report["identity"]
    assert identity["mismatches"] == []
    assert identity["shard_counts"] == [2, 3]
    assert identity["queries"] == sorted(SMOKE_QUERIES)
    assert len(identity["engines"]) == 5
    # 5 engines x 4 queries x 2 shard counts x 2 stages (load + update)
    assert identity["checked"] == 80
    update = identity["update"]
    assert update["counts_agree"]
    assert update["added"] > 0 and update["removed"] > 0
    assert report["scaling"] == {"skipped": True, "ok": True}
    assert "identity" in render(report)

    out = tmp_path / "BENCH_shards.json"
    write_report(report, str(out))
    parsed = json.loads(out.read_text())
    assert parsed["bench"] == "shards"
    assert parsed["identity"]["checked"] == 80


@pytest.mark.skipif(
    not shm_supported(), reason="shared memory unavailable in this sandbox"
)
def test_scaling_leg_runs_pooled_curve():
    report = run_shards_bench(
        shards=2,
        rounds=1,
        clients=2,
        min_speedup=0.0,
        query_ids=(1,),
    )
    assert report["ok"], report
    scaling = report["scaling"]
    assert [leg["shards"] for leg in scaling["legs"]] == [1, 2]
    assert scaling["rows_agree"]
    assert scaling["family"] == sorted(SCATTER_FAMILY)
    assert all(leg["queries_per_s"] > 0 for leg in scaling["legs"])
    rendered = render(report)
    assert "scaling speedup" in rendered


def test_shards_bench_rejects_single_shard():
    with pytest.raises(ValueError):
        run_shards_bench(shards=1)


def test_cli_shards_target(tmp_path, capsys, monkeypatch):
    from repro.bench import cli as bench_cli
    from repro.bench.cli import main

    calls = {}

    def fake_run(**kwargs):
        calls.update(kwargs)
        return {
            "bench": "shards",
            "config": {
                "triples": 1,
                "universities": 1,
                "seed": 0,
            },
            "identity": {
                "shard_counts": [2, 3],
                "engines": ["emptyheaded"],
                "queries": [1],
                "checked": 2,
                "mismatches": [],
                "update": {
                    "added": 1,
                    "removed": 1,
                    "counts_agree": True,
                },
                "ok": True,
            },
            "scaling": {"skipped": True, "ok": True},
            "ok": True,
        }

    import repro.bench.shards_bench as shards_bench

    monkeypatch.setattr(shards_bench, "run_shards_bench", fake_run)
    out = tmp_path / "BENCH_shards.json"
    main(["shards", "--shards", "3", "--out", str(out)])
    captured = capsys.readouterr().out
    assert "shards bench" in captured
    assert out.exists()
    assert calls["shards"] == 3
    assert calls["universities"] == 1
