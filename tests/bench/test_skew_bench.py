"""The skew benchmark target and its JSON report.

The tier-1 runs use a scaled-down store and gate only on correctness
(``min_speedup=0``): timing thresholds belong to the CI bench job, not
the unit suite. The plan-disposition counters and cross-leg row
agreement are asserted at any scale.
"""

import json

from repro.bench.report import write_report
from repro.bench.skew_bench import TEMPLATE, run_skew_bench


def test_skew_bench_report_shape(tmp_path):
    report = run_skew_bench(
        hot_rows=400,
        cold_values=6,
        fanout=2,
        flags=5,
        requests=60,
        seed=0,
        min_speedup=0.0,
    )
    assert report["ok"], report
    assert report["agrees"]
    assert report["both_paths_fired"]
    on = report["reoptimize_on"]
    off = report["reoptimize_off"]
    assert on["requests"] == off["requests"] == 60
    assert on["plans_reoptimized"] > 0
    assert on["plans_retained"] > 0
    assert off["plans_reoptimized"] == 0
    assert on["hot_p50_ms"] >= 0 and off["hot_p50_ms"] >= 0
    assert 0 < report["config"]["hot_requests"] < on["requests"]
    assert on["plans_reoptimized"] == report["config"]["hot_requests"]
    assert "$v" in report["template"] and "$v" in TEMPLATE

    out = tmp_path / "BENCH_skew.json"
    write_report(report, str(out))
    parsed = json.loads(out.read_text())
    assert parsed["bench"] == "skew"
    assert parsed["config"]["hot_rows"] == 400


def test_cli_skew_target(tmp_path, capsys):
    from repro.bench.cli import main

    out = tmp_path / "BENCH_skew.json"
    main(
        [
            "skew",
            "--hot-rows",
            "400",
            "--cold-values",
            "6",
            "--fanout",
            "2",
            "--requests",
            "60",
            "--min-speedup",
            "0",
            "--out",
            str(out),
        ]
    )
    printed = capsys.readouterr().out
    assert "hot-value p50 speedup" in printed
    assert json.loads(out.read_text())["ok"] is True
