"""The serving-layer benchmark target and its JSON report."""

import json

from repro.bench.report import write_report
from repro.bench.service_bench import TEMPLATE, run_service_bench


def test_service_bench_report_shape(tmp_path):
    report = run_service_bench(
        universities=1, seed=0, family=8, rounds=2, workers=2
    )
    assert report["ok"], report
    assert report["agrees"]
    assert report["concurrent"]["matches_serial"]
    assert report["update"]["safe"]
    for leg in ("reparse", "prepared", "prepared_no_result_cache"):
        assert report[leg]["requests"] == 16
        assert report[leg]["p50_ms"] >= 0
        assert report[leg]["p95_ms"] >= report[leg]["p50_ms"]
    assert report["template_vs_reparse_speedup"] > 0
    assert report["late_binding_speedup"] > 0
    assert report["cache"]["bind_misses"] >= 8
    assert "$prof" in report["template"] and "$prof" in TEMPLATE

    out = tmp_path / "BENCH_service.json"
    write_report(report, str(out))
    parsed = json.loads(out.read_text())
    assert parsed["bench"] == "service"
    assert parsed["config"]["family"] == 8


def test_cli_service_target(tmp_path, capsys):
    from repro.bench.cli import main

    out = tmp_path / "BENCH_service.json"
    main(
        [
            "service",
            "--family",
            "5",
            "--rounds",
            "2",
            "--workers",
            "2",
            "--out",
            str(out),
        ]
    )
    printed = capsys.readouterr().out
    assert "speedup" in printed
    assert json.loads(out.read_text())["ok"] is True
