"""The cluster-tier benchmark gate and its JSON report."""

import json

import pytest

from repro.bench.cluster_bench import render, run_cluster_bench
from repro.bench.report import write_report
from repro.service.cluster.shm import shm_supported

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="shared memory unavailable in this sandbox"
)


@pytest.fixture(scope="module")
def report():
    # Tiny family/rounds, timing gates off (``min_scaling=0``): a
    # 4-request leg cannot measure a throughput ratio. Correctness
    # (byte-identical vs in-process, update visibility, shm hygiene,
    # zero failures) is what the test gates; ``scaling_ok`` and p99
    # stay in the CI ``bench.cli cluster`` step.
    return run_cluster_bench(
        universities=1, seed=0, family=4, rounds=1, workers=2, clients=2,
        p99_target_ms=10_000.0, min_scaling=0.0,
    )


def test_cluster_bench_gates(report):
    assert report["byte_identical"]
    assert report["update"]["ok"], report["update"]
    assert report["shm"]["ok"], report["shm"]
    assert all(leg["failures"] == 0 for leg in report["legs"])
    assert report["config"]["required_scaling"] == 0.0


def test_cluster_bench_legs(report):
    workers = [leg["workers"] for leg in report["legs"]]
    assert workers == sorted(set(workers)) and workers[-1] == 2
    for leg in report["legs"]:
        assert leg["failures"] == 0
        assert leg["requests"] > 0
        assert leg["throughput_rps"] > 0
        assert leg["p99_ms"] >= leg["p50_ms"] >= 0
        assert leg["byte_identical"]
    final = report["legs"][-1]
    assert final["worker_stats"]["respawns"] == 0
    assert final["worker_stats"]["max_epoch_lag"] == 0


def test_cluster_bench_report_round_trip(report, tmp_path):
    out = tmp_path / "BENCH_cluster.json"
    write_report(report, str(out))
    parsed = json.loads(out.read_text())
    assert parsed["bench"] == "cluster"
    assert parsed["config"]["workers"] == 2
    assert parsed["ok"] == report["ok"]

    text = render(report)
    assert "cluster bench" in text
    assert "shm clean after shutdown: True" in text
