"""Timing-free checks of the ledger: its helpers, its generators and one
``--smoke`` pass of all seven workloads. Nothing here asserts a
wall-clock value."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stream as gen  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from stats import geomean, percentile, quartiles, spread  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text("utf-8"))


def test_percentile_takes_the_upper_sample_without_interpolating():
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 3.0
    assert percentile(list(range(1, 101)), 0.95) == 96
    assert percentile([7.5], 0.95) == 7.5
    # Two latency clusters split exactly in half: the slower cluster's
    # floor, not a point between the clusters.
    assert percentile([1.0, 1.1, 1.2, 9.0, 9.1, 9.2], 0.5) == 9.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_geomean_weighs_every_op_type_equally():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geomean([])


def test_spread_is_the_interquartile_share_of_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([5.0]) == 0.0


def test_span_self_time_is_duration_minus_children_never_negative():
    recorder = SpanRecorder()
    recorder.spans = [
        ["op.point", 0, 100, -1, 0],          # root: children cover 80
        ["service.http", 0, 80, 0, 0],        # child of root
        ["service.session", 80, 110, 1, 0],   # children of http: 30 + 20
        ["service.serialize", 110, 130, 1, 0],
        ["engines.decode", 130, 170, 3, 0],   # longer than its parent
    ]
    assert recorder.self_times_ns() == [20, 30, 30, 0, 40]


def test_span_context_manager_records_parent_and_request():
    recorder = SpanRecorder()
    with recorder.span("op.x", 7) as root:
        with recorder.span("core.join", 7, root) as child:
            pass
    assert (root, child) == (0, 1)
    name, start, end, parent, rid = recorder.spans[child]
    assert (name, parent, rid) == ("core.join", root, 7)
    assert 0 < start <= end


PROFESSORS = [f"<http://x/prof{i}>" for i in range(500)]
DEPARTMENTS = [f"<http://x/dept{i}>" for i in range(20)]


def test_serving_stream_is_a_function_of_the_seed():
    one = gen.ServingStream(3, PROFESSORS, DEPARTMENTS)
    two = gen.ServingStream(3, PROFESSORS, DEPARTMENTS)
    other = gen.ServingStream(4, PROFESSORS, DEPARTMENTS)
    assert one.slice(5) == two.slice(5)
    assert [r.target for r in one.slice(5)] != [r.target for r in other.slice(5)]
    assert gen.digest_of(r.target for r in one.slice(0)) == gen.digest_of(
        r.target for r in two.slice(0)
    )
    counts = {name: 0 for name in gen.SERVING_TYPES}
    for request in one.slice(9):
        counts[request.op_type] += 1
    assert counts == dict(gen.SERVING_SLICE)
    hot = {r.parameters for r in one.slice(9) if r.op_type == "hot"}
    assert len(one.hot) == gen.HOT_SET_SIZE
    assert hot <= {(("prof", p),) for p in one.hot}
    assert all(r.stream == (r.op_type == "topk") for r in one.slice(9))


def test_cyclic_graph_is_seeded_and_keeps_its_community():
    assert gen.cyclic_graph(1, 200, 800, 10) == gen.cyclic_graph(1, 200, 800, 10)
    graph = gen.cyclic_graph(2, 200, 800, 10)
    assert graph != gen.cyclic_graph(1, 200, 800, 10)
    assert 800 <= len(graph) <= 800 + 10 * 5
    assert len(set(graph)) == len(graph)


def test_update_cycles_never_reuse_a_professor_inside_the_window():
    updates = gen.UpdateStream(5, PROFESSORS, DEPARTMENTS)
    assert updates.cycle(12) == gen.UpdateStream(5, PROFESSORS, DEPARTMENTS).cycle(12)
    cycles = [updates.cycle(i) for i in range(40)]
    for i in range(len(cycles) - gen.UPDATE_WINDOW):
        window = cycles[i : i + gen.UPDATE_WINDOW + 1]
        assert len({c.professor for c in window}) == len(window)
    cycle = cycles[0]
    assert len(cycle.batch) == 3 * gen.GHOSTS_PER_BATCH
    assert len(cycle.steady) == gen.READS_PER_CYCLE


def test_smoke_run_reports_every_metric_and_leaks_nothing(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    report = json.loads(out.read_text("utf-8"))
    assert report["leaked_processes"] == 0
    assert report["leaked_shm_segments"] == 0
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in report["workloads"].items():
        assert entry["failed_ops_share"] == 0, name
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert len(entry["stream_digest"]) == 64
