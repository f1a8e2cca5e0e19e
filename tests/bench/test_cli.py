"""The repro-lubm command-line interface."""

import pytest

from repro.bench.cli import main


def test_generate_writes_ntriples(tmp_path, capsys):
    out = tmp_path / "tiny.nt"
    main(["generate", "--universities", "1", "--seed", "2", "--out", str(out)])
    captured = capsys.readouterr().out
    assert "wrote" in captured
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 50_000
    assert lines[0].endswith(" .")


def test_query_subcommand_runs(capsys):
    main(["query", "--query", "11", "--show", "3"])
    captured = capsys.readouterr().out
    assert "0 rows" in captured  # Q11 is empty without inference


def test_query_with_explain(capsys):
    main(["query", "--query", "14", "--explain"])
    captured = capsys.readouterr().out
    assert "global order" in captured


def test_topk_subcommand_gates_and_writes_report(tmp_path, capsys):
    out = tmp_path / "BENCH_topk.json"
    try:
        main(["topk", "--repeats", "1", "--out", str(out)])
    except SystemExit:
        # The report is written before a failed gate exits 1; which
        # gate failed is asserted below.
        pass
    captured = capsys.readouterr().out
    assert "top-k streaming bench" in captured
    import json

    report = json.loads(out.read_text(encoding="utf-8"))
    # Every counting gate must pass; the wall-clock comparison is a
    # timing term and is left to the CI `bench.cli topk` step.
    failed = {c["check"] for c in report["checks"] if not c["ok"]}
    assert failed <= {"wall_clock_win"}, report["checks"]
    by_check = {c["check"] for c in report["checks"]}
    assert by_check == {
        "rows_identical",
        "slice_bound",
        "scale_independent_enumeration",
        "wall_clock_win",
    }
    # The headline claim, machine-checkable from the artifact: streamed
    # enumeration identical across store scales, materialized growing.
    for leg in report["legs"].values():
        small, large = (leg[str(u)] for u in report["universities"])
        assert large["streamed_enumerated"] <= 1.5 * max(
            small["streamed_enumerated"], 1
        )
        assert large["materialized_enumerated"] > (
            small["materialized_enumerated"]
        )


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])
