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


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "name",
    ["service", "updates", "http", "topk", "cluster", "skew", "shards"],
)
def test_retired_bench_subcommands_are_usage_errors(name, capsys):
    # The serving-era gates are gone (the ledger measures, tier-1
    # asserts); argparse rejects their names like any unknown command.
    with pytest.raises(SystemExit) as exit_info:
        main([name])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
