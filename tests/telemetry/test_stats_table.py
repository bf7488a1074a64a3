"""The ``repro stats`` text table shows every counter a run charged."""

import json

import pytest

import repro.__main__ as cli


@pytest.mark.parametrize("workload", ["chain", "propagation"])
def test_text_table_has_a_column_for_every_charged_counter(workload, capsys):
    cli.main(["stats", "--workload", workload, "--json"])
    payloads = json.loads(capsys.readouterr().out)
    cli.main(["stats", "--workload", workload])
    lines = capsys.readouterr().out.splitlines()
    header = [cell.strip() for cell in lines[1].split("|")]
    assert {line.split("|")[0].strip() for line in lines[2:]} == set(payloads)
    for strategy, payload in payloads.items():
        for key, value in payload.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if value:
                assert key.replace("_", "-") in header, (strategy, key)


def test_strategy_rows_do_not_depend_on_their_order(capsys):
    """Every strategy runs on a freshly built workload: an index one
    strategy memoized never cheapens the next one's counters."""
    def rows(*strategies):
        cli.main(["stats", "--workload", "chain", "--json", "--strategies", *strategies])
        payloads = json.loads(capsys.readouterr().out)
        return {
            strategy: {k: v for k, v in payload.items() if "seconds" not in k}
            for strategy, payload in payloads.items()
        }

    assert rows("greedy", "textbook") == rows("textbook", "greedy")
