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
