"""The benchmark's own tests: deterministic inputs, an oracle that agrees
with the program, failure accounting, and the declared metric contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from perfbench import harness, workloads
from perfbench.layers import PER_LAYER
from perfbench.oracle import fc_satisfiable

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_same_seed_gives_same_fingerprint(name):
    assert workloads.fingerprint(name, 7) == workloads.fingerprint(name, 7)
    assert workloads.fingerprint(name, 7) != workloads.fingerprint(name, 8)


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_oracle_agrees_with_program(name):
    workload = harness.workload_for(name, 3)
    measured = harness.replay(workload.ops(workload.build()), lambda n: n >= 60)
    assert measured.attempted == 60
    assert measured.failed == 0
    kinds = {kind for kind, _ in measured.ops}
    assert kinds == ({"query"} if name == "csp-solve" else {"query", "update"})


def test_fc_oracle_labels_match_program_verdicts():
    import repro

    workload = harness.workload_for("csp-solve", 4)
    instances = workload.build()[:40]
    verdicts = [repro.solve(instance) is not None for instance in instances]
    labels = [fc_satisfiable(raw) for raw in workload.pool[:40]]
    assert verdicts == labels
    assert 0 < sum(labels) < len(labels)


def test_wrong_answer_and_exception_each_count_as_one_failed_op():
    workload = harness.workload_for("serve-read", 3)
    service = workload.build()
    ops = workload.ops(service)

    def tampered():
        for i, (kind, call, check) in enumerate(ops):
            if i == 3:
                call = partial(service.ask, "Q(X, Y) :- E(X, Y).")  # wrong query
            elif i == 5:
                call = partial(service.ask, "Q(X :- broken")  # raises ParseError
            yield kind, call, check

    measured = harness.replay(tampered(), lambda n: n >= 25)
    assert measured.attempted == 25
    assert measured.failed == 2
    assert len(measured.latencies()) == 24


def _run(name: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    done = _run(name, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], float)


def test_declared_per_layer_metrics_match_the_report():
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == list(
        PER_LAYER
    )
    assert {w["name"] for w in DECLARED["workloads"]} <= set(workloads.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("serve-read", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
