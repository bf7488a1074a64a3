"""``tools/validate_trace.py`` is a stdlib-only copy of ``validate_events``:
it must accept and reject exactly the streams the library does."""

import ast
import importlib.util
import pathlib

import pytest

from repro.csp.solvers.backtracking import Inference, solve_with_stats
from repro.generators.csp_random import coloring_instance
from repro.generators.graphs import cycle_graph
from repro.telemetry import METRICSET_KINDS, trace_events, tracing, validate_events

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "tools" / "validate_trace.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("validate_trace", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _open(i, parent=None):
    return {"type": "span_open", "id": i, "parent": parent,
            "name": f"s{i}", "t": 0.0, "attrs": {}}


def _close(i):
    return {"type": "span_close", "id": i, "t": 1.0, "duration": 1.0}


def _mac_search_stream():
    with tracing("search") as trace:
        solve_with_stats(coloring_instance(cycle_graph(9), 3), Inference.MAC)
    return list(trace_events(trace))


STREAMS = {
    "nested": [_open(0), _open(1, 0), _close(1), _close(0)],
    "out-of-order": [_open(0), _open(1, 0), _close(0), _close(1)],
    "never-closed": [_open(0)],
    "closed-twice": [_open(0), _close(0), _close(0)],
    "unknown-parent": [_open(1, 7), _close(1)],
    "bad-counters": [
        _open(0),
        {"type": "counter", "id": 5, "metricset": "eval", "counters": {}},
        {"type": "counter", "id": 0, "metricset": "bogus", "counters": {}},
        _close(0),
    ],
    "unknown-type": [{"type": "mystery"}],
    "concatenated": [_open(0), _open(1, 0), _close(1), _close(0), _open(0), _close(0)],
    "reopened-inside": [
        _open(0), _open(1, 0), _close(1), _open(1, 0), _close(1), _close(0)
    ],
}


def test_script_kinds_match_the_registry(script):
    assert script.METRICSET_KINDS == METRICSET_KINDS


def test_script_imports_no_repro_module():
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not any(name and name.split(".")[0] == "repro" for name in imported)


@pytest.mark.parametrize(
    "name", sorted(STREAMS) + ["mac-search", "mac-search-truncated"]
)
def test_script_agrees_with_validate_events(script, name):
    if name.startswith("mac-search"):
        events = _mac_search_stream()
        if name.endswith("truncated"):
            events = events[:-1]
    else:
        events = STREAMS[name]
    assert (script.validate(events) == []) == (validate_events(events) == [])
