"""JSONL export: emit → parse → reaggregate equals the in-process totals
exactly, and the validator catches malformed streams."""

import io
import json

import pytest

from repro.consistency.arc import ac3
from repro.consistency.propagation import collect_propagation
from repro.cq.evaluate import evaluate
from repro.cq.parser import parse_query
from repro.errors import TelemetryError
from repro.generators.csp_random import coloring_instance
from repro.generators.graphs import cycle_graph, random_digraph
from repro.relational.stats import collect_stats
from repro.telemetry import (
    dumps,
    parse_jsonl,
    reaggregate,
    reaggregate_histograms,
    trace_events,
    tracing,
    validate_events,
    write_jsonl,
)


def _traced_triangle(seed=0):
    """A traced auto-routed (cyclic → wcoj) triangle query; returns the
    (trace, in-process EvalStats) pair."""
    query = parse_query("Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).")
    db = random_digraph(20, 0.2, seed=seed)
    with collect_stats() as stats:
        with tracing("triangle") as trace:
            evaluate(query, db, strategy="auto")
    return trace, stats


def test_event_stream_shape():
    trace, _ = _traced_triangle()
    events = list(trace_events(trace))
    assert events[0]["type"] == "span_open"
    assert events[0]["parent"] is None
    assert events[0]["attrs"]["trace"] == "triangle"
    assert events[0]["attrs"]["wall_start"] == trace.wall_start
    assert events[-1]["type"] == "span_close"
    assert {e["type"] for e in events} == {"span_open", "counter", "span_close"}
    assert validate_events(events) == []


def test_round_trip_reaggregates_to_exact_eval_totals():
    trace, stats = _traced_triangle()
    agg = reaggregate(parse_jsonl(dumps(trace).splitlines()))
    assert agg["eval"].as_dict() == stats.as_dict()


def test_round_trip_reaggregates_propagation_totals():
    with collect_propagation() as stats:
        with tracing("prop") as trace:
            ac3(coloring_instance(cycle_graph(9), 3))
            ac3(coloring_instance(cycle_graph(9), 2))
    agg = reaggregate(parse_jsonl(dumps(trace).splitlines()))
    assert agg["propagation"].as_dict() == stats.as_dict()


def test_round_trip_reaggregates_search_counters():
    from repro.csp.solvers.backtracking import Inference, solve_with_stats

    with tracing("search") as trace:
        stats = solve_with_stats(coloring_instance(cycle_graph(9), 3), Inference.MAC)
    agg = reaggregate(parse_jsonl(dumps(trace).splitlines()))
    rebuilt = agg["search"]
    assert stats.nodes > 0
    assert (rebuilt.nodes, rebuilt.backtracks, rebuilt.prunings) == (
        stats.nodes, stats.backtracks, stats.prunings,
    )


def test_concatenated_streams_merge():
    """Two independent traces concatenate into one stream whose totals are
    the sum — the cross-process contract."""
    t1, s1 = _traced_triangle(seed=1)
    t2, s2 = _traced_triangle(seed=2)
    events = list(trace_events(t1)) + list(trace_events(t2))
    agg = reaggregate(events)
    expected = type(s1)()
    expected.merge(s1)
    expected.merge(s2)
    assert agg["eval"].as_dict() == expected.as_dict()


def test_reaggregated_histograms_match_in_process():
    trace, _ = _traced_triangle()
    hists = reaggregate_histograms(parse_jsonl(dumps(trace).splitlines()))
    assert set(hists) == set(trace.histograms)
    for name, hist in hists.items():
        assert hist.count == trace.histograms[name].count
        assert hist.total_seconds == pytest.approx(
            trace.histograms[name].total_seconds
        )


def test_write_jsonl_counts_events(tmp_path):
    trace, _ = _traced_triangle()
    buf = io.StringIO()
    n = write_jsonl(trace, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == n == len(list(trace_events(trace)))
    assert parse_jsonl(lines)


def test_parse_rejects_invalid_json():
    with pytest.raises(TelemetryError, match="line 2: not valid JSON"):
        parse_jsonl(['{"type": "span_open"}', "{nope"])


def test_validator_catches_schema_violations():
    def open_(i, parent=None):
        return {"type": "span_open", "id": i, "parent": parent,
                "name": f"s{i}", "t": 0.0, "attrs": {}}

    def close(i):
        return {"type": "span_close", "id": i, "t": 1.0, "duration": 1.0}

    assert validate_events([open_(0), open_(1, 0), close(1), close(0)]) == []
    # Out-of-order close (not LIFO).
    assert any(
        "out of order" in p
        for p in validate_events([open_(0), open_(1, 0), close(0), close(1)])
    )
    # Never closed.
    assert any("never closed" in p for p in validate_events([open_(0)]))
    # Closed twice.
    assert any(
        "closed twice" in p for p in validate_events([open_(0), close(0), close(0)])
    )
    # Unknown parent.
    assert any("unknown parent" in p for p in validate_events([open_(1, 7), close(1)]))
    # Counter for an unopened span / unknown metricset.
    problems = validate_events(
        [open_(0),
         {"type": "counter", "id": 5, "metricset": "eval", "counters": {}},
         {"type": "counter", "id": 0, "metricset": "bogus", "counters": {}},
         close(0)]
    )
    assert any("not open" in p for p in problems)
    assert any("unknown metricset" in p for p in problems)
    # Unknown event type.
    assert any(
        "unknown event type" in p
        for p in validate_events([{"type": "mystery"}])
    )
    # Concatenated traces: a root reusing an id while no span is open
    # starts the next stream.
    assert validate_events(
        [open_(0), open_(1, 0), close(1), close(0), open_(0), close(0)]
    ) == []
    # Reusing an id while a span is still open stays an error.
    assert any(
        "span 1 opened twice" in p
        for p in validate_events(
            [open_(0), open_(1, 0), close(1), open_(1, 0), close(1), close(0)]
        )
    )


def test_parse_rejects_invalid_streams():
    stream = json.dumps(
        {"type": "span_close", "id": 9, "t": 0.0, "duration": 0.0}
    )
    with pytest.raises(TelemetryError, match="invalid trace stream"):
        parse_jsonl([stream])
