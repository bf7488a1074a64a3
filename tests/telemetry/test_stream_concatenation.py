"""Concatenated JSONL streams reaggregate to the sum of their totals even
when the traces differ in shape (span ids restart at 0 in every trace)."""

import json

from repro.cq.evaluate import evaluate
from repro.cq.parser import parse_query
from repro.csp.solvers.backtracking import Inference, solve_with_stats
from repro.generators.csp_random import coloring_instance
from repro.generators.graphs import cycle_graph, random_digraph
from repro.relational.stats import collect_stats
from repro.telemetry import parse_jsonl, reaggregate, trace_events, tracing

TRIANGLE = parse_query("Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).")


def test_differently_shaped_streams_concatenate_in_either_order():
    # Enough nodes for several search.batch spans, so the search trace's
    # carrying spans reach ids the other trace uses for non-search spans.
    instance = coloring_instance(cycle_graph(301), 3)
    with tracing("search-only") as first:
        solve_with_stats(instance, Inference.MAC)
    with tracing("joins-then-search") as second:
        for seed in range(5):
            evaluate(TRIANGLE, random_digraph(20, 0.2, seed=seed), strategy="auto")
        solve_with_stats(instance, Inference.MAC)
    a, b = list(trace_events(first)), list(trace_events(second))
    expected = reaggregate(a)["search"].nodes + reaggregate(b)["search"].nodes
    assert reaggregate(a + b)["search"].nodes == expected
    assert reaggregate(b + a)["search"].nodes == expected


def test_a_search_trace_then_a_triangle_trace_parse_to_the_sum():
    """``parse_jsonl`` validates two concatenated traces (span ids restart
    at 0 in the second), and they reaggregate to the sum of the two."""
    with tracing("search") as first:
        solve_with_stats(coloring_instance(cycle_graph(11), 3), Inference.MAC)
    with collect_stats(), tracing("triangle") as second:
        evaluate(TRIANGLE, random_digraph(30, 0.15, seed=0), strategy="auto")
    a, b = list(trace_events(first)), list(trace_events(second))
    assert a[0]["id"] == b[0]["id"]
    lines = [json.dumps(event) for event in a + b]
    totals = reaggregate(parse_jsonl(lines))
    expected = reaggregate(a)
    for kind, metrics in reaggregate(b).items():
        expected[kind] = expected[kind].merge(metrics) if kind in expected else metrics
    assert set(totals) == set(expected) >= {"search", "eval"}
    for kind in totals:
        assert totals[kind].as_dict() == expected[kind].as_dict(), kind
