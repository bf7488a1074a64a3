"""``repro serve`` protocol and ``repro bench-service`` reporting."""

import argparse
import io
import json
import sys

import pytest

from repro.service.cli import (
    add_bench_service_arguments,
    add_serve_arguments,
    bench_service_report,
    run_bench_service,
    run_serve,
)


def serve_session(lines, **overrides):
    parser = argparse.ArgumentParser()
    add_serve_arguments(parser)
    args = parser.parse_args([])
    for key, value in overrides.items():
        setattr(args, key, value)
    stdout = io.StringIO()
    run_serve(args, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=stdout)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def bench_args(**overrides):
    parser = argparse.ArgumentParser()
    add_bench_service_arguments(parser)
    args = parser.parse_args([])
    args.events = 40
    args.update_every = 10
    for key, value in overrides.items():
        setattr(args, key, value)
    return args


def test_serve_query_insert_delete_stats_quit():
    responses = serve_session([
        '{"op": "insert", "predicate": "E", "rows": [[1, 2], [2, 3]]}',
        '{"op": "query", "q": "Q(X, Y) :- T(X, Y)."}',
        '{"op": "query", "q": "P(A, B) :- T(A, B)."}',
        '{"op": "delete", "predicate": "E", "rows": [[2, 3]]}',
        '{"op": "query", "q": "Q(X, Y) :- T(X, Y)."}',
        '{"op": "stats"}',
        '{"op": "quit"}',
    ])
    assert [r["ok"] for r in responses] == [True] * 7
    assert responses[0]["rows_added"] == 5  # 2 EDB facts + 3 T facts
    assert responses[1]["outcome"] == "miss"
    assert sorted(map(tuple, responses[1]["rows"])) == [(1, 2), (1, 3), (2, 3)]
    assert responses[2]["outcome"] == "equivalence"
    assert responses[2]["attributes"] == ["A", "B"]
    assert "T" in responses[3]["dirty"]
    assert responses[4]["outcome"] == "exact"
    assert sorted(map(tuple, responses[4]["rows"])) == [(1, 2)]
    stats = responses[5]["stats"]
    assert stats["cache"]["equivalence_hits"] == 1
    assert stats["cache"]["refreshes"] == 1
    assert stats["generation"] == 2
    assert responses[6]["op"] == "quit"


@pytest.mark.parametrize("strategy", ["textbook+scan", "wcoj"])
def test_serve_session_under_a_strategy_answers_as_the_default(strategy):
    """Under a non-default strategy rule bodies join first and project the
    head at the end; the session's answers, its update reports and its one
    refresh are the default's."""
    session = [
        '{"op": "insert", "predicate": "E", "rows": [[1, 2], [2, 3]]}',
        '{"op": "query", "q": "Q(X, Y) :- T(X, Y)."}',
        '{"op": "delete", "predicate": "E", "rows": [[2, 3]]}',
        '{"op": "query", "q": "Q(X, Y) :- T(X, Y)."}',
        '{"op": "stats"}',
    ]
    fields = ("ok", "outcome", "rows", "dirty", "rows_added", "rows_removed")
    default = serve_session(session)
    responses = serve_session(session, strategy=strategy)
    assert [r["ok"] for r in responses] == [True] * 5
    assert [{k: r.get(k) for k in fields} for r in responses[:4]] == [
        {k: r.get(k) for k in fields} for r in default[:4]
    ]
    assert responses[3]["outcome"] == "exact" and responses[3]["rows"] == [[1, 2]]
    assert responses[4]["stats"]["cache"]["refreshes"] == 1


def test_serve_strategy_help_names_the_real_default():
    parser = argparse.ArgumentParser()
    add_serve_arguments(parser)
    text = " ".join(parser.format_help().split())
    assert "(default: greedy+indexed)" in text and "textbook+scan" in text
    assert "auto" not in text


def test_serve_reports_errors_without_dying():
    responses = serve_session([
        '{"op": "bogus"}',
        'not json at all',
        '{"op": "query"}',
        '{"op": "insert", "predicate": "T", "rows": [[1, 2]]}',
        '{"op": "query", "q": "Q(X, Y) :- T(X, Y)."}',
    ])
    assert [r["ok"] for r in responses] == [False, False, False, False, True]
    assert "unknown op" in responses[0]["error"]


def test_serve_answers_valid_json_it_cannot_handle_and_keeps_serving():
    bad = ["[1]", "5", "null", '"text"', '{"op": "query", "q": 5}']
    for line in bad:
        responses = serve_session([line, '{"op": "stats"}'])
        assert len(responses) == 2, line
        assert responses[0]["ok"] is False, line
        assert responses[0]["error"].startswith("TypeError: "), line
        assert responses[1]["ok"] is True and responses[1]["op"] == "stats", line
    responses = serve_session(bad + ['{"op": "stats"}'])
    assert [r["ok"] for r in responses] == [False] * len(bad) + [True]


def test_serve_loads_a_program_file(tmp_path):
    """``--program`` reads the file itself: no goal flag, the maintained
    IDBs all answer, and DRed maintains a non-recursive file."""
    closure = tmp_path / "closure.dl"
    closure.write_text("T(X, Y) :- E(X, Y).\nT(X, Y) :- T(X, Z), E(Z, Y).\n")
    responses = serve_session([
        '{"op": "insert", "predicate": "E", "rows": [[1, 2], [2, 3]]}',
        '{"op": "query", "q": "Q(X, Y) :- T(X, Y)."}',
    ], program=str(closure))
    assert [r["ok"] for r in responses] == [True, True]
    assert responses[1]["rows"] == [[1, 2], [1, 3], [2, 3]]

    two_hop = tmp_path / "two_hop.dl"
    two_hop.write_text(
        "% two hops, then a marker join\n"
        "H(X, Z) :- E(X, Y), E(Y, Z).\n"
        "M(X, Z) :- H(X, Z), L(X).\n"
    )
    responses = serve_session([
        '{"op": "insert", "predicate": "E", "rows": [[1, 2], [2, 3], [3, 4]]}',
        '{"op": "insert", "predicate": "L", "rows": [[2]]}',
        '{"op": "query", "q": "Q(X, Z) :- M(X, Z)."}',
        '{"op": "delete", "predicate": "E", "rows": [[3, 4]]}',
        '{"op": "query", "q": "Q(X, Z) :- H(X, Z)."}',
    ], program=str(two_hop))
    assert all(r["ok"] for r in responses)
    assert responses[2]["rows"] == [[2, 4]]
    assert responses[3]["dirty"] == ["E", "H", "M"]
    assert responses[4]["rows"] == [[1, 3]]


def test_serve_answers_a_bad_program_file_with_one_error_line(tmp_path):
    """A malformed or missing ``--program`` file, or a ``--strategy`` the
    maintenance plane rejects, gets one error line and a non-zero status,
    not a traceback."""
    malformed = tmp_path / "malformed.dl"
    malformed.write_text("T(X, Y) :- E(X, Y).\nT(X :- \n")
    undecodable = tmp_path / "undecodable.dl"
    undecodable.write_bytes(b"\xff\xfe\x00")
    cases = (
        (["--program", str(malformed)], "ParseError: "),
        (["--program", str(tmp_path / "missing.dl")], "OSError: "),
        (["--program", str(undecodable)], "UnicodeDecodeError: "),
        (["--strategy", "columnar"], "SolverError: "),
        (["--strategy", "auto"], "SolverError: "),
    )
    for argv, prefix in cases:
        parser = argparse.ArgumentParser()
        add_serve_arguments(parser)
        args = parser.parse_args(argv)
        stdout = io.StringIO()
        status = run_serve(args, stdin=io.StringIO('{"op": "stats"}\n'), stdout=stdout)
        lines = stdout.getvalue().splitlines()
        assert status == 1, argv
        assert len(lines) == 1, argv
        response = json.loads(lines[0])
        assert response["ok"] is False
        assert response["error"].startswith(prefix), response


def test_repro_serve_exits_non_zero_on_a_bad_program_file(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    malformed = tmp_path / "malformed.dl"
    malformed.write_text("T(X, Y) :- E(X, Y).\nT(X :- \n")
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"op": "stats"}\n'))
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--program", str(malformed)])
    assert exited.value.code != 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("ParseError: ")


def test_serve_skips_blank_lines():
    responses = serve_session(["", '{"op": "stats"}', "   ", '{"op": "quit"}'])
    assert len(responses) == 2


def test_bench_report_shape_and_consistency():
    report = bench_service_report(bench_args())
    assert report["events"] == 40
    assert report["query_events"] + report["update_events"] == 40
    cache = report["service"]["cache"]
    assert cache["lookups"] == report["query_events"]
    assert 0.0 <= cache["hit_rate"] <= 1.0
    assert report["service"]["query_latency"]["count"] == report["query_events"]
    assert "baseline" in report and "update_speedup" in report
    assert report["baseline"]["update_latency"]["count"] == report["update_events"]


def test_bench_no_baseline_skips_the_second_run():
    report = bench_service_report(bench_args(no_baseline=True))
    assert "baseline" not in report and "update_speedup" not in report


def test_bench_human_and_json_outputs():
    out = io.StringIO()
    run_bench_service(bench_args(no_baseline=True), stdout=out)
    text = out.getvalue()
    assert "bench-service: 40 events" in text
    assert "cache:" in text and "update latency" in text

    out = io.StringIO()
    run_bench_service(bench_args(no_baseline=True, json=True), stdout=out)
    parsed = json.loads(out.getvalue())
    assert parsed["events"] == 40


def test_bench_jsonl_stream_validates():
    """The --jsonl stream parses and reaggregates like every other trace
    (the shape tools/validate_trace.py checks)."""
    from repro.telemetry import parse_jsonl, validate_events

    out = io.StringIO()
    run_bench_service(bench_args(events=20, update_every=7, jsonl=True), stdout=out)
    events = parse_jsonl(io.StringIO(out.getvalue()))
    assert events
    assert validate_events(events) == []
    names = {e.get("name") for e in events if e.get("type") == "span_open"}
    assert "service.query" in names and "service.update" in names
