"""The ``repro serve`` and ``repro bench-service`` subcommands.

``repro serve`` runs a :class:`~repro.service.core.QueryService` as a
line-oriented JSON protocol on stdin/stdout — one request object per
line, one response object per line::

    {"op": "query", "q": "Q(X, Y) :- T(X, Y)."}
    {"op": "insert", "predicate": "E", "rows": [[1, 2]]}
    {"op": "delete", "predicate": "E", "rows": [[1, 2]]}
    {"op": "stats"}
    {"op": "quit"}

``repro bench-service`` replays the reproducible multi-tenant workload of
:func:`~repro.service.stream.service_stream` through the service and —
unless ``--no-baseline`` — through a recompute-from-scratch baseline
(full semi-naive refixpoint per update, uncached evaluation per query),
reporting cache hit rate, P50/P99 latencies, and the update-latency
speedup.  With ``--jsonl`` the service run is traced and the raw event
stream (the shape ``tools/validate_trace.py`` checks) is emitted instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import IO

__all__ = [
    "add_serve_arguments",
    "add_bench_service_arguments",
    "run_serve",
    "run_bench_service",
]


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--program", default=None, metavar="FILE",
        help="Datalog program file (default: the transitive-closure program)",
    )
    from repro.relational.algebra import DEFAULT_EXECUTION, DEFAULT_STRATEGY
    from repro.relational.planner import EXECUTIONS, STRATEGIES

    parser.add_argument(
        "--strategy", default=None, metavar="SPEC",
        help=(
            "join strategy for rule bodies and queries: an order "
            f"({', '.join(STRATEGIES)}), an execution ({', '.join(EXECUTIONS)}), "
            "or order+execution such as textbook+scan "
            f"(default: {DEFAULT_STRATEGY}+{DEFAULT_EXECUTION})"
        ),
    )


def add_bench_service_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--events", type=int, default=200,
                        help="stream length (default: 200)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--templates", type=int, default=4,
                        help="query templates in the pool (default: 4)")
    parser.add_argument("--tenants", type=int, default=8,
                        help="tenants issuing queries (default: 8)")
    parser.add_argument("--update-every", type=int, default=14,
                        help="every k-th event is an update batch (default: 14)")
    parser.add_argument("--graph", choices=("random", "hierarchy"),
                        default="random",
                        help="data shape: random digraph with edge churn, or "
                        "a random recursive forest with reparenting updates "
                        "(default: random)")
    parser.add_argument("--nodes", type=int, default=30,
                        help="graph size (default: 30)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the recompute-from-scratch baseline run")
    parser.add_argument("--jsonl", action="store_true",
                        help="emit the traced JSONL event stream instead of the report")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSONL event stream to FILE instead of stdout")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")


def _load_program(path: str | None):
    from repro.datalog.library import transitive_closure_program
    from repro.datalog.parser import parse_program

    if path is None:
        return transitive_closure_program()
    # The service maintains every IDB predicate and never reads the goal,
    # so parse_program's default (the first rule's head) serves.
    with open(path, encoding="utf-8") as fp:
        return parse_program(fp.read())


def run_serve(
    args: argparse.Namespace,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
) -> int:
    """The JSONL request/response loop (testable via injected streams).

    Returns the exit status: 0, or 1 after a single error line when the
    service cannot start (an unreadable, undecodable or malformed
    ``--program`` file)."""
    from repro.errors import ReproError
    from repro.service.core import QueryService

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def respond(payload: dict) -> None:
        stdout.write(json.dumps(payload, sort_keys=True, default=repr) + "\n")
        stdout.flush()

    try:
        service = QueryService(_load_program(args.program), strategy=args.strategy)
    except (ReproError, OSError, ValueError) as exc:
        kind = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        respond({"ok": False, "error": f"{kind}: {exc}"})
        return 1

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise TypeError(
                    f"a request must be a JSON object, not {type(request).__name__}"
                )
            op = request.get("op")
            if op == "quit":
                respond({"ok": True, "op": "quit"})
                break
            if op == "query":
                answer = service.ask(request["q"])
                respond({
                    "ok": True,
                    "op": "query",
                    "outcome": answer.outcome,
                    "attributes": list(answer.result.attributes),
                    "rows": sorted(list(t) for t in answer.result.tuples),
                    "seconds": answer.seconds,
                })
            elif op in ("insert", "delete"):
                rows = {request["predicate"]: {tuple(r) for r in request["rows"]}}
                report = service.update(
                    inserts=rows if op == "insert" else None,
                    deletes=rows if op == "delete" else None,
                )
                respond({
                    "ok": True,
                    "op": op,
                    "rows_added": report.rows_added,
                    "rows_removed": report.rows_removed,
                    "dirty": sorted(report.dirty),
                    "rounds": report.rounds,
                })
            elif op == "stats":
                respond({"ok": True, "op": "stats", "stats": service.stats()})
            else:
                respond({"ok": False, "error": f"unknown op {op!r}"})
        except (ReproError, KeyError, ValueError, TypeError) as exc:
            respond({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    return 0


def _replay_service(workload, latencies: dict) -> "object":
    """Run the workload through a QueryService, filling ``latencies``."""
    from repro.service.core import QueryService
    from repro.service.stream import QueryEvent

    service = QueryService(workload.program, workload.database)
    started = time.perf_counter()
    for event in workload.events:
        if isinstance(event, QueryEvent):
            service.ask(event.query)
        else:
            service.update(event.inserts, event.deletes)
    latencies["seconds"] = time.perf_counter() - started
    return service


def _replay_baseline(workload, latencies: dict) -> None:
    """Recompute-from-scratch baseline: full refixpoint per update, direct
    uncached evaluation per query, over the same event stream."""
    from repro.cq.evaluate import evaluate
    from repro.datalog.engine import evaluate_seminaive
    from repro.relational.structure import Structure, Vocabulary
    from repro.service.stream import QueryEvent
    from repro.telemetry.registry import TimingHistogram

    def materialize(edb: dict) -> Structure:
        values = dict(edb)
        values.update(evaluate_seminaive(workload.program, edb))
        domain = {v for rows in values.values() for row in rows for v in row}
        return Structure(
            Vocabulary(workload.program.arities()), domain, values
        )

    update_hist = TimingHistogram()
    query_hist = TimingHistogram()
    edb = {p: set(rows) for p, rows in workload.database.items()}
    started = time.perf_counter()
    structure = materialize(edb)
    for event in workload.events:
        if isinstance(event, QueryEvent):
            t0 = time.perf_counter()
            evaluate(event.query, structure)
            query_hist.observe(time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
            for predicate, rows in event.deletes.items():
                edb.setdefault(predicate, set()).difference_update(rows)
            for predicate, rows in event.inserts.items():
                edb.setdefault(predicate, set()).update(rows)
            structure = materialize(edb)
            update_hist.observe(time.perf_counter() - t0)
    latencies["seconds"] = time.perf_counter() - started
    latencies["update_latency"] = update_hist
    latencies["query_latency"] = query_hist


def bench_service_report(args: argparse.Namespace) -> dict:
    """Run the benchmark and return the (JSON-able) report dict."""
    from repro.service.stream import service_stream

    workload = service_stream(
        args.events,
        templates=args.templates,
        tenants=args.tenants,
        update_every=args.update_every,
        graph=getattr(args, "graph", "random"),
        nodes=getattr(args, "nodes", 30),
        seed=args.seed,
    )
    service_run: dict = {}
    service = _replay_service(workload, service_run)
    report = {
        "events": len(workload.events),
        "query_events": workload.query_events,
        "update_events": workload.update_events,
        "templates": args.templates,
        "tenants": args.tenants,
        "graph": getattr(args, "graph", "random"),
        "seed": args.seed,
        "service": {
            "seconds": service_run["seconds"],
            "throughput_events_per_s": len(workload.events) / service_run["seconds"]
            if service_run["seconds"]
            else 0.0,
            **service.stats(),
        },
    }
    if not args.no_baseline:
        baseline_run: dict = {}
        _replay_baseline(workload, baseline_run)
        from repro.service.core import histogram_summary

        base_update = baseline_run["update_latency"]
        base_query = baseline_run["query_latency"]
        report["baseline"] = {
            "seconds": baseline_run["seconds"],
            "update_latency": histogram_summary(base_update),
            "query_latency": histogram_summary(base_query),
        }
        if service.update_latency.count and base_update.count:
            report["update_speedup"] = (
                base_update.mean_seconds / service.update_latency.mean_seconds
            )
        if service_run["seconds"]:
            report["throughput_speedup"] = (
                baseline_run["seconds"] / service_run["seconds"]
            )
    return report


def run_bench_service(
    args: argparse.Namespace, stdout: IO[str] | None = None
) -> None:
    stdout = stdout if stdout is not None else sys.stdout
    if args.jsonl:
        from repro.service.stream import service_stream
        from repro.telemetry import tracing, write_jsonl

        workload = service_stream(
            args.events,
            templates=args.templates,
            tenants=args.tenants,
            update_every=args.update_every,
            graph=getattr(args, "graph", "random"),
            nodes=getattr(args, "nodes", 30),
            seed=args.seed,
        )
        with tracing("bench-service") as trace:
            _replay_service(workload, {})
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fp:
                n = write_jsonl(trace, fp)
            print(f"wrote {n} events to {args.out}", file=sys.stderr)
        else:
            write_jsonl(trace, stdout)
        return

    report = bench_service_report(args)
    if args.json:
        stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return

    svc = report["service"]
    cache = svc["cache"]
    out = [
        f"bench-service: {report['events']} events "
        f"({report['query_events']} queries, {report['update_events']} updates), "
        f"{report['templates']} templates x {report['tenants']} tenants, "
        f"seed {report['seed']}",
        f"  cache: {cache['hits']}/{cache['lookups']} hits "
        f"({cache['hit_rate']:.0%}) — exact {cache['exact_hits']}, "
        f"equivalence {cache['equivalence_hits']}, "
        f"projection {cache['projection_hits']}; "
        f"{cache['invalidations']} invalidations, {cache['refreshes']} refreshes",
        "  service  query  latency: "
        + _latency_line(svc["query_latency"]),
        "  service  update latency: "
        + _latency_line(svc["update_latency"]),
    ]
    if "baseline" in report:
        base = report["baseline"]
        out += [
            "  baseline query  latency: " + _latency_line(base["query_latency"]),
            "  baseline update latency: " + _latency_line(base["update_latency"]),
            f"  update-latency speedup (baseline/service): "
            f"{report.get('update_speedup', float('nan')):.1f}x",
            f"  whole-run   speedup (baseline/service): "
            f"{report.get('throughput_speedup', float('nan')):.1f}x",
        ]
    out.append(
        f"  service run: {svc['seconds']:.3f}s "
        f"({svc['throughput_events_per_s']:.0f} events/s)"
    )
    stdout.write("\n".join(out) + "\n")


def _latency_line(hist: dict) -> str:
    from repro.telemetry.profile import format_seconds

    return (
        f"P50 {format_seconds(hist.get('p50', 0.0))}  "
        f"P99 {format_seconds(hist.get('p99', 0.0))}  "
        f"mean {format_seconds(hist.get('mean_seconds', 0.0))}  "
        f"(n={hist.get('count', 0)})"
    )
