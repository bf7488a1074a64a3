"""``python -m repro`` — the library's command-line front door.

* ``python -m repro`` (or ``python -m repro tour``) — a one-minute guided
  tour: a miniature version of each section of the tutorial, printing what
  the paper's claim predicts versus what the code computes.
* ``python -m repro stats`` — run a join workload under every join order
  and execution and print the :class:`~repro.relational.stats.EvalStats`
  counters side by side, one column per counter that some strategy
  charged (tuples scanned, hash probes, intermediate cardinalities,
  interning tables, mask operations, wall time, …).  ``--workload
  propagation`` instead runs the §4/§5 fixpoint engines (AC, SAC, the
  pebble game) under every propagation strategy and prints
  :class:`~repro.consistency.propagation.PropagationStats` counters the
  same way.  With ``--json`` both report the canonical
  :func:`repro.telemetry.payload` shape.
* ``python -m repro profile --workload {triangle,join,datalog,propagation,
  search}`` — run one workload under the span tracer and print the
  EXPLAIN-ANALYZE-style profile (per-operator durations, cardinalities,
  % of total); ``--jsonl`` emits the raw event stream instead.
* ``python -m repro trace --jsonl`` — same trace, always as JSONL (the
  machine-readable form ``tools/validate_trace.py`` checks).
* ``python -m repro serve`` — a resident
  :class:`~repro.service.core.QueryService` speaking line-oriented JSON on
  stdin/stdout: incremental view maintenance plus the containment-keyed
  result cache.
* ``python -m repro bench-service`` — replay the multi-tenant workload
  through the service and a recompute-from-scratch baseline; report cache
  hit rate, P50/P99 latencies, and the update-latency speedup.

See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json


def tour() -> None:
    from repro.csp.convert import csp_to_homomorphism
    from repro.csp.instance import Constraint, CSPInstance
    from repro.csp.solvers import backtracking, consistency, decomposition, join
    from repro.csp.solvers.consistency import Verdict
    from repro.datalog.engine import goal_holds
    from repro.datalog.library import non_two_colorability_program
    from repro.dichotomy.schaefer import classify_relations
    from repro.games.pebble import solve_game
    from repro.generators.csp_random import coloring_instance
    from repro.generators.graphs import cycle_graph, graph_as_digraph_structure
    from repro.views.certain import ViewSetup, certain_answer

    bar = "─" * 66

    print(bar)
    print("repro: Vardi, 'Constraint Satisfaction and Database Theory' (PODS'00)")
    print(bar)

    # Section 2 — one problem, several formulations.
    inst = coloring_instance(cycle_graph(5), 2)
    print("\n[§2] 2-coloring the 5-cycle:")
    print("  join evaluation (Prop 2.1):   solvable =", join.is_solvable(inst))
    print("  backtracking search:          solvable =", backtracking.is_solvable(inst))
    print("  tree-decomposition (Thm 6.2): solvable =", decomposition.is_solvable(inst))

    # Section 4 — games and Datalog.
    a, b = csp_to_homomorphism(inst)
    for k in (2, 3):
        game = solve_game(a, b, k)
        print(f"[§4] existential {k}-pebble game: Duplicator wins = {game.duplicator_wins}")
    program_says = goal_holds(
        non_two_colorability_program(), graph_as_digraph_structure(cycle_graph(5))
    )
    print("[§4] the paper's 4-Datalog Non-2-Colorability program derives:", program_says)

    # Section 5 — consistency.
    verdict = consistency.solve_decision(inst, 3)
    print("[§5] strong 3-consistency verdict:", verdict.value,
          "(refutation is sound — Thm 4.7)")
    assert verdict is Verdict.UNSATISFIABLE

    # Section 3 — Schaefer.
    one_in_three = frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    horn = frozenset({(0, 0), (0, 1), (1, 0)})
    print("[§3] Schaefer classes of NAND:", sorted(c.value for c in classify_relations([horn])))
    print("[§3] Schaefer classes of 1-in-3:", sorted(c.value for c in classify_relations([one_in_three])),
          "→ NP-complete side")

    # Section 7 — views.
    vs = ViewSetup({"V1": "a", "V2": "b"}, {"V1": {("x", "y")}, "V2": {("y", "z")}})
    print("[§7] cert(a·b) contains (x,z):", certain_answer("a b", vs, "x", "z"),
          "(via the constraint-template CSP, Thm 7.5)")

    print("\nSee examples/ for full scenarios and benchmarks/ for E1–E11.")
    print(bar)


def _stats_workload(name: str, seed: int):
    """Build the named workload: the metric-set class it charges and a list
    of ``run(strategy)`` callables, each evaluating one problem under a
    strategy."""
    if name == "propagation":
        return _propagation_workload(seed)
    from repro.csp.solvers import join
    from repro.cq.evaluate import evaluate
    from repro.generators.csp_random import coloring_instance, random_binary_csp
    from repro.generators.graphs import cycle_graph, random_digraph
    from repro.generators.queries import chain_query, random_query
    from repro.relational.stats import EvalStats

    if name == "e1":
        instances = [
            random_binary_csp(
                n_variables=9, domain_size=3, n_constraints=12,
                tightness=t, seed=seed + s,
            )
            for t in (0.2, 0.4, 0.6)
            for s in range(3)
        ]
    elif name == "coloring":
        instances = [
            coloring_instance(cycle_graph(9), 3),
            coloring_instance(cycle_graph(9), 2),
        ]
    else:
        db = random_digraph(12, 0.3, seed=seed)
        queries = [chain_query(6)] + [
            random_query(5, 4, seed=seed + s) for s in range(3)
        ]
        return EvalStats, [
            lambda strategy, q=q: evaluate(q, db, strategy) for q in queries
        ]
    return EvalStats, [
        lambda strategy, inst=inst: join.is_solvable(inst, strategy)
        for inst in instances
    ]


def _propagation_workload(seed: int):
    """The propagation workload: AC/SAC over 2-SAT, Horn, and coloring
    instances plus one pebble-game solve, each parameterized by strategy."""
    from repro.consistency.arc import ac3, singleton_arc_consistency
    from repro.consistency.propagation import PropagationStats
    from repro.csp.convert import csp_to_homomorphism
    from repro.dichotomy.cnf import cnf_to_csp
    from repro.games.pebble import solve_game
    from repro.generators.csp_random import coloring_instance
    from repro.generators.graphs import cycle_graph
    from repro.generators.sat import random_2sat, random_horn

    families = {
        "2sat": [cnf_to_csp(random_2sat(7, 14, seed=seed + s)) for s in range(2)],
        "horn": [
            cnf_to_csp(random_horn(7, 14, seed=seed + s, width=3)) for s in range(2)
        ],
        "color": [coloring_instance(cycle_graph(9), c) for c in (2, 3)],
    }
    runs = []
    for instances in families.values():
        for inst in instances:
            runs.append(lambda strategy, inst=inst: ac3(inst, strategy=strategy))
            runs.append(
                lambda strategy, inst=inst: singleton_arc_consistency(
                    inst, strategy=strategy)
            )
    a, b = csp_to_homomorphism(families["color"][0])
    runs.append(lambda strategy: solve_game(a, b, 2, strategy=strategy))
    return PropagationStats, runs


def stats_command(args: argparse.Namespace) -> None:
    """Run the workload once per strategy and report its metric set: the
    :func:`repro.telemetry.payload` per strategy with ``--json``, else a
    table with a column for each number that is non-zero in some row.
    Each strategy runs on a freshly built workload, so no strategy probes
    indexes another one memoized and the rows do not depend on their
    order."""
    import time

    from repro.telemetry import payload

    rows: dict[str, dict] = {}
    for strategy in args.strategies:
        cls, runs = _stats_workload(args.workload, args.seed)
        start = time.perf_counter()
        with cls.collect() as stats:
            for run in runs:
                run(strategy)
        rows[strategy] = payload(stats)
        if args.workload == "propagation":
            # PropagationStats keeps no clock of its own (EvalStats times
            # every operator), so its rows carry the runs' wall time.
            rows[strategy]["seconds"] = time.perf_counter() - start

    if args.json:
        print(json.dumps(rows, indent=2))
        return

    first = next(iter(rows.values()))
    columns = [
        key
        for key, value in first.items()
        if isinstance(value, (int, float))
        and not isinstance(value, bool)
        and any(row[key] for row in rows.values())
    ]
    table = [["strategy"] + [key.replace("_", "-") for key in columns]]
    for strategy, row in rows.items():
        table.append([strategy] + [
            f"{row[key]:.4f}" if isinstance(row[key], float) else str(row[key])
            for key in columns
        ])
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    print(f"workload: {args.workload}  ({len(runs)} runs, seed {args.seed})")
    for line in table:
        cells = (cell.ljust(width) for cell, width in zip(line, widths))
        print(" | ".join(cells).rstrip())


def _profile_workload(name: str, seed: int):
    """Build the named profile workload: a ``(description, run)`` pair where
    ``run()`` executes the workload once, to be called under the tracer."""
    if name == "triangle":
        from repro.cq.evaluate import evaluate
        from repro.cq.parser import parse_query
        from repro.generators.graphs import random_digraph

        query = parse_query("Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).")
        db = random_digraph(30, 0.15, seed=seed)
        return (
            "cyclic triangle query, strategy=auto (routes to leapfrog triejoin)",
            lambda: evaluate(query, db, strategy="auto"),
        )
    if name == "join":
        from repro.cq.evaluate import evaluate
        from repro.generators.graphs import random_digraph
        from repro.generators.queries import chain_query

        query = chain_query(6)
        db = random_digraph(12, 0.3, seed=seed)
        return (
            "acyclic chain query, strategy=auto (routes to Yannakakis)",
            lambda: evaluate(query, db, strategy="auto"),
        )
    if name == "datalog":
        from repro.datalog.engine import evaluate_seminaive
        from repro.datalog.library import transitive_closure_program
        from repro.generators.graphs import random_digraph

        program = transitive_closure_program()
        db = random_digraph(16, 0.12, seed=seed)
        return (
            "semi-naive transitive closure (one span per fixpoint round)",
            lambda: evaluate_seminaive(program, db),
        )
    if name == "propagation":
        from repro.consistency.arc import ac3, singleton_arc_consistency
        from repro.generators.csp_random import coloring_instance
        from repro.generators.graphs import cycle_graph

        inst2 = coloring_instance(cycle_graph(9), 2)
        inst3 = coloring_instance(cycle_graph(9), 3)

        def run():
            ac3(inst3)
            singleton_arc_consistency(inst2)

        return ("AC-3 and singleton arc consistency on cycle colorings", run)
    if name == "search":
        from repro.csp.solvers.backtracking import Inference, solve_with_stats
        from repro.generators.csp_random import coloring_instance
        from repro.generators.graphs import cycle_graph

        inst = coloring_instance(cycle_graph(11 + (seed % 4) * 2), 3)
        return (
            "MAC backtracking search (batched node spans)",
            lambda: solve_with_stats(inst, Inference.MAC),
        )
    raise SystemExit(f"unknown workload {name!r}")


def profile_command(args: argparse.Namespace) -> None:
    """Trace one workload end to end and print the span-tree profile, or
    (with ``--jsonl``) the raw event stream."""
    import sys

    from repro.consistency.propagation import collect_propagation
    from repro.relational.stats import collect_stats
    from repro.telemetry import QueryProfile, tracing, write_jsonl

    description, run = _profile_workload(args.workload, args.seed)
    # The stats collectors enter *before* the tracer so the root span opens
    # against fresh zero counters — the topmost span deltas (and hence the
    # reaggregated JSONL) then equal the in-process totals exactly.
    with collect_stats(), collect_propagation():
        with tracing(f"profile:{args.workload}") as trace:
            run()
    if args.jsonl:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fp:
                n = write_jsonl(trace, fp)
            print(f"wrote {n} events to {args.out}", file=sys.stderr)
        else:
            write_jsonl(trace, sys.stdout)
        return
    print(f"workload: {args.workload} — {description}  (seed {args.seed})")
    print(QueryProfile(trace).render())


def trace_command(args: argparse.Namespace) -> None:
    """``repro trace``: the profile trace, always as JSONL events."""
    args.jsonl = True
    profile_command(args)


_PROFILE_WORKLOADS = ("triangle", "join", "datalog", "propagation", "search")


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", choices=_PROFILE_WORKLOADS, default="triangle",
        help="which workload to trace (default: triangle)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSONL event stream to FILE instead of stdout",
    )


def main(argv: list[str] | None = None) -> None:
    from repro.consistency.propagation import PROPAGATION_STRATEGIES
    from repro.relational.planner import EXECUTIONS, STRATEGIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constraint satisfaction and database theory, executable.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("tour", help="guided tour of the tutorial's sections (default)")
    stats = sub.add_parser(
        "stats",
        help="evaluate a workload and print EvalStats/PropagationStats per strategy",
    )
    stats.add_argument(
        "--workload", choices=("e1", "coloring", "chain", "propagation"), default="e1",
        help=(
            "which workload to instrument: a join workload (e1/coloring/chain) "
            "or the consistency/pebble propagation workload (default: e1)"
        ),
    )
    join_strategies = STRATEGIES + EXECUTIONS
    stats.add_argument(
        "--strategies",
        nargs="+",
        choices=join_strategies + PROPAGATION_STRATEGIES,
        help=(
            f"strategies to compare: join orders ({'/'.join(STRATEGIES)}) or "
            f"executions ({'/'.join(EXECUTIONS)}) for a join workload, "
            f"propagation strategies ({'/'.join(PROPAGATION_STRATEGIES)}) for "
            "--workload propagation; default: every one the workload accepts"
        ),
    )
    stats.add_argument("--seed", type=int, default=0, help="workload seed")
    stats.add_argument("--json", action="store_true", help="machine-readable output")
    profile = sub.add_parser(
        "profile",
        help="trace one workload and print the span-tree profile",
    )
    _add_profile_arguments(profile)
    profile.add_argument(
        "--jsonl", action="store_true",
        help="emit the raw JSONL event stream instead of the rendered profile",
    )
    trace = sub.add_parser(
        "trace", help="trace one workload and emit the JSONL event stream"
    )
    _add_profile_arguments(trace)
    trace.add_argument(
        "--jsonl", action="store_true",
        help="accepted for symmetry; trace always emits JSONL",
    )
    from repro.service import cli as service_cli

    serve = sub.add_parser(
        "serve",
        help="run the incremental query service on stdin/stdout (JSON lines)",
    )
    service_cli.add_serve_arguments(serve)
    bench = sub.add_parser(
        "bench-service",
        help="replay the multi-tenant workload; report hit rate and latencies",
    )
    service_cli.add_bench_service_arguments(bench)
    args = parser.parse_args(argv)

    if args.command == "stats":
        accepted = (
            PROPAGATION_STRATEGIES if args.workload == "propagation" else join_strategies
        )
        if args.strategies is None:
            args.strategies = list(accepted)
        misfits = [s for s in args.strategies if s not in accepted]
        if misfits:
            stats.error(
                f"--workload {args.workload} does not run {', '.join(misfits)}; "
                f"it accepts --strategies {' '.join(accepted)}"
            )
        args.strategies = list(dict.fromkeys(args.strategies))

    if args.command == "stats":
        stats_command(args)
    elif args.command == "profile":
        profile_command(args)
    elif args.command == "trace":
        trace_command(args)
    elif args.command == "serve":
        status = service_cli.run_serve(args)
        if status:
            raise SystemExit(status)
    elif args.command == "bench-service":
        service_cli.run_bench_service(args)
    else:
        tour()


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # Piping into `head` and friends closes stdout early; exit quietly
        # like any well-behaved filter.
        import os
        import sys

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
