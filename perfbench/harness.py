"""The measured replay: one closed-loop client, every answer checked.

One client sends the next op only after the previous one returned, which
measures the capacity of the synchronous ``QueryService`` loop and of
``repro.solve``.  The default configuration is measured: strategy ``None``
and no worker pool.  Each op is timed alone; the oracle check runs after
the timer stops, and a wrong answer or a raised exception counts as one
failed op while the run goes on.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

from perfbench.oracle import ForestOracle, csp_solution_ok, digest, fc_satisfiable
from perfbench.workloads import (
    CSP_DOMAIN,
    CSP_VARIABLES,
    LOOKUPS,
    READ_TEMPLATES,
    TC_PROGRAM,
    Update,
    csp_pool,
    fingerprint,
    forest_stream,
    variant,
)

__all__ = ["Replay", "run", "replay", "workload_for"]

#: The resident state is built until both limits are met and ``setup_s``
#: is the median build.  Spreading the builds over seconds samples the
#: shared host's fast and slow phases, as the replay does.
SETUP_BUILDS = 5
SETUP_SECONDS = 4.0

#: Failures echoed to standard error before the rest are only counted.
FAILURES_SHOWN = 3

OUT_DIR = Path(__file__).resolve().parent / "out"

Op = tuple[str, Callable[[], Any], Callable[[Any], bool]]


class Serve:
    """A serve-* workload: ``QueryService`` over a forest's closure."""

    def __init__(self, name: str, seed: int):
        from repro.datalog.parser import parse_program

        self.name, self.seed = name, seed
        self.program = parse_program(TC_PROGRAM, goal="T")
        self.edges, _ = forest_stream(name, seed)

    def warm_up(self) -> None:
        """Every op kind once on a tiny separate forest."""
        from repro.service.core import QueryService

        service = QueryService(self.program, {"E": {(0, 1), (1, 2), (2, 3), (1, 4)}})
        rng = random.Random(0)
        for head, body in READ_TEMPLATES.values():
            service.ask(variant(head, body, rng))
        service.update(inserts={"E": {(0, 4)}}, deletes={"E": {(1, 4)}})
        for text in LOOKUPS.values():
            service.ask(text.format(c=1))

    def build(self) -> Any:
        from repro.service.core import QueryService

        return QueryService(self.program, {"E": set(self.edges)})

    def ops(self, service: Any, tracer: Any = None) -> Iterator[Op]:
        """The event stream as ops; the oracle applies each update before
        the op is handed out, so every check sees the expected state.  A
        tracer needs nothing here: it patches ``QueryService`` itself."""
        edges, stream = forest_stream(self.name, self.seed)
        oracle = ForestOracle(edges)
        for event in stream:
            if isinstance(event, Update):
                oracle.apply(event)
                call = partial(
                    service.update,
                    inserts={"E": event.inserts},
                    deletes={"E": event.deletes},
                )
                yield "update", call, partial(_update_ok, service, oracle, event)
            else:
                check = lambda answer, e=event: digest(answer.result.tuples) == oracle.expected(e)
                yield "query", partial(service.ask, event.text), check


def _update_ok(service: Any, oracle: ForestOracle, update: Update, report: Any) -> bool:
    return (
        report.edb_added.get("E", frozenset()) == update.inserts
        and report.edb_removed.get("E", frozenset()) == update.deletes
        and digest(service.engine.value("T")) == oracle.closure()
    )


class Csp:
    """csp-solve: ``repro.solve`` over a pool of random binary CSPs."""

    name = "csp-solve"

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = csp_pool(seed)
        self.labels: dict[int, bool] = {}

    def warm_up(self) -> None:
        import repro

        for instance in self._instances(csp_pool(seed=-1 - self.seed, size=2)):
            repro.solve(instance)

    def build(self) -> list:
        return self._instances(self.pool)

    @staticmethod
    def _instances(pool: list) -> list:
        from repro.csp.instance import Constraint, CSPInstance

        return [
            CSPInstance(
                range(CSP_VARIABLES),
                range(CSP_DOMAIN),
                [Constraint(scope, allowed) for scope, allowed in instance],
            )
            for instance in pool
        ]

    def ops(self, instances: list, tracer: Any = None) -> Iterator[Op]:
        import repro

        solve = repro.solve if tracer is None else tracer.solve_root()
        for i in itertools.count():
            k = i % len(instances)
            yield "query", partial(solve, instances[k]), partial(self._solution_ok, k)

    def _solution_ok(self, k: int, solution: dict | None) -> bool:
        if solution is not None:
            return csp_solution_ok(self.pool[k], solution)
        if k not in self.labels:
            self.labels[k] = fc_satisfiable(self.pool[k])
        return not self.labels[k]


def workload_for(name: str, seed: int) -> Serve | Csp:
    return Csp(seed) if name == "csp-solve" else Serve(name, seed)


class Replay:
    """What one replay measured: each op's kind and latency (``None`` when
    it raised), and how many ops were attempted and failed."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, float | None]] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def latencies(self, kind: str | None = None) -> list[float]:
        """Seconds of every completed op, or of the ops of one kind."""
        return [s for k, s in self.ops if s is not None and kind in (None, k)]

    @property
    def ops_per_s(self) -> float:
        """Ops completed per second of summed op latency."""
        done = self.latencies()
        return len(done) / sum(done)

    def fail(self, detail: str) -> None:
        self.failed += 1
        if self.failed <= FAILURES_SHOWN:
            print(f"failed op #{self.attempted}: {detail}", file=sys.stderr)


def replay(ops: Iterator[Op], done: Callable[[int], bool], tracer: Any = None) -> Replay:
    """Run ops until ``done(attempted)``; time each op alone and check its
    answer after the timer stops."""
    out = Replay()
    clock = time.perf_counter
    while not done(out.attempted):
        kind, call, check = next(ops)
        if tracer is not None:
            tracer.op = out.attempted
        started = clock()
        try:
            result = call()
        except Exception:
            elapsed, error = None, traceback.format_exc()
        else:
            elapsed = clock() - started
        if tracer is not None:
            tracer.op = -1
        out.ops.append((kind, elapsed))
        if elapsed is None:
            out.fail(error)
            continue
        try:
            correct = check(result)
        except Exception:
            out.fail(traceback.format_exc())
            continue
        if not correct:
            out.fail(f"wrong {kind} answer")
    return out


def measure_setup(
    workload: Serve | Csp, builds: int, min_seconds: float = 0.0
) -> tuple[Any, list[float]]:
    """Build the resident state at least ``builds`` times and for at least
    ``min_seconds``, from fresh copies of the inputs, each on a collected
    heap; keep the last build."""
    seconds: list[float] = []
    state = None
    began = time.perf_counter()
    while len(seconds) < builds or time.perf_counter() - began < min_seconds:
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.build()
        seconds.append(time.perf_counter() - started)
    return state, seconds


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` with 100 cut points)."""
    return statistics.quantiles(samples, n=100)[q - 1] if len(samples) > 1 else samples[0]


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object printed last."""
    workload = workload_for(name, seed)
    env = environment()
    inputs = fingerprint(name, seed)
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs fingerprint={inputs}")
    workload.warm_up()
    gc.collect()
    gc.freeze()
    if trace:
        return _traced(workload, seed, seconds, env, inputs)

    state, setup = measure_setup(workload, SETUP_BUILDS, SETUP_SECONDS)
    deadline = time.perf_counter() + seconds
    measured = replay(workload.ops(state), lambda _: time.perf_counter() >= deadline)
    queries = measured.latencies("query")
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (measured.ops_per_s, "1/s", len(measured.latencies())),
        "query_p50_ms": (percentile(queries, 50) * 1e3, "ms", len(queries)),
        "query_p90_ms": (percentile(queries, 90) * 1e3, "ms", len(queries)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1,
        ),
    }
    updates = measured.latencies("update")
    for label, (value, unit, n) in metrics.items():
        print(f"{label} {value:.4f} {unit} (n={n})")
    if updates:
        print(f"update_p50_ms {percentile(updates, 50) * 1e3:.4f} ms (n={len(updates)})")
        print(f"update_p90_ms {percentile(updates, 90) * 1e3:.4f} ms (n={len(updates)})")
    return _result(measured.attempted, measured.failed, {k: v[:2] for k, v in metrics.items()})


def _result(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _traced(workload: Serve | Csp, seed: int, seconds: float, env: dict, inputs: str) -> dict:
    """An untraced pass for half the time, then the same ops traced on a
    fresh build; per-layer metrics come from the traced pass and the gap
    between the two is the tracing overhead."""
    from perfbench.layers import layer_report
    from perfbench.tracing import Tracer

    state, _ = measure_setup(workload, 1)
    deadline = time.perf_counter() + seconds / 2
    plain = replay(workload.ops(state), lambda _: time.perf_counter() >= deadline)
    state = None
    tracer = Tracer()
    tracer.install()
    try:
        state, _ = measure_setup(workload, 3)
        traced = replay(
            workload.ops(state, tracer), lambda n: n >= plain.attempted, tracer
        )
    finally:
        tracer.uninstall()
    cache_stats = state.cache.stats if isinstance(workload, Serve) else None
    report = layer_report(tracer, traced, plain, cache_stats)
    for line in report.pop("lines"):
        print(line)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{seed}.trace.json"
    with open(path, "w") as out:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "fingerprint": inputs,
                "env": env,
                **report,
                "trace": tracer.dump(),
            },
            out,
        )
    print(f"traced output {path.relative_to(OUT_DIR.parent.parent)}")
    return _result(
        plain.attempted + traced.attempted, plain.failed + traced.failed, report["metrics"]
    )
