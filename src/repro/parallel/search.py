"""Work-stealing parallel backtracking search with first-solution cancel.

:func:`solve_parallel` partitions the MAC search tree by *top-level
branching*: a splitter runs the root arc-consistency fixpoint, picks the
exact variable the serial solver would branch on (minimum remaining
values, ties by degree then canonical rank), and turns each surviving
value into a subtree task — the original instance plus one unary *pin*
constraint per branching decision.  Tasks carry their tree path (the
tuple of branch indices), so paths order subtrees exactly as serial
depth-first search visits them.

Tasks live on a shared work-stealing deque (a managed list guarded by one
lock: owners push new subtasks at the back, idle workers steal from the
front, where the shallowest — largest — subtrees sit).  A worker that
steals a task either *splits* it again (while the backlog is thinner than
the worker count, so siblings do not idle) or *solves* it with the
ordinary serial solver.  Exactness of the answer rests on two facts:

* the splitter reproduces serial branching: at an AC fixpoint the serial
  solver assigns singleton domains without search effects, so its first
  real branch is the first ``|domain| ≥ 2`` variable under the serial
  tie-break, and an all-singleton fixpoint *is* the serial solution;
* the winner is the lexicographically smallest solved path.  A task is
  cancelled (via the ``should_stop`` hook polled every
  :data:`~repro.csp.solvers.backtracking.STOP_CHECK_INTERVAL` nodes) only
  when its path exceeds the best solved path, so no subtree that could
  hold the serial solution is ever abandoned.

Per-task :class:`~repro.csp.solvers.backtracking.SearchStats` (including
cancelled tasks' partial counters — honest work done) ship back and merge
into the parent's stats, which the parent publishes to the ambient
propagation collector and charges to its ``"search"`` span — so
``repro stats`` totals and JSONL trace reaggregation stay exact.
"""

from __future__ import annotations

import os
import queue as _queue
import time
from typing import Any, Iterable

from repro.consistency.propagation import (
    PropagationStats,
    check_propagation_strategy,
    make_engine,
    publish,
)
from repro.csp.instance import Constraint, CSPInstance
from repro.errors import SolverError
from repro.parallel.pool import (
    effective_config,
    get_manager,
    get_pool,
    record_worker,
)
from repro.telemetry.registry import counter_delta, snapshot
from repro.telemetry.spans import span

__all__ = ["solve_parallel", "MAX_SPLIT_DEPTH"]

#: How many branching levels may be expanded into tasks.  Depth 1 is the
#: root split; workers re-split stolen tasks up to this depth while the
#: deque backlog is thinner than the worker count.
MAX_SPLIT_DEPTH = 2

#: Master-side guard against a wedged worker pool: how long one
#: ``results.get`` may block before the solve is abandoned.
RESULT_TIMEOUT = 120.0


def _pin_instance(
    instance: CSPInstance, pins: tuple[tuple[Any, Any], ...]
) -> CSPInstance:
    """``instance`` plus one unary constraint per branching decision.

    Pinning via constraints (rather than rewriting domains) keeps the
    subtree a plain :class:`CSPInstance`, so the serial solver — and the
    splitter, recursively — handle it with no special cases.
    """
    if not pins:
        return instance
    extra = [Constraint((var,), [(value,)]) for var, value in pins]
    return CSPInstance(
        instance.variables, instance.domain, list(instance.constraints) + extra
    )


def _split(instance: CSPInstance):
    """Serial-faithful branch expansion of ``instance``.

    Returns ``(kind, payload, prop)`` where ``kind`` is ``"refuted"``
    (the root fixpoint wiped out a domain), ``"solved"`` (the fixpoint
    left every domain singleton — ``payload`` is the solution the serial
    solver would return), or ``"children"`` (``payload`` is
    ``(variable, values)``: the serial branch variable and its canonical
    value order).  ``prop`` charges the splitter's propagation work.
    """
    normalized = instance.normalize()
    engine = make_engine(normalized, "residual")
    prop = PropagationStats()
    engine.charge_build(prop)
    domains = engine.fresh_domains()
    if not engine.propagate(domains, None, prop):
        return "refuted", None, prop
    variables = list(normalized.variables)
    branchable = [v for v in variables if engine.domain_size(domains, v) >= 2]
    if not branchable:
        solution = {v: engine.domain_values(domains, v)[0] for v in variables}
        return "solved", solution, prop
    # The serial solver assigns singleton domains first (no search effect
    # at a fixpoint), then branches MRV with ties by degree, then by the
    # canonical variable rank — reproduced here on the same normalized
    # instance so the task decomposition shadows the serial tree.
    degree = {v: len(normalized.constraints_on(v)) for v in variables}
    var_rank = {v: i for i, v in enumerate(sorted(variables, key=repr))}
    var = min(
        branchable,
        key=lambda v: (engine.domain_size(domains, v), -degree[v], var_rank[v]),
    )
    return "children", (var, engine.domain_values(domains, var)), prop


# -- the shared deque --------------------------------------------------------
#
# Module-level helpers (not methods) so worker processes can call them on
# the shipped proxies under any start method.


def _push_tasks(tasks, lock, items: Iterable[tuple]) -> None:
    """Append subtree tasks at the back of the deque (owner side)."""
    with lock:
        for item in items:
            tasks.append(item)


def _steal_task(tasks, lock):
    """Pop the front task (the shallowest subtree), or ``None`` if empty."""
    with lock:
        if len(tasks) == 0:
            return None
        return tasks.pop(0)


def _offer_best(ctrl, lock, path: tuple) -> None:
    """Lower the shared best solved path to ``path`` if it improves it."""
    with lock:
        best = ctrl.get("best")
        if best is None or path < tuple(best):
            ctrl["best"] = path


# -- worker side -------------------------------------------------------------


def _search_worker_loop(
    tasks, lock, results, ctrl, instance, strategy, worker_count
) -> int:
    """Pool task: steal, split-or-solve, report — until told to stop.

    Every stolen task produces exactly one message on ``results``:
    ``(kind, path, payload, SearchStats, pid)`` with ``kind`` in
    ``"split"`` / ``"solved"`` / ``"refuted"`` / ``"cancelled"``; the
    master tracks outstanding paths, so the protocol needs no acks.
    """
    from repro.csp.solvers.backtracking import Inference, SearchStats, solve_with_stats

    pid = os.getpid()
    handled = 0
    while not ctrl.get("stop"):
        item = _steal_task(tasks, lock)
        if item is None:
            time.sleep(0.002)
            continue
        handled += 1
        path, pins = tuple(item[0]), tuple(item[1])
        stats = SearchStats()
        stats.steals += 1
        best = ctrl.get("best")
        if best is not None and path > tuple(best):
            # The whole subtree lies after the best solved path: it cannot
            # win, so it is reported cancelled without being searched.
            results.put(("cancelled", path, None, stats, pid))
            continue
        pinned = _pin_instance(instance, pins)
        with lock:
            backlog = len(tasks)
        if len(path) < MAX_SPLIT_DEPTH and backlog < worker_count:
            kind, payload, prop = _split(pinned)
            stats.propagation.merge(prop)
            if kind == "children":
                var, values = payload
                # Ordering invariant: the split message must be enqueued
                # BEFORE the children become stealable.  The results queue
                # is FIFO, so this guarantees the master registers the new
                # child paths before any sibling's report on one of them
                # can arrive; pushing first lets a sibling steal-and-report
                # a child ahead of the split message, and the master would
                # then re-add an already-finished path forever.
                results.put(("split", path, len(values), stats, pid))
                _push_tasks(
                    tasks,
                    lock,
                    [
                        (path + (i,), pins + ((var, value),))
                        for i, value in enumerate(values)
                    ],
                )
                continue
            if kind == "solved":
                stats.tasks += 1
                _offer_best(ctrl, lock, path)
                results.put(("solved", path, payload, stats, pid))
                continue
            stats.tasks += 1
            results.put(("refuted", path, None, stats, pid))
            continue
        cancelled = [False]

        def should_stop() -> bool:
            if ctrl.get("stop"):
                cancelled[0] = True
                return True
            best = ctrl.get("best")
            if best is not None and path > tuple(best):
                cancelled[0] = True
                return True
            return False

        solved = solve_with_stats(
            pinned, Inference.MAC, strategy, should_stop=should_stop
        )
        solved.steals += stats.steals
        solved.tasks += 1
        if solved.solution is not None:
            _offer_best(ctrl, lock, path)
            results.put(("solved", path, solved.solution, solved, pid))
        elif cancelled[0]:
            results.put(("cancelled", path, None, solved, pid))
        else:
            results.put(("refuted", path, None, solved, pid))
    return handled


# -- master side -------------------------------------------------------------


def solve_parallel(
    instance: CSPInstance,
    strategy: str = "residual",
    workers: int | None = None,
):
    """MAC backtracking search partitioned across the worker pool.

    Returns the merged :class:`~repro.csp.solvers.backtracking.SearchStats`
    of every subtree task (total work done, including cancelled tasks'
    partial counters) with ``solution`` set to exactly what the serial
    solver returns on ``instance``.  Falls back to the serial solver when
    fewer than two workers are configured or the root split resolves the
    instance outright.
    """
    from repro.csp.solvers.backtracking import Inference, SearchStats, solve_with_stats

    check_propagation_strategy(strategy)
    if workers is None:
        workers = effective_config().workers
    if workers < 2:
        return solve_with_stats(instance, Inference.MAC, strategy)
    normalized = instance.normalize()
    with span("search", inference="mac", strategy=strategy, workers=workers) as sp:
        stats = SearchStats()
        try:
            kind, payload, prop = _split(normalized)
            stats.propagation.merge(prop)
            if kind == "solved":
                stats.solution = payload
            elif kind == "children":
                var, values = payload
                stats.solution = _run_tasks(
                    normalized, strategy, workers, var, values, stats
                )
        finally:
            publish(stats.propagation)
        if sp:
            sp.add_counters("search", counter_delta(stats, snapshot(SearchStats())))
            sp.note(
                nodes=stats.nodes, tasks=stats.tasks,
                solved=stats.solution is not None,
            )
        return stats


def _next_result(results, loops):
    """One message off ``results``, polling the worker-loop handles so a
    crashed worker re-raises its exception immediately instead of letting
    the solve idle out the full :data:`RESULT_TIMEOUT`."""
    deadline = time.monotonic() + RESULT_TIMEOUT
    while True:
        try:
            return results.get(timeout=1.0)
        except _queue.Empty:
            for loop in loops:
                if loop.ready():
                    loop.get()  # re-raises the worker's exception
            if time.monotonic() >= deadline:
                raise SolverError(
                    "parallel search stalled: no worker reported within "
                    f"{RESULT_TIMEOUT:.0f}s"
                ) from None


def _run_tasks(normalized, strategy, workers, var, values, stats):
    """Dispatch the root subtree tasks, drain results, return the winner.

    Runs until *every* outstanding path has reported (solved, refuted, or
    cancelled) so the merged stats account for all work done, then stops
    the workers.  The winning solution is the one at the smallest solved
    path — the subtree serial depth-first search reaches first.
    """
    manager = get_manager()
    tasks = manager.list()
    lock = manager.Lock()
    results = manager.Queue()
    ctrl = manager.dict({"best": None, "stop": False})
    _push_tasks(
        tasks, lock, [((i,), ((var, value),)) for i, value in enumerate(values)]
    )
    pool = get_pool(workers)
    loops = [
        pool.apply_async(
            _search_worker_loop,
            (tasks, lock, results, ctrl, normalized, strategy, workers),
        )
        for _ in range(workers)
    ]
    pending = {(i,) for i in range(len(values))}
    solutions: dict[tuple, dict] = {}
    try:
        while pending:
            kind, path, payload, wstats, pid = _next_result(results, loops)
            path = tuple(path)
            pending.discard(path)
            # Track the winner explicitly: SearchStats.merge would adopt
            # the first solution seen, which need not be the smallest path.
            solution = wstats.solution
            wstats.solution = None
            stats.merge(wstats)
            record_worker(pid, "search", f"task{path!r}:{kind}", wstats)
            if kind == "split":
                pending.update(path + (i,) for i in range(payload))
            elif kind == "solved":
                solutions[path] = payload if payload is not None else solution
    finally:
        ctrl["stop"] = True
    for loop in loops:
        loop.get(timeout=RESULT_TIMEOUT)
    if not solutions:
        return None
    return solutions[min(solutions)]
