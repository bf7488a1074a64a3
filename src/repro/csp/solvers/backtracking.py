"""Backtracking search for CSP, with optional inference.

This is the classical AI solver family the tutorial's Section 1 alludes to
("researchers in artificial intelligence have pursued both heuristics ...").
Three inference levels are provided:

* ``Inference.NONE`` — chronological backtracking, checking only constraints
  whose scope has just become fully assigned;
* ``Inference.FORWARD_CHECKING`` — after each assignment, prune the candidate
  sets of neighbouring unassigned variables through binary and almost-
  instantiated constraints;
* ``Inference.MAC`` — maintain (generalized) arc consistency on the residual
  problem after each assignment: the engines' fixpoint starts from the
  assigned variable alone and queues each variable that shrinks.

MAC takes the same ``strategy`` knob as the §5 consistency engines:
``"residual"`` (default) maintains arc consistency through one shared
:class:`~repro.consistency.propagation.PropagationEngine`, so residual
supports and hash-index candidate lists persist across *all* nodes of the
search, and per-node undo is a trail rollback instead of a full domain
copy; ``"naive"`` is the seed AC-3, kept as the differential oracle;
``"interned"`` maintains arc consistency through one shared
:class:`~repro.consistency.propagation.InternedEngine` — domains are int
bitmasks, a node's pin is one mask swap, propagation is word operations,
and the trail holds ``(variable, removed_mask)`` pairs.  The search holds
codes in its assignment and decodes the solution at the boundary.
``"columnar"`` rides the same code space through one shared
:class:`~repro.consistency.propagation.ColumnarEngine`, whose revisions
sweep whole constraint columns as vectorized array operations when numpy
is available (and degrade to the interned engine when it is not).
Assigned variables carry singleton domains, so the engine's domains-only
revisions coincide with the assignment-aware ones.

A node costs one pin, one fixpoint over the precomputed arc blocks of the
variables that change, a trail rollback on backtrack, and a re-check of
the constraints whose scopes the assignment completes.  Under the bitset
engine that re-check reads a binary constraint's support masks, which
the engine builds together with its arcs in one pass over the
constraints, with no code rows for binary constraints.  The node's
bookkeeping is a fixed number of calls: the variable choice is one scan
and its prunings one sum, both counting values with a builtin.  The root
pass refutes an instance with an empty relation, arity 0 included.

Variable order is dynamic (minimum-remaining-values, ties by degree, then
``repr``): the tie-break order is sorted once per solve, and each node
scans it for the first strictly smallest domain, stopping at a singleton.
Value order is deterministic: the canonical value order is precomputed
once per solve, so no hot-loop ``repr`` sorting remains, and the interned
engine enumerates codes in
ascending order — which is exactly the original values' ``repr`` order —
so every strategy explores the identical search tree and returns the
identical solution.  The solver records search statistics so benchmarks
can report node counts alongside wall-clock time; propagation counters
accumulate in ``SearchStats.propagation``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.consistency.propagation import (
    PropagationEngine,
    PropagationStats,
    check_propagation_strategy,
    make_engine,
    publish,
)
from repro.csp.instance import Constraint, CSPInstance
from repro.telemetry.registry import MetricSet, derived
from repro.telemetry.spans import span

__all__ = [
    "Inference",
    "SearchStats",
    "solve",
    "is_solvable",
    "solve_with_stats",
]


class Inference(enum.Enum):
    """How much constraint propagation to interleave with search."""

    NONE = "none"
    FORWARD_CHECKING = "forward-checking"
    MAC = "mac"


@dataclass
class SearchStats(MetricSet, kind="search"):
    """Counters accumulated during one search run.

    ``propagation`` aggregates the inference layer's
    :class:`~repro.consistency.propagation.PropagationStats` across the whole
    search (root pass plus every node), for both strategies; it travels as
    its own ``"propagation"`` metric set in span counter blocks.
    ``solution`` is the result, not a counter: merging keeps it if present,
    else adopts the other's — so merged stats report total work plus *a*
    witness.
    """

    nodes: int = 0
    backtracks: int = 0
    prunings: int = 0

    @derived
    def solved(self) -> bool:
        """Whether the search found a solution."""
        return self.solution is not None

    propagation: PropagationStats = field(default_factory=PropagationStats)
    solution: dict[Any, Any] | None = field(default=None, repr=False)


def _revise(
    constraint: Constraint,
    variable: Any,
    domains: dict[Any, set[Any]],
    assignment: dict[Any, Any],
    prop: PropagationStats,
) -> tuple[bool, int]:
    """Shrink ``domains[variable]`` to values extendable on ``constraint``.

    A value survives iff some row of the constraint relation assigns it to
    ``variable`` while agreeing with the current assignment and staying
    inside the current domains of the other scope variables.

    Returns ``(changed, removed_count)``.
    """
    scope = constraint.scope
    positions = [i for i, v in enumerate(scope) if v == variable]
    supported: set[Any] = set()
    prop.revisions += 1
    for row in constraint.relation:
        prop.support_checks += 1
        ok = True
        for i, v in enumerate(scope):
            if v in assignment:
                if row[i] != assignment[v]:
                    ok = False
                    break
            elif row[i] not in domains[v]:
                ok = False
                break
        if ok:
            for i in positions:
                supported.add(row[i])
    current = domains[variable]
    new = current & supported
    removed = len(current) - len(new)
    if removed:
        domains[variable] = new
        return True, removed
    return False, 0


def _ac3(
    instance: CSPInstance,
    domains: dict[Any, set[Any]],
    assignment: dict[Any, Any],
    stats: SearchStats,
    seeds: list[Any] | None = None,
) -> bool:
    """Generalized AC-3 on the residual problem.  Returns False on wipe-out.

    ``seeds``: variables whose change should initially trigger revisions; if
    ``None`` (the root pass), an empty relation refutes at once (no arc
    reaches one of arity 0), and otherwise all constraint/variable arcs are
    enqueued.
    """
    if seeds is None and any(not c.relation for c in instance.constraints):
        stats.propagation.wipeouts += 1
        return False
    constraints_on: dict[Any, list[Constraint]] = {v: [] for v in instance.variables}
    for c in instance.constraints:
        for v in c.variables():
            constraints_on[v].append(c)

    queue: list[tuple[Constraint, Any]] = []
    if seeds is None:
        queue = [
            (c, v)
            for c in instance.constraints
            for v in c.variables()
            if v not in assignment
        ]
    else:
        for s in seeds:
            for c in constraints_on[s]:
                for v in c.variables():
                    if v not in assignment and v != s:
                        queue.append((c, v))

    while queue:
        constraint, variable = queue.pop()
        changed, removed = _revise(
            constraint, variable, domains, assignment, stats.propagation
        )
        if changed:
            stats.prunings += removed
            if not domains[variable]:
                stats.propagation.wipeouts += 1
                return False
            for c in constraints_on[variable]:
                if c is not constraint:
                    for v in c.variables():
                        if v not in assignment and v != variable:
                            queue.append((c, v))
    return True


def _forward_check(
    instance: CSPInstance,
    variable: Any,
    domains: dict[Any, set[Any]],
    assignment: dict[Any, Any],
    stats: SearchStats,
) -> bool:
    """One-shot pruning of neighbours of the just-assigned ``variable``."""
    for c in instance.constraints:
        if variable not in c.scope:
            continue
        for v in c.variables():
            if v in assignment:
                continue
            _, removed = _revise(c, v, domains, assignment, stats.propagation)
            stats.prunings += removed
            if not domains[v]:
                stats.propagation.wipeouts += 1
                return False
    return True


#: Node-batch span granularity: under tracing, the search opens one
#: ``"search.batch"`` span per this many visited nodes, so a long search
#: profiles as a sequence of timed batches instead of one opaque span.
NODE_BATCH_SIZE = 128


def solve_with_stats(
    instance: CSPInstance,
    inference: Inference = Inference.MAC,
    strategy: str = "residual",
) -> SearchStats:
    """Run backtracking search, returning full :class:`SearchStats`.

    ``stats.solution`` is a solution dict or ``None`` if unsolvable.
    ``strategy`` selects the MAC propagation engine (see module docstring);
    it does not affect which solutions exist, only how inference is run.
    """
    check_propagation_strategy(strategy)
    with span("search", inference=inference.value, strategy=strategy) as sp:
        stats = _search_with_stats(instance, inference, strategy, sp)
        if sp:
            # SearchStats is never the ContextVar-installed object, so the
            # span carries its counters explicitly.
            sp.add_counters("search", stats.counter_delta({}))
            sp.note(nodes=stats.nodes, solved=stats.solved)
        return stats


def _search_with_stats(
    instance: CSPInstance,
    inference: Inference,
    strategy: str,
    search_span: Any,
) -> SearchStats:
    instance = instance.normalize()
    stats = SearchStats()
    prop = stats.propagation
    assignment: dict[Any, Any] = {}

    engine: PropagationEngine | None = None
    if inference is Inference.MAC and strategy != "naive":
        engine = make_engine(instance, strategy)
        engine.charge_build(prop)

    if engine is not None:
        domains: dict[Any, Any] = engine.fresh_domains()
    else:
        domains = {v: set(instance.domain) for v in instance.variables}
        # Hoisted canonical value order: filtering it per node replaces the
        # historical per-node ``sorted(domain, key=repr)``.
        ordered_domain = sorted(instance.domain, key=repr)

    # Node-consistency checks, per variable: binary constraints with
    # partner masks as (other, masks) pairs, every other constraint as
    # (scope, rows).  In interned mode the assignment holds codes, so both
    # are in code space.
    if engine is not None:
        pair_checks, row_checks = engine.scope_checks()
    else:
        pair_checks = {v: [] for v in instance.variables}
        row_checks = {v: [] for v in instance.variables}
        for c in instance.constraints:
            for v in c.scope:
                row_checks[v].append((c.scope, c.relation))
    # Normalized scopes have distinct variables, so this is the number of
    # constraints on each variable.
    degree = {v: len(pair_checks[v]) + len(row_checks[v]) for v in instance.variables}
    # The MRV tie-break order, hoisted: more constraints first, then repr
    # order (a stable sort of the repr-sorted variables), so the selection
    # below is identical to the historical per-node key comparison.
    mrv_order = sorted(sorted(instance.variables, key=repr), key=lambda v: -degree[v])
    # Counts the values of a domain or of a trailed removal: ``len`` for
    # value sets, ``int.bit_count`` for the bitset engines' masks.
    size = engine.count if engine is not None else len
    larger_than_any_domain = len(instance.domain) + 1

    # Under tracing, nodes are grouped into "search.batch" spans of
    # NODE_BATCH_SIZE, rotated at node-increment time — when the trace
    # stack's top is always the current batch span, so rotation never
    # violates the LIFO close discipline.  Each batch carries the
    # SearchStats delta charged inside it explicitly (the object is a
    # local, not the ContextVar-installed stats).
    traced = bool(search_span)
    batch: list[Any] = [None, None]  # [open batch span, stats snapshot]

    def open_batch() -> None:
        batch[0] = span("search.batch", first_node=stats.nodes)
        batch[1] = stats.snapshot()

    def close_batch() -> None:
        bsp = batch[0]
        batch[0] = None
        if not bsp:
            return
        bsp.add_counters("search", stats.counter_delta(batch[1]))
        bsp.note(nodes=stats.nodes - bsp.attributes["first_node"])
        bsp.close()

    def tick_node() -> None:
        stats.nodes += 1
        if traced and stats.nodes % NODE_BATCH_SIZE == 0:
            close_batch()
            open_batch()

    if engine is not None:
        def value_order(variable: Any) -> list[Any]:
            return engine.domain_values(domains, variable)
    else:
        def value_order(variable: Any) -> list[Any]:
            current = domains[variable]
            return [x for x in ordered_domain if x in current]

    def select_variable() -> Any:
        # Minimum remaining values: the first strictly smallest domain in
        # the static tie-break order.  No unassigned domain is empty here
        # (propagation stops at a wipeout), so a singleton ends the scan.
        best = None
        fewest = larger_than_any_domain
        for v in mrv_order:
            if v not in assignment:
                n = size(domains[v])
                if n < fewest:
                    best = v
                    if n == 1:
                        break
                    fewest = n
        return best

    def consistent(variable: Any) -> bool:
        value = assignment[variable]
        for other, masks in pair_checks[variable]:
            if other in assignment and not (masks[value] >> assignment[other]) & 1:
                return False
        for scope, rows in row_checks[variable]:
            for v in scope:
                if v not in assignment:
                    break
            else:
                if tuple([assignment[v] for v in scope]) not in rows:
                    return False
        return True

    def search() -> bool:
        if len(assignment) == len(instance.variables):
            return True
        variable = select_variable()
        for value in value_order(variable):
            tick_node()
            assignment[variable] = value
            if consistent(variable):
                if engine is not None:
                    # Trail-based undo: the assignment restriction is the
                    # first trail entry (not counted as a pruning), then
                    # the engine records every propagation deletion.
                    pinned = engine.pin(domains, variable, value)
                    trail = [(variable, pinned)]
                    ok = engine.propagate(
                        domains, (variable,), prop, trail=trail, skip=assignment
                    )
                    stats.prunings += sum([size(r) for _, r in trail]) - size(pinned)
                    if ok and search():
                        return True
                    engine.restore(domains, trail, prop)
                else:
                    saved = {v: set(d) for v, d in domains.items()}
                    domains[variable] = {value}
                    ok = True
                    if inference is Inference.FORWARD_CHECKING:
                        ok = _forward_check(
                            instance, variable, domains, assignment, stats
                        )
                    elif inference is Inference.MAC:
                        ok = _ac3(
                            instance, domains, assignment, stats, seeds=[variable]
                        )
                    if ok and search():
                        return True
                    domains.clear()
                    domains.update(saved)
            del assignment[variable]
            stats.backtracks += 1
        return False

    # Unary constraints and empty relations are handled up front by a root
    # propagation pass (harmless for NONE since it only tightens domains).
    try:
        if engine is not None:
            root_trail: list[tuple[Any, set[Any]]] = []
            ok = engine.propagate(domains, None, prop, trail=root_trail)
            stats.prunings += sum([size(r) for _, r in root_trail])
            if not ok:
                return stats
        elif inference is Inference.MAC:
            if not _ac3(instance, domains, assignment, stats, seeds=None):
                return stats
        else:
            for c in instance.constraints:
                if not c.relation:
                    return stats
                if c.arity == 1:
                    var = c.scope[0]
                    domains[var] &= {row[0] for row in c.relation}
                    if not domains[var]:
                        return stats

        if traced:
            open_batch()
        if search():
            stats.solution = (
                engine.decode_assignment(assignment)
                if engine is not None
                else dict(assignment)
            )
        return stats
    finally:
        # ``search`` refers to itself through its closure.  Dropping that
        # reference lets reference counting free the whole solve (engine,
        # domains, trail) on return instead of leaving it to the cyclic
        # garbage collector.
        del search
        close_batch()
        publish(prop)


def solve(
    instance: CSPInstance,
    inference: Inference = Inference.MAC,
    strategy: str = "residual",
) -> dict[Any, Any] | None:
    """Return one solution (or ``None``) using backtracking search."""
    return solve_with_stats(instance, inference, strategy=strategy).solution


def is_solvable(
    instance: CSPInstance,
    inference: Inference = Inference.MAC,
    strategy: str = "residual",
) -> bool:
    """Decide solvability using backtracking search."""
    return solve(instance, inference, strategy=strategy) is not None
