"""Arc and path consistency — the classical k=2, 3 consistency workhorses.

Section 5 of the tutorial traces the consistency approach to Freuder [23, 24]
and Dechter [17].  Arc consistency is (2-)consistency enforced by domain
filtering; path consistency tightens binary relations through third
variables.  Both are special cases of "establishing strong k-consistency",
but their direct algorithms are far cheaper and are what practical CSP
solvers interleave with search, so the library provides them standalone.

Every engine here accepts a ``strategy`` knob (the propagation analogue of
the join backend's ``indexed``/``scan`` executions):

* ``"residual"`` (default) — the support-indexed engines built on
  :mod:`repro.consistency.propagation`: a changed-variable queue, per-
  ``(constraint, variable, value)`` residual support rows backed by the
  memoized :meth:`~repro.relational.relation.Relation.index_on` hash
  indexes, trail-restored SAC probes, and memoized PC witnesses.
* ``"naive"`` — the textbook rescan-everything fixpoints, kept as the
  differential-testing oracle (``tests/test_differential_matrix.py``
  checks bit-identical domains and verdicts between the two).
* ``"interned"`` — the code-space kernels: domain values are interned to
  dense int codes, per-variable domains become int bitmasks, and a revise
  answers support questions with word operations
  (:class:`~repro.consistency.propagation.InternedEngine`).  Domains in
  results are decoded back to plain value sets, so callers see identical
  output.
* ``"columnar"`` — the interned code space with vectorized revisions:
  each revise sweeps the constraint's whole column as a few numpy array
  operations (:class:`~repro.consistency.propagation.ColumnarEngine`),
  falling back to the interned bit loop when numpy is absent.  Same
  fixpoint, same decoded domains.

Both strategies are instrumented with
:class:`~repro.consistency.propagation.PropagationStats`; results carry
their counters and every run also merges into an active
:func:`~repro.consistency.propagation.collect_propagation` block.
"""

from __future__ import annotations

from typing import Any

from repro.csp.instance import Constraint, CSPInstance
from repro.relational.interning import decode_instance, encode_instance
from repro.consistency.propagation import (
    PropagationEngine,
    PropagationStats,
    Worklist,
    check_propagation_strategy,
    make_engine,
    publish,
)

__all__ = [
    "ac3",
    "enforce_arc_consistency",
    "path_consistency",
    "singleton_arc_consistency",
    "ArcResult",
]


class ArcResult:
    """Result of an arc-consistency run.

    Attributes
    ----------
    domains:
        The filtered per-variable domains.
    consistent:
        False iff some domain was wiped out (the instance is unsolvable).
    revisions:
        Number of revise operations that actually examined constraint rows
        (shorthand for ``stats.revisions``).
    stats:
        The full :class:`~repro.consistency.propagation.PropagationStats`
        of the run — support checks, residual-support hits, trail
        restores, wipeouts.
    """

    __slots__ = ("domains", "consistent", "revisions", "stats")

    def __init__(
        self,
        domains: dict[Any, set[Any]],
        consistent: bool,
        revisions: int,
        stats: PropagationStats | None = None,
    ):
        self.domains = domains
        self.consistent = consistent
        self.revisions = revisions
        self.stats = stats if stats is not None else PropagationStats()

    def __repr__(self) -> str:
        return f"ArcResult(consistent={self.consistent}, revisions={self.revisions})"


def ac3(instance: CSPInstance, strategy: str = "residual") -> ArcResult:
    """Generalized AC-3: filter each variable's domain to the values that
    have a *support* in every constraint mentioning it (all other scope
    variables take values in their current domains).

    Runs to fixpoint; sound (never removes a value that occurs in a
    solution) and therefore a decision procedure for unsatisfiability only.
    Every strategy computes the same (unique) arc-consistent closure, and
    every strategy refutes an instance with an empty relation (arity 0
    included) before revising anything.  ``"residual"`` re-verifies stored
    support rows instead of rescanning whole relations, revises every arc
    once and then queues only the variables whose domains shrank, each at
    most once while pending, so ``revisions`` counts revise operations that
    really examined rows — matching the counter's docstring.  ``"naive"``
    is the seed implementation kept as the differential oracle, unbounded
    duplicate arc enqueueing included.  ``"interned"`` runs the same loop
    over bitmask domains in code space and decodes the result.
    """
    check_propagation_strategy(strategy)
    instance = instance.normalize()
    if strategy == "naive":
        domains, consistent, stats = _ac3_naive(instance)
    else:
        engine: PropagationEngine = make_engine(instance, strategy)
        stats = PropagationStats()
        engine.charge_build(stats)
        raw = engine.fresh_domains()
        consistent = engine.propagate(raw, None, stats)
        domains = engine.export_domains(raw)
    publish(stats)
    return ArcResult(domains, consistent, stats.revisions, stats)


def _ac3_naive(
    instance: CSPInstance,
) -> tuple[dict[Any, set[Any]], bool, PropagationStats]:
    """The textbook GAC-3 fixpoint: every revise rescans the full relation.

    ``instance`` must be normalized.  Kept verbatim (modulo instrumentation
    and the empty-relation refutation every strategy shares) as the
    differential oracle for the residual engine — including the original
    unbounded list queue, which may hold the same ``(constraint,
    variable)`` arc many times; the engines' changed-variable queue is the
    fix.
    """
    stats = PropagationStats()
    domains: dict[Any, set[Any]] = {v: set(instance.domain) for v in instance.variables}
    if any(not c.relation for c in instance.constraints):
        # No arc reaches an empty nullary relation, so it is refuted here.
        stats.wipeouts += 1
        return domains, False, stats
    constraints_on: dict[Any, list[Constraint]] = {v: [] for v in instance.variables}
    for c in instance.constraints:
        for v in c.variables():
            constraints_on[v].append(c)

    queue: list[tuple[Constraint, Any]] = [
        (c, v) for c in instance.constraints for v in c.variables()
    ]
    while queue:
        constraint, variable = queue.pop()
        stats.revisions += 1
        supported: set[Any] = set()
        scope = constraint.scope
        for row in constraint.relation:
            stats.support_checks += 1
            if all(row[i] in domains[scope[i]] for i in range(len(scope))):
                for i, v in enumerate(scope):
                    if v == variable:
                        supported.add(row[i])
        new = domains[variable] & supported
        if new != domains[variable]:
            domains[variable] = new
            if not new:
                stats.wipeouts += 1
                return domains, False, stats
            for c in constraints_on[variable]:
                for v in c.variables():
                    if v != variable:
                        queue.append((c, v))
    return domains, True, stats


def enforce_arc_consistency(
    instance: CSPInstance, strategy: str = "residual"
) -> CSPInstance | None:
    """Return an equivalent instance whose constraint relations are filtered
    to arc-consistent domains (as added unary constraints), or ``None`` if
    arc consistency wipes out a domain (the instance is unsolvable)."""
    result = ac3(instance, strategy)
    if not result.consistent:
        return None
    instance = instance.normalize()
    extra = [
        Constraint((v,), {(value,) for value in dom})
        for v, dom in result.domains.items()
    ]
    filtered = []
    for c in instance.constraints:
        rows = {
            row
            for row in c.relation
            if all(row[i] in result.domains[c.scope[i]] for i in range(c.arity))
        }
        filtered.append(Constraint(c.scope, rows))
    return CSPInstance(instance.variables, instance.domain, filtered + extra).normalize()


def singleton_arc_consistency(
    instance: CSPInstance, strategy: str = "residual"
) -> ArcResult:
    """Singleton arc consistency (SAC): a value survives iff *assigning it*
    leaves the instance arc-consistent.

    Strictly stronger than AC (it refutes, e.g., 2-coloring odd cycles,
    which plain AC cannot), still polynomial.  Sound: assigning any value
    of any solution leaves an AC-consistent instance, so solution values
    are never pruned.  Both strategies compute the unique SAC closure:

    * ``"naive"`` — one full AC-3 run per (variable, value) probe on a
      rebuilt instance, iterated to fixpoint (the textbook SAC-1 shape);
    * ``"residual"`` — one shared AC fixpoint; each probe pins the
      variable and propagates only from its constraints, then rolls the
      deletions back off a trail instead of rebuilding anything;
    * ``"interned"`` — the residual probe loop, but over bitmask domains
      in code space: a pin is one mask swap, a revise is word operations,
      a rollback is one ``|=`` per trail entry.
    """
    check_propagation_strategy(strategy)
    instance = instance.normalize()
    if strategy == "naive":
        return _sac_naive(instance)
    return _sac_engine(make_engine(instance, strategy))


def _sac_naive(instance: CSPInstance) -> ArcResult:
    stats = PropagationStats()
    base_domains, consistent, base_stats = _ac3_naive(instance)
    stats.merge(base_stats)
    if not consistent:
        publish(stats)
        return ArcResult(base_domains, False, stats.revisions, stats)
    domains = {v: set(d) for v, d in base_domains.items()}

    changed = True
    while changed:
        changed = False
        for variable in instance.variables:
            for value in sorted(domains[variable], key=repr):
                probe = _with_domains(instance, domains, variable, value)
                _, probe_ok, probe_stats = _ac3_naive(probe.normalize())
                stats.merge(probe_stats)
                if not probe_ok:
                    domains[variable].discard(value)
                    changed = True
                    if not domains[variable]:
                        publish(stats)
                        return ArcResult(domains, False, stats.revisions, stats)
    publish(stats)
    return ArcResult(domains, True, stats.revisions, stats)


def _sac_engine(engine: PropagationEngine) -> ArcResult:
    """Incremental SAC on a shared propagation engine.

    Invariant: between probes, ``domains`` is the AC closure of the
    current instance restriction — so a probe for ``(variable, value)``
    only needs to propagate from the pinned variable's own constraints,
    and a failed probe's deletions are undone off the trail in O(deleted).

    The loop drives the engine exclusively through the generic domain
    protocol (``domain_values``/``contains``/``pin``/``discard``/…), so the
    same code serves the set-based residual engine and the bitmask
    :class:`~repro.consistency.propagation.InternedEngine`; both enumerate
    values in the same canonical order, so the probe sequence — and hence
    every counter except the representation-specific ones — lines up.
    """
    stats = PropagationStats()
    engine.charge_build(stats)
    instance = engine.instance
    domains = engine.fresh_domains()
    if not engine.propagate(domains, None, stats):
        publish(stats)
        return ArcResult(engine.export_domains(domains), False, stats.revisions, stats)

    changed = True
    while changed:
        changed = False
        for variable in instance.variables:
            for value in engine.domain_values(domains, variable):
                if not engine.contains(domains, variable, value):
                    continue  # pruned by a failed sibling probe's fallout
                removed = engine.pin(domains, variable, value)
                if not removed:
                    continue  # pinning a singleton domain changes nothing
                trail: list[tuple[Any, Any]] = [(variable, removed)]
                ok = engine.propagate(domains, (variable,), stats, trail=trail)
                engine.restore(domains, trail, stats)
                if not ok:
                    engine.discard(domains, variable, value)
                    changed = True
                    if engine.is_empty(domains, variable):
                        stats.wipeouts += 1
                        publish(stats)
                        return ArcResult(
                            engine.export_domains(domains), False, stats.revisions, stats
                        )
                    # Re-establish the shared AC fixpoint before probing on.
                    if not engine.propagate(domains, (variable,), stats):
                        publish(stats)
                        return ArcResult(
                            engine.export_domains(domains), False, stats.revisions, stats
                        )
    publish(stats)
    return ArcResult(engine.export_domains(domains), True, stats.revisions, stats)


def _with_domains(
    instance: CSPInstance,
    domains: dict[Any, set[Any]],
    pinned_variable: Any,
    pinned_value: Any,
) -> CSPInstance:
    """The instance restricted to the current domains with one variable
    pinned — expressed via added unary constraints."""
    extra = [
        Constraint(
            (v,),
            {(pinned_value,)} if v == pinned_variable else {(x,) for x in dom},
        )
        for v, dom in domains.items()
    ]
    return CSPInstance(
        instance.variables, instance.domain, list(instance.constraints) + extra
    )


def path_consistency(
    instance: CSPInstance, strategy: str = "residual"
) -> CSPInstance | None:
    """Strong path consistency (PC-2 + AC) for *binary-or-smaller* instances.

    For every ordered pair ``(x, y)`` the implicit binary relation
    ``R_xy`` is tightened through every third variable ``z``:
    ``R_xy ← R_xy ∩ π_xy(R_xz ⋈ R_zy)``, interleaved with arc consistency
    (a value survives in a domain iff it has a partner in every pair
    relation it participates in), to a joint fixpoint.  Returns the
    tightened equivalent instance (with explicit binary constraints for all
    pairs) or ``None`` when some relation or domain empties, proving
    unsolvability.  Because AC runs to fixpoint alongside PC, the returned
    instance is always arc-consistent — the classical "strong path
    consistency" package (``tests/consistency`` asserts it).

    Instances containing constraints of arity > 2 are handled by first
    projecting those constraints onto their variable pairs — the result is
    then a sound *relaxation*, still usable for refutation.

    ``strategy="residual"`` (default) drives the PC-2 tightenings off a
    deduplicating worklist of ``(x, y, z)`` triples — only triples whose
    input pair relations changed are re-run — and memoizes the last
    witness value per ``(pair tuple, third variable)``, re-verifying it in
    O(1) before scanning the domain.  ``strategy="naive"`` is the full
    triple-sweep fixpoint.  ``strategy="interned"`` interns the instance to
    dense int codes and runs the residual engine in code space (small-int
    pair hashing), decoding the tightened instance at the boundary;
    ``"columnar"`` takes the same code-space path (PC works on pair *sets*,
    not domain bitmasks, so there is no column to sweep — the strategies
    alias).  All compute the same (unique) strong-PC closure.
    """
    check_propagation_strategy(strategy)
    stats = PropagationStats()
    try:
        if strategy in ("interned", "columnar"):
            return _path_consistency_interned(instance, stats)
        return _path_consistency(instance, strategy, stats)
    finally:
        publish(stats)


def _path_consistency_interned(
    instance: CSPInstance, stats: PropagationStats
) -> CSPInstance | None:
    """Run the residual PC engine over the int-encoded instance.

    The strong-PC closure is unique, so tightening in code space and
    decoding afterwards yields exactly the instance the plain residual
    engine computes — only the working values differ (dense small ints,
    whose pair tuples hash and compare cheaply).
    """
    instance = instance.normalize()
    encoded, codec = encode_instance(instance)
    stats.intern_tables += 1
    result = _path_consistency(encoded, "residual", stats)
    return None if result is None else decode_instance(result, codec)


def _path_consistency(
    instance: CSPInstance, strategy: str, stats: PropagationStats
) -> CSPInstance | None:
    instance = instance.normalize()
    variables = list(instance.variables)
    domain = sorted(instance.domain, key=repr)

    # R[x][y]: set of allowed (value_x, value_y) pairs, x != y.
    pairs: dict[tuple[Any, Any], set[tuple[Any, Any]]] = {}
    full = {(u, w) for u in domain for w in domain}
    for x in variables:
        for y in variables:
            if x != y:
                pairs[(x, y)] = set(full)

    unary: dict[Any, set[Any]] = {v: set(domain) for v in variables}
    for c in instance.constraints:
        if c.arity == 1:
            unary[c.scope[0]] &= {row[0] for row in c.relation}
        elif c.arity == 2:
            x, y = c.scope
            pairs[(x, y)] &= set(c.relation)
            pairs[(y, x)] &= {(b, a) for a, b in c.relation}
        else:
            # Project higher-arity constraints onto each ordered pair.
            for i in range(c.arity):
                for j in range(c.arity):
                    if i != j:
                        x, y = c.scope[i], c.scope[j]
                        pairs[(x, y)] &= {(row[i], row[j]) for row in c.relation}

    for v, dom in unary.items():
        for y in variables:
            if y != v:
                pairs[(v, y)] = {p for p in pairs[(v, y)] if p[0] in dom}
                pairs[(y, v)] = {p for p in pairs[(y, v)] if p[1] in dom}

    # Anything already empty refutes outright (the fixpoint loops below only
    # report wipeouts they *cause*, not ones present from the start).
    if variables and (
        any(not unary[v] for v in variables) or any(not p for p in pairs.values())
    ):
        stats.wipeouts += 1
        return None

    if strategy == "naive":
        ok = _pc_fixpoint_naive(variables, domain, pairs, unary, stats)
    else:
        ok = _pc_fixpoint_residual(variables, domain, pairs, unary, stats)
    if not ok:
        stats.wipeouts += 1
        return None

    constraints = [
        Constraint((x, y), pairs[(x, y)])
        for x in variables
        for y in variables
        if repr(x) < repr(y)
    ]
    constraints += [Constraint((v,), {(a,) for a in unary[v]}) for v in variables]
    return CSPInstance(variables, instance.domain, constraints).normalize()


def _pc_narrow_domains(variables, pairs, unary, stats) -> list | None:
    """One arc-tightening sweep: a value stays in dom(x) iff every pair
    relation R_xy still offers it a partner; shrunken domains then
    re-filter the pair relations.  Returns ``None`` on a wipeout, else the
    list of variables whose domain changed.  Shared by both strategies —
    interleaving it with the path tightening to a joint fixpoint is what
    upgrades plain PC to *strong* path consistency."""
    changed = []
    for x in variables:
        narrowed = unary[x]
        for y in variables:
            if y != x:
                narrowed = narrowed & {a for (a, _) in pairs[(x, y)]}
        if narrowed != unary[x]:
            unary[x] = narrowed
            if not narrowed:
                return None
            changed.append(x)
            for y in variables:
                if y != x:
                    pairs[(x, y)] = {p for p in pairs[(x, y)] if p[0] in narrowed}
                    pairs[(y, x)] = {p for p in pairs[(y, x)] if p[1] in narrowed}
    return changed


def _pc_fixpoint_naive(variables, domain, pairs, unary, stats) -> bool:
    """The full-sweep strong-PC fixpoint: every round re-tightens every
    ordered pair through every third variable."""
    changed = True
    while changed:
        changed = False
        # Path tightening: R_xy ← R_xy ∩ π_xy(R_xz ⋈ R_zy).
        for x in variables:
            for y in variables:
                if x == y:
                    continue
                for z in variables:
                    if z == x or z == y:
                        continue
                    stats.revisions += 1
                    allowed = set()
                    for a, b in pairs[(x, y)]:
                        for cv in domain:
                            stats.support_checks += 1
                            if (a, cv) in pairs[(x, z)] and (cv, b) in pairs[(z, y)]:
                                allowed.add((a, b))
                                break
                    if allowed != pairs[(x, y)]:
                        pairs[(x, y)] = allowed
                        pairs[(y, x)] = {(b, a) for a, b in allowed}
                        if not allowed:
                            return False
                        changed = True
        narrowed = _pc_narrow_domains(variables, pairs, unary, stats)
        if narrowed is None:
            return False
        changed = changed or narrowed
    return True


def _pc_fixpoint_residual(variables, domain, pairs, unary, stats) -> bool:
    """Worklist-driven strong-PC fixpoint with memoized witnesses.

    A triple ``(x, y, z)`` (tighten ``R_xy`` through ``z``) is re-enqueued
    only when one of its input relations ``R_xz``/``R_zy`` shrinks; each
    surviving pair ``(a, b)`` first re-verifies its stored witness value
    before falling back to a domain scan.
    """
    worklist = Worklist(
        (x, y, z)
        for x in variables
        for y in variables
        if x != y
        for z in variables
        if z != x and z != y
    )
    witness: dict[tuple[Any, ...], Any] = {}

    def requeue(x: Any, y: Any) -> None:
        # pairs[(x, y)] / pairs[(y, x)] shrank: every tighten reading them
        # must re-run.  T(u, v, z) reads (u, z) and (z, v).
        for w in variables:
            if w != x and w != y:
                worklist.push((x, w, y))
                worklist.push((y, w, x))
                worklist.push((w, y, x))
                worklist.push((w, x, y))

    while True:
        while worklist:
            x, y, z = worklist.pop()
            current = pairs[(x, y)]
            stats.revisions += 1
            allowed = set()
            for a, b in current:
                key = (x, y, z, a, b)
                stored = witness.get(key)
                if stored is not None:
                    stats.support_checks += 1
                    if (a, stored) in pairs[(x, z)] and (stored, b) in pairs[(z, y)]:
                        stats.support_hits += 1
                        allowed.add((a, b))
                        continue
                for cv in domain:
                    stats.support_checks += 1
                    if (a, cv) in pairs[(x, z)] and (cv, b) in pairs[(z, y)]:
                        witness[key] = cv
                        allowed.add((a, b))
                        break
            if allowed != current:
                pairs[(x, y)] = allowed
                pairs[(y, x)] = {(b, a) for a, b in allowed}
                if not allowed:
                    return False
                requeue(x, y)
        narrowed = _pc_narrow_domains(variables, pairs, unary, stats)
        if narrowed is None:
            return False
        if not narrowed:
            return True
        for x in narrowed:
            for y in variables:
                if x != y:
                    requeue(x, y)
