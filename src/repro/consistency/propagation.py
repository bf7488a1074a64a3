"""The residual-support propagation core shared by the §5 fixpoint engines.

Arc consistency, singleton arc consistency, path consistency, and the
existential k-pebble game of Section 4 are all *greatest-fixpoint pruning*
procedures: start from a candidate set (domain values, pair tuples, partial
homomorphisms) and delete elements that have lost their supporting witness,
cascading until nothing changes.  Marx (*Modern Lower Bound Techniques in
Database Theory and Constraint Satisfaction*, 2022) identifies exactly these
procedures as the complexity-critical core of the CSP/DB correspondence —
and their naive implementations redo the same witness search over and over.

This module provides the three ingredients the rewritten engines share:

* :class:`PropagationStats` — the observability layer, mirroring
  :class:`~repro.relational.stats.EvalStats`: revisions, constraint-row
  support checks, residual-support hits, trail restores, and wipeouts,
  collectable through a ``contextvars``-scoped :func:`collect_propagation`.
* :class:`Worklist` — a set-backed deduplicating queue for the fixpoints
  whose work items are not variables (path consistency's pairs, the pebble
  game's partial homomorphisms): an item already awaiting processing is
  never enqueued twice.
* :class:`PropagationEngine` — generalized arc consistency in the AC-3rm
  *residual support* style (Lecoutre–Hemery): for every
  ``(constraint, variable, value)`` triple the last support row found is
  remembered, and a revision first re-verifies that stored row in O(arity)
  before falling back to a scan — and the scan itself only walks the rows
  that carry ``value`` in the right column, courtesy of the memoized
  :meth:`~repro.relational.relation.Relation.index_on` hash indexes from the
  join backend.  Residual supports are *hints*, re-verified before every
  use, so they stay sound when domains grow back (trail-restoring SAC
  probes, backtracking search) — unlike AC-2001 pointers, which assume
  monotone deletion.

The engines' fixpoint queues the *variables* whose domains changed, each at
most once while pending, and revises a popped variable's outgoing arcs as
one precomputed block: no ``(constraint, variable)`` tuple is built or
hashed per push.  The root pass revises every arc once, then follows the
variables that shrank.  The bitset engines build their masks in one pass
over the rows and revise binary arcs inline in that loop.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Collection, Container, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.csp.instance import Constraint, CSPInstance
from repro.relational.interning import Codec, bit_positions
from repro.relational.relation import Relation
from repro.telemetry.registry import counter_delta, snapshot
from repro.telemetry.spans import span

__all__ = [
    "PropagationStats",
    "collect_propagation",
    "current_propagation",
    "Worklist",
    "PropagationEngine",
    "InternedEngine",
    "ColumnarEngine",
    "make_engine",
    "PROPAGATION_STRATEGIES",
    "check_propagation_strategy",
]

#: The propagation strategies every §4/§5 fixpoint engine accepts:
#: ``"residual"`` (the support-indexed default), ``"naive"`` (the
#: rescan-everything baseline, kept as the differential-testing oracle —
#: the same role ``execution="scan"`` plays in the join backend),
#: ``"interned"`` (bitset domains over dense-int value codes; see
#: :class:`InternedEngine`), and ``"columnar"`` (the same bitset domains,
#: but with each revision sweeping the constraint's whole code-space
#: column as one vectorized operation when numpy is available; see
#: :class:`ColumnarEngine`).
PROPAGATION_STRATEGIES: tuple[str, ...] = ("residual", "naive", "interned", "columnar")


#: The key of the root pass's block in an engine's arc table: the arcs of
#: every constraint, revised once before the loop follows changed variables.
_ROOT = object()


def check_propagation_strategy(strategy: str) -> str:
    """Validate a propagation strategy name, returning it unchanged.

    Unknown names raise :class:`~repro.errors.SolverError`, mirroring
    :func:`repro.relational.planner.parse_strategy`.
    """
    if strategy not in PROPAGATION_STRATEGIES:
        from repro.errors import SolverError

        raise SolverError(
            f"unknown propagation strategy {strategy!r}; "
            f"expected one of {PROPAGATION_STRATEGIES}"
        )
    return strategy


@dataclass
class PropagationStats:
    """Mutable accumulator of propagation counters (monotone, like EvalStats).

    Attributes
    ----------
    revisions:
        Revise operations that actually examined constraint rows (a pop of
        an arc whose domain is already empty counts nothing).
    support_checks:
        Constraint rows tested for validity against the current domains —
        the unit of work the residual engine exists to save.
    support_hits:
        Stored residual supports that re-verified successfully, i.e. the
        O(1) fast path.  ``support_hits ≤ support_checks`` always.
    trail_restores:
        Values put back by a trail rollback (SAC probes restoring the
        shared fixpoint instead of rebuilding the instance).
    wipeouts:
        Domain (or pair-relation) wipeouts observed — each one is a proof
        of unsatisfiability of the probed instance.
    intern_tables:
        Value ↔ dense-int codec tables built by interned engines.
    bitset_words:
        64-bit words held by the bitset domain representation (variables ×
        words-per-domain), charged once per interned engine build.
    mask_ops:
        Word-level membership operations performed by bitset revisions —
        the interned counterpart of ``support_checks``.
    """

    revisions: int = 0
    support_checks: int = 0
    support_hits: int = 0
    trail_restores: int = 0
    wipeouts: int = 0
    intern_tables: int = 0
    bitset_words: int = 0
    mask_ops: int = 0

    def merge(self, other: "PropagationStats") -> "PropagationStats":
        """Fold ``other``'s counters into this object (in place); return it."""
        self.revisions += other.revisions
        self.support_checks += other.support_checks
        self.support_hits += other.support_hits
        self.trail_restores += other.trail_restores
        self.wipeouts += other.wipeouts
        self.intern_tables += other.intern_tables
        self.bitset_words += other.bitset_words
        self.mask_ops += other.mask_ops
        return self

    def reset(self) -> None:
        """Zero every counter."""
        self.revisions = 0
        self.support_checks = 0
        self.support_hits = 0
        self.trail_restores = 0
        self.wipeouts = 0
        self.intern_tables = 0
        self.bitset_words = 0
        self.mask_ops = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of support checks answered by a stored residual support."""
        return self.support_hits / self.support_checks if self.support_checks else 0.0

    def as_dict(self) -> dict:
        """A plain-dict snapshot (for ``--json`` output and EXPERIMENTS tables)."""
        return {
            "revisions": self.revisions,
            "support_checks": self.support_checks,
            "support_hits": self.support_hits,
            "trail_restores": self.trail_restores,
            "wipeouts": self.wipeouts,
            "hit_rate": self.hit_rate,
            "intern_tables": self.intern_tables,
            "bitset_words": self.bitset_words,
            "mask_ops": self.mask_ops,
        }

    def summary(self) -> str:
        """A short human-readable report."""
        return "\n".join(
            [
                f"revisions       {self.revisions}",
                f"support checks  {self.support_checks}",
                f"support hits    {self.support_hits} ({self.hit_rate:.0%})",
                f"trail restores  {self.trail_restores}",
                f"wipeouts        {self.wipeouts}",
                f"intern tables   {self.intern_tables}",
                f"bitset words    {self.bitset_words}",
                f"mask ops        {self.mask_ops}",
            ]
        )


# Like EvalStats: a ContextVar rather than a module global, so concurrent
# traces (threads, asyncio tasks, nested blocks) never share counters.
_ACTIVE: ContextVar[PropagationStats | None] = ContextVar(
    "repro_propagation_stats", default=None
)


def current_propagation() -> PropagationStats | None:
    """The innermost active :func:`collect_propagation` stats object, if any."""
    return _ACTIVE.get()


@contextmanager
def collect_propagation(
    stats: PropagationStats | None = None,
) -> Iterator[PropagationStats]:
    """Collect propagation statistics for the duration of the ``with`` block.

    Every propagation engine (AC/SAC/PC strategies, the pebble-game
    pruning, MAC search) merges its per-run counters into the innermost
    active block on completion.  Nested blocks shadow outer ones.

    >>> from repro.consistency.arc import ac3
    >>> from repro.csp.instance import Constraint, CSPInstance
    >>> inst = CSPInstance(["x", "y"], [0, 1], [Constraint(("x", "y"), {(0, 1)})])
    >>> with collect_propagation() as stats:
    ...     _ = ac3(inst)
    >>> stats.revisions > 0
    True
    """
    if stats is None:
        stats = PropagationStats()
    token = _ACTIVE.set(stats)
    try:
        yield stats
    finally:
        _ACTIVE.reset(token)


def publish(stats: PropagationStats) -> PropagationStats:
    """Merge ``stats`` into the active :func:`collect_propagation` block.

    Engines call this exactly once per run, so a traced composite (SAC over
    many probes, a whole search) reports the merged counters of its parts.
    Returns ``stats`` unchanged for chaining.
    """
    active = _ACTIVE.get()
    if active is not None and active is not stats:
        active.merge(stats)
    return stats


class Worklist:
    """A set-backed deduplicating FIFO queue of hashable work items.

    The fix for the classical AC-3 formulation's unbounded duplicate-arc
    enqueueing: an item already awaiting processing is not enqueued again
    (``push`` returns ``False``), while an item may of course re-enter the
    queue after it has been popped.

    >>> wl = Worklist([1, 2, 1])
    >>> len(wl)
    2
    >>> wl.pop(), wl.pop()
    (1, 2)
    >>> wl.push(1)
    True
    """

    __slots__ = ("_queue", "_members")

    def __init__(self, items: Iterable[Hashable] = ()):
        self._queue: deque = deque()
        self._members: set = set()
        for item in items:
            self.push(item)

    def push(self, item: Hashable) -> bool:
        """Enqueue ``item`` unless it is already pending; report whether it was."""
        if item in self._members:
            return False
        self._members.add(item)
        self._queue.append(item)
        return True

    def pop(self) -> Any:
        """Dequeue and return the oldest pending item."""
        item = self._queue.popleft()
        self._members.discard(item)
        return item

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __contains__(self, item: object) -> bool:
        return item in self._members


class _ResidualConstraint:
    """One constraint prepared for residual-support revision.

    The relation is wrapped in a :class:`~repro.relational.relation.Relation`
    over positional attribute names so the join backend's memoized
    :meth:`~repro.relational.relation.Relation.index_on` hash indexes serve
    as the per-(position, value) candidate lists: a revision for value ``a``
    of the variable at position ``i`` only ever walks the rows that carry
    ``a`` in column ``i``, never the whole relation.
    """

    __slots__ = ("scope", "arity", "position", "relation", "_attrs", "_supports")

    def __init__(self, constraint: Constraint):
        self.scope = constraint.scope
        self.arity = constraint.arity
        # Normalized scopes have distinct variables, so positions are unique.
        self.position = {v: i for i, v in enumerate(self.scope)}
        self._attrs = tuple(f"p{i}" for i in range(self.arity))
        self.relation = Relation(self._attrs, constraint.relation)
        # (position, value) → last row found to support the value there.
        self._supports: dict[tuple[int, Any], tuple[Any, ...]] = {}

    def candidates(self, position: int) -> Mapping[tuple[Any], Sequence[tuple[Any, ...]]]:
        """The rows grouped by their value at ``position``: the memoized
        hash index on that column, keyed by 1-tuples."""
        return self.relation.index_on((self._attrs[position],))

    def row_valid(self, row: tuple[Any, ...], domains: dict[Any, set[Any]]) -> bool:
        scope = self.scope
        for i in range(self.arity):
            if row[i] not in domains[scope[i]]:
                return False
        return True

    def revise(
        self,
        variable: Any,
        domains: dict[Any, set[Any]],
        stats: PropagationStats,
    ) -> set[Any]:
        """Remove and return the values of ``variable`` with no support here.

        Each surviving value costs one support check when its stored
        residual support is still valid; otherwise its candidate index
        group is scanned until a new support is found (and stored).
        """
        position = self.position[variable]
        current = domains[variable]
        if not current:
            return set()
        stats.revisions += 1
        removed: set[Any] = set()
        groups = self.candidates(position)
        for value in current:
            key = (position, value)
            stored = self._supports.get(key)
            if stored is not None:
                stats.support_checks += 1
                if self.row_valid(stored, domains):
                    stats.support_hits += 1
                    continue
            for row in groups.get((value,), ()):
                if row is stored:
                    continue  # already found invalid just above
                stats.support_checks += 1
                if self.row_valid(row, domains):
                    self._supports[key] = row
                    break
            else:
                removed.add(value)
        if removed:
            domains[variable] = current - removed
        return removed


class PropagationEngine:
    """Generalized arc consistency with residual supports over one instance.

    Built once per (normalized) instance; revisions share the constraint
    indexes and residual supports across every propagation the caller runs
    — AC-3 passes, SAC probes, or all the nodes of a MAC search.  Residual
    supports are verified before use, so the engine is sound even when the
    caller restores previously deleted values between calls.

    The fixpoint queues *variables*, not ``(constraint, variable)`` arcs.
    The build lists each variable's outgoing arcs once: every
    ``(constraint, target)`` whose target is another variable of a
    constraint on it.  Popping a variable revises that block in order, and
    a target that shrinks is queued once.  All three engines share this one
    loop; they differ only in what an arc carries (see :meth:`_arcs_of`).
    """

    def __init__(self, instance: CSPInstance):
        if not instance.is_normalized():
            instance = instance.normalize()
        self.instance = instance
        self._ordered_domain = sorted(instance.domain, key=repr)
        self.constraints = [_ResidualConstraint(c) for c in instance.constraints]
        self._build_arcs()

    def _build_arcs(self) -> None:
        """Precompute what the fixpoint reads: the root block (every arc,
        in constraint then scope order), each variable's outgoing block,
        and whether an empty relation refutes the root pass outright.

        An arc is a ``(target, partner, masks, constraint)`` tuple; the
        blocks share the tuples.
        """
        self._refuted = any(not c.relation for c in self.instance.constraints)
        every: list[tuple] = []
        outgoing: dict[Any, list[tuple]] = {v: [] for v in self.instance.variables}
        for constraint in self.constraints:
            arcs = self._arcs_of(constraint)
            every += arcs
            for arc in arcs:
                for source in constraint.scope:
                    if source != arc[0]:
                        outgoing[source].append(arc)
        outgoing[_ROOT] = every
        self._arcs = outgoing

    def _arcs_of(self, constraint: Any) -> list[tuple]:
        """One arc per scope position of ``constraint``.

        ``masks`` is None here: the loop calls the constraint's ``revise``.
        The bitset engine gives arity-2 arcs their partner masks instead
        (see :meth:`InternedEngine._arcs_of`), and the loop revises those
        inline against the ``partner`` variable's domain.
        """
        return [(target, None, None, constraint) for target in constraint.scope]

    def fresh_domains(self) -> dict[Any, set[Any]]:
        """Full domains for every variable (the AC starting point)."""
        return {v: set(self.instance.domain) for v in self.instance.variables}

    # -- the fixpoint loop -------------------------------------------------

    def propagate(
        self,
        domains: dict[Any, Any],
        changed: Collection[Any] | None,
        stats: PropagationStats,
        trail: list[tuple[Any, Any]] | None = None,
        skip: Container[Any] = (),
    ) -> bool:
        """Run revisions to fixpoint; ``False`` on a refutation.

        ``changed`` names the variables whose domains just changed, and
        the loop starts from their outgoing arcs.  ``None`` is the root
        pass: it refutes at once when some constraint's relation is empty
        (arity 0 included), and otherwise revises every arc once before
        following the variables that shrank.  Deletions are appended to
        ``trail`` (as ``(variable, removed)`` entries) when one is given,
        so the caller can roll them back with :meth:`restore`.  ``skip``
        excludes revision targets (assigned search variables).  On a
        wipeout the queue is abandoned — the instance is already refuted.
        """
        sp = span(
            "propagation.fixpoint",
            engine=type(self).__name__,
            changed="root" if changed is None else len(changed),
        )
        if not sp:
            return self._propagate(domains, changed, stats, trail, skip)
        # ``stats`` is a function argument, not the ContextVar-installed
        # object, so the span cannot capture its delta automatically.
        with sp:
            before = snapshot(stats)
            ok = self._propagate(domains, changed, stats, trail, skip)
            sp.add_counters("propagation", counter_delta(stats, before))
            sp.note(consistent=ok)
            return ok

    def _propagate(
        self,
        domains: dict[Any, Any],
        changed: Collection[Any] | None,
        stats: PropagationStats,
        trail: list[tuple[Any, Any]] | None,
        skip: Container[Any],
    ) -> bool:
        if changed is None:
            if self._refuted:
                stats.wipeouts += 1
                return False
            queue = deque([_ROOT])
            pending: set[Any] = set()
        else:
            queue = deque(dict.fromkeys(changed))
            pending = set(queue)
        arcs = self._arcs
        # Inline revisions count into locals, flushed once on exit.
        revisions = mask_ops = 0
        try:
            while queue:
                source = queue.popleft()
                pending.discard(source)
                for target, partner, masks, constraint in arcs[source]:
                    if target in skip:
                        continue
                    if masks is None:
                        removed = constraint.revise(target, domains, stats)
                        if not removed:
                            continue
                    else:
                        # An arity-2 bitset arc: a value survives iff its
                        # partner mask meets the partner's domain.
                        current = domains[target]
                        if not current:
                            continue
                        revisions += 1
                        mask_ops += current.bit_count()
                        other = domains[partner]
                        new = 0
                        m = current
                        while m:
                            low = m & -m
                            if masks[low.bit_length() - 1] & other:
                                new |= low
                            m ^= low
                        removed = current ^ new
                        if not removed:
                            continue
                        domains[target] = new
                    if trail is not None:
                        trail.append((target, removed))
                    if not domains[target]:
                        stats.wipeouts += 1
                        return False
                    if target not in pending:
                        pending.add(target)
                        queue.append(target)
            return True
        finally:
            stats.revisions += revisions
            stats.mask_ops += mask_ops

    @staticmethod
    def restore(
        domains: dict[Any, set[Any]],
        trail: list[tuple[Any, set[Any]]],
        stats: PropagationStats,
    ) -> None:
        """Undo every deletion recorded on ``trail`` (newest first), emptying it."""
        while trail:
            variable, removed = trail.pop()
            domains[variable] |= removed
            stats.trail_restores += len(removed)

    # -- generic domain protocol --------------------------------------------
    #
    # SAC and MAC drive either engine through these accessors, so the two
    # domain representations (value sets here, bitmasks in InternedEngine)
    # share one search/probe loop.  ``domain_values`` must enumerate in the
    # canonical ``repr`` order both engines agree on.

    def charge_build(self, stats: PropagationStats) -> None:
        """Charge this engine's representation cost to ``stats`` (nothing
        for the plain set engine; codec + bitset words for the interned one).
        """

    def domain_size(self, domains: dict[Any, Any], variable: Any) -> int:
        return len(domains[variable])

    def domain_values(self, domains: dict[Any, Any], variable: Any) -> list[Any]:
        """The current domain in canonical (``repr``-sorted) order.

        The instance-wide order is precomputed once, so per-call work is a
        filter, not a sort.
        """
        current = domains[variable]
        return [v for v in self._ordered_domain if v in current]

    def contains(self, domains: dict[Any, Any], variable: Any, value: Any) -> bool:
        return value in domains[variable]

    def is_empty(self, domains: dict[Any, Any], variable: Any) -> bool:
        return not domains[variable]

    def pin(self, domains: dict[Any, Any], variable: Any, value: Any) -> Any:
        """Narrow ``variable`` to ``{value}``; return what was removed.

        Returns a falsy empty removal when the domain already was the
        singleton.  The removal is the trail entry for :meth:`restore`.
        """
        removed = domains[variable] - {value}
        if removed:
            domains[variable] = {value}
        return removed

    def discard(self, domains: dict[Any, Any], variable: Any, value: Any) -> None:
        domains[variable].discard(value)

    def count(self, removed: Any) -> int:
        """Number of values in a removal produced by revise/pin."""
        return len(removed)

    def export_domains(self, domains: dict[Any, Any]) -> dict[Any, set[Any]]:
        """The domains as plain value sets (already are, for this engine)."""
        return domains

    def scope_checks(self) -> tuple[dict[Any, list], dict[Any, list]]:
        """MAC's per-node re-check of the constraints on each variable.

        Returns ``(pairs, rows)``.  ``pairs[v]`` holds ``(other, masks)``
        for each binary constraint on ``v`` that has partner masks: with
        ``v`` at ``a`` and ``other`` at ``b``, the pair is allowed iff bit
        ``b`` of ``masks[a]`` is set.  ``rows[v]`` holds ``(scope, rows)``
        for every other constraint on ``v``, tested by row membership in
        the engine's value space.
        """
        pairs: dict[Any, list] = {v: [] for v in self.instance.variables}
        rows: dict[Any, list] = {v: [] for v in self.instance.variables}
        for index, prepared in enumerate(self.constraints):
            scope = prepared.scope
            masks = getattr(prepared, "partner_masks", None)
            if masks is None:
                check = (scope, self._rows_of(index))
                for v in scope:
                    rows[v].append(check)
            else:
                x, y = scope
                pairs[x].append((y, masks[0]))
                pairs[y].append((x, masks[1]))
        return pairs, rows

    def _rows_of(self, index: int) -> frozenset[tuple[Any, ...]]:
        """The rows of the constraint at ``index`` in the engine's value
        space."""
        return self.instance.constraints[index].relation

    def decode_assignment(self, assignment: dict[Any, Any]) -> dict[Any, Any]:
        """A plain-value copy of a solver assignment (identity here)."""
        return dict(assignment)


class _BitsetConstraint:
    """One constraint prepared for bitset revision in code space.

    Values are read through the codec's value → code map, so support
    questions become word operations on int bitmasks:

    * arity 1 — intersect the domain with the precomputed allowed mask;
    * arity 2 — for each candidate value, one ``partner_mask & other_domain``
      AND decides support (the partner masks are precomputed per value and
      position, and the engine's loop runs this revision inline);
    * arity ≥ 3 — walk the per-(position, value) candidate rows testing each
      entry with a ``(domain >> code) & 1`` bit probe.

    Rows of arity 1 and 2 go straight into their masks; only arity ≥ 3
    builds code-row tuples.  Every word-level membership operation is
    counted in ``PropagationStats.mask_ops`` — the interned analogue of the
    residual engine's ``support_checks``.
    """

    __slots__ = ("scope", "arity", "position", "allowed_mask", "partner_masks", "candidates")

    def __init__(
        self,
        scope: tuple[Any, ...],
        relation: frozenset[tuple[Any, ...]],
        code: dict[Any, int],
        n_codes: int,
    ):
        self.scope = scope
        self.arity = len(scope)
        # Normalized scopes have distinct variables, so positions are unique.
        self.position = {v: i for i, v in enumerate(scope)}
        self.allowed_mask = 0
        self.partner_masks: tuple[list[int], list[int]] | None = None
        self.candidates: list[list[list[tuple[int, ...]]]] | None = None
        if self.arity == 1:
            mask = 0
            for (a,) in relation:
                mask |= 1 << code[a]
            self.allowed_mask = mask
        elif self.arity == 2:
            first = [0] * n_codes
            second = [0] * n_codes
            for a, b in relation:
                a = code[a]
                b = code[b]
                first[a] |= 1 << b
                second[b] |= 1 << a
            self.partner_masks = (first, second)
        elif self.arity:
            cand = [[[] for _ in range(n_codes)] for _ in range(self.arity)]
            for row in relation:
                row = tuple([code[value] for value in row])
                for i, c in enumerate(row):
                    cand[i][c].append(row)
            self.candidates = cand

    def revise(
        self,
        variable: Any,
        domains: dict[Any, int],
        stats: PropagationStats,
    ) -> int:
        """Remove and return (as a bitmask) the unsupported values of
        ``variable`` — the bitset counterpart of
        :meth:`_ResidualConstraint.revise`.  Arity-2 arcs never get here:
        the engine's loop revises them inline from the partner masks."""
        position = self.position[variable]
        current = domains[variable]
        if not current:
            return 0
        stats.revisions += 1
        if self.arity == 1:
            stats.mask_ops += 1
            new = current & self.allowed_mask
        else:
            scope = self.scope
            arity = self.arity
            cand = self.candidates[position]
            new = 0
            ops = 0
            m = current
            while m:
                low = m & -m
                for row in cand[low.bit_length() - 1]:
                    valid = True
                    for i in range(arity):
                        if i == position:
                            continue
                        ops += 1
                        if not (domains[scope[i]] >> row[i]) & 1:
                            valid = False
                            break
                    if valid:
                        new |= low
                        break
                m ^= low
            stats.mask_ops += ops
        removed = current & ~new
        if removed:
            domains[variable] = new
        return removed


class InternedEngine(PropagationEngine):
    """Generalized arc consistency over bitset domains in code space.

    The instance's values are interned to dense int codes (in ``repr``
    order, so ascending code order matches the plain engines' canonical
    value order); each variable's domain becomes one int bitmask; and
    revisions are word operations (:class:`_BitsetConstraint`).  The
    fixpoint loop and the trail protocol are inherited unchanged from
    :class:`PropagationEngine` — a trail entry is ``(variable,
    removed_mask)`` and restore is ``domains[v] |= mask``, which is the
    same ``|=`` the set engine uses.  Arity-2 arcs carry their partner
    masks, so the shared loop revises them inline.

    Callers that build one should charge ``intern_tables += 1`` and
    ``bitset_words += engine.bitset_words`` to their stats object, so the
    representation cost stays visible next to the ``mask_ops`` it buys.

    The instance's rows are validated already, so the engine encodes them
    in one pass through the codec's value → code map, straight into the
    masks for arities 1 and 2.  Code rows are built on demand only:
    :attr:`code_constraints` holds one ``(scope, code rows)`` pair per
    constraint, in instance order, for the consumers that read rows.
    """

    def __init__(self, instance: CSPInstance):
        if not instance.is_normalized():
            instance = instance.normalize()
        self.instance = instance
        self.codec = Codec(instance.domain)
        n = len(self.codec)
        self.full_mask = (1 << n) - 1
        self.bitset_words = len(instance.variables) * ((n + 63) // 64 if n else 0)
        self._code_rows: list[frozenset[tuple[int, ...]] | None] = [None] * len(
            instance.constraints
        )
        self.constraints = self._prepare(n)
        self._build_arcs()

    @property
    def code_constraints(self) -> list[tuple[tuple[Any, ...], frozenset[tuple[int, ...]]]]:
        """``(scope, code rows)`` per constraint, in instance order."""
        return [
            (c.scope, self._rows_of(i)) for i, c in enumerate(self.instance.constraints)
        ]

    def _rows_of(self, index: int) -> frozenset[tuple[int, ...]]:
        """The code rows of the constraint at ``index``, encoded on first
        use."""
        rows = self._code_rows[index]
        if rows is None:
            code = self.codec.code_map.__getitem__
            rows = frozenset(
                [tuple(map(code, row)) for row in self.instance.constraints[index].relation]
            )
            self._code_rows[index] = rows
        return rows

    def _prepare(self, n_codes: int) -> list[Any]:
        """The revision structure of each constraint."""
        code = self.codec.code_map
        return [
            _BitsetConstraint(c.scope, c.relation, code, n_codes)
            for c in self.instance.constraints
        ]

    def _arcs_of(self, constraint: Any) -> list[tuple]:
        masks = getattr(constraint, "partner_masks", None)
        if masks is None:
            return super()._arcs_of(constraint)
        x, y = constraint.scope
        return [(x, y, masks[0], constraint), (y, x, masks[1], constraint)]

    def charge_build(self, stats: PropagationStats) -> None:
        stats.intern_tables += 1
        stats.bitset_words += self.bitset_words

    def fresh_domains(self) -> dict[Any, int]:
        """Full domains (all bits set) for every variable."""
        return {v: self.full_mask for v in self.instance.variables}

    @staticmethod
    def restore(
        domains: dict[Any, int],
        trail: list[tuple[Any, int]],
        stats: PropagationStats,
    ) -> None:
        """Undo every deletion recorded on ``trail`` (newest first)."""
        while trail:
            variable, removed = trail.pop()
            domains[variable] |= removed
            stats.trail_restores += removed.bit_count()

    # -- generic domain protocol (bitmask versions) -------------------------

    def domain_size(self, domains: dict[Any, int], variable: Any) -> int:
        return domains[variable].bit_count()

    def domain_values(self, domains: dict[Any, int], variable: Any) -> list[int]:
        """The current domain codes ascending — the original ``repr`` order."""
        return list(bit_positions(domains[variable]))

    def contains(self, domains: dict[Any, int], variable: Any, value: int) -> bool:
        return bool((domains[variable] >> value) & 1)

    def pin(self, domains: dict[Any, int], variable: Any, value: int) -> int:
        bit = 1 << value
        removed = domains[variable] & ~bit
        if removed:
            domains[variable] = bit
        return removed

    def discard(self, domains: dict[Any, int], variable: Any, value: int) -> None:
        domains[variable] &= ~(1 << value)

    def count(self, removed: int) -> int:
        return removed.bit_count()

    def export_domains(self, domains: dict[Any, int]) -> dict[Any, set[Any]]:
        """Decode the bitmask domains to plain value sets."""
        return {v: self.codec.set_of(mask) for v, mask in domains.items()}

    def decode_assignment(self, assignment: dict[Any, int]) -> dict[Any, Any]:
        return {v: self.codec.decode(code) for v, code in assignment.items()}


def _mask_to_bools(mask: int, nbits: int, np):
    """An int bitmask as a numpy bool array of length ``nbits``."""
    raw = np.frombuffer(mask.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:nbits].astype(bool)


def _bools_to_mask(bools, np) -> int:
    """A numpy bool array back into an int bitmask (little-endian bits)."""
    return int.from_bytes(np.packbits(bools, bitorder="little").tobytes(), "little")


class _ColumnarConstraint:
    """One code-space constraint prepared for whole-column vectorized revision.

    Where :class:`_BitsetConstraint` walks the candidate values of a
    revision one bit at a time, this constraint sweeps the entire column at
    once with numpy:

    * arity 1 — unchanged: one AND with the precomputed allowed mask;
    * arity 2 — the relation is a dense ``n×n`` support matrix per
      position, bit-packed along the support axis (``np.packbits``, one
      byte per 8 codes); a revision ANDs the packed matrix against the
      other domain's mask *bytes* (taken straight from the Python int, no
      unpacking) and reduces with ``any`` — one packed sweep answers all
      candidate values together, touching an eighth of the memory a bool
      matrix would;
    * arity ≥ 3 — the rows live in one ``m×arity`` int64 matrix; a revision
      gathers every non-revised column's domain membership in one fancy-
      index pass, ANDs the row-validity vector, and scatters the surviving
      rows' revised-position codes into the supported set.

    ``PropagationStats.mask_ops`` counts the same logical membership work
    the bitset engine counts (candidate values for arity ≤ 2, candidate
    row-cells for arity ≥ 3), so the two engines stay comparable even
    though the columnar one executes it as a handful of array operations.
    """

    __slots__ = (
        "scope",
        "arity",
        "position",
        "n_codes",
        "n_bytes",
        "allowed_mask",
        "pair_bits",
        "rows_matrix",
        "_np",
    )

    def __init__(
        self, scope: tuple[Any, ...], rows: frozenset[tuple[int, ...]], n_codes: int, np
    ):
        self.scope = scope
        self.arity = len(scope)
        # Normalized scopes have distinct variables, so positions are unique.
        self.position = {v: i for i, v in enumerate(scope)}
        self.n_codes = n_codes
        self.n_bytes = (n_codes + 7) // 8
        self._np = np
        self.allowed_mask = 0
        self.pair_bits = None
        self.rows_matrix = None
        if self.arity == 1:
            mask = 0
            for row in rows:
                mask |= 1 << row[0]
            self.allowed_mask = mask
        elif self.arity == 2:
            first = np.zeros(n_codes * n_codes, dtype=bool)
            if rows:
                first[
                    np.fromiter(
                        (a * n_codes + b for a, b in rows),
                        dtype=np.int64,
                        count=len(rows),
                    )
                ] = True
            first = first.reshape(n_codes, n_codes)
            # position 0 asks "value a supported by some b in the other
            # domain"; position 1 is the transpose question.  Packing the
            # support axis (little-endian bits, matching the int masks)
            # makes the revision sweep a byte-AND instead of a bool-AND.
            self.pair_bits = (
                np.packbits(first, axis=1, bitorder="little"),
                np.packbits(first.T, axis=1, bitorder="little"),
            )
        else:
            self.rows_matrix = np.array(sorted(rows), dtype=np.int64).reshape(
                len(rows), self.arity
            )

    def revise(
        self,
        variable: Any,
        domains: dict[Any, int],
        stats: PropagationStats,
    ) -> int:
        """Remove and return (as a bitmask) the unsupported values of
        ``variable`` — same contract as :meth:`_BitsetConstraint.revise`."""
        position = self.position[variable]
        current = domains[variable]
        if not current:
            return 0
        stats.revisions += 1
        np = self._np
        if self.arity == 1:
            stats.mask_ops += 1
            new = current & self.allowed_mask
        elif self.arity == 2:
            other_bytes = np.frombuffer(
                domains[self.scope[1 - position]].to_bytes(self.n_bytes, "little"),
                dtype=np.uint8,
            )
            supported = (self.pair_bits[position] & other_bytes).any(axis=1)
            new = current & _bools_to_mask(supported, np)
            stats.mask_ops += current.bit_count()
        else:
            rows = self.rows_matrix
            if len(rows):
                valid = np.ones(len(rows), dtype=bool)
                for i in range(self.arity):
                    if i == position:
                        continue
                    dom_bools = _mask_to_bools(
                        domains[self.scope[i]], self.n_codes, np
                    )
                    valid &= dom_bools[rows[:, i]]
                supported = np.zeros(self.n_codes, dtype=bool)
                supported[rows[valid][:, position]] = True
                new = current & _bools_to_mask(supported, np)
                stats.mask_ops += len(rows) * (self.arity - 1)
            else:
                new = 0
        removed = current & ~new
        if removed:
            domains[variable] = new
        return removed


class ColumnarEngine(InternedEngine):
    """The interned bitset engine with vectorized whole-column revisions.

    Everything about the code space is inherited from
    :class:`InternedEngine` — the codec, the bitmask domains, the trail
    protocol, the fixpoint loop, and the generic domain protocol —
    so the engine computes the *identical* fixpoint, including identical
    partial domains on a wipeout and identical MAC search trees.  Only the
    per-constraint :meth:`revise` changes: with numpy available the
    constraints become :class:`_ColumnarConstraint` and each revision
    sweeps the whole column in a few array operations instead of a
    per-value bit loop.  Without numpy the engine *is* the interned engine
    (the bitset constraints are kept), so ``strategy="columnar"`` degrades
    transparently on numpy-free installs.
    """

    def _prepare(self, n_codes: int) -> list[Any]:
        from repro.relational.columnar import numpy_backend

        np = numpy_backend()
        if np is None or not n_codes:
            return super()._prepare(n_codes)
        return [
            _ColumnarConstraint(scope, rows, n_codes, np)
            for scope, rows in self.code_constraints
        ]


def make_engine(instance: CSPInstance, strategy: str) -> PropagationEngine:
    """The propagation engine for a (validated) strategy name.

    ``"interned"`` → :class:`InternedEngine`, ``"columnar"`` →
    :class:`ColumnarEngine`, anything else (``"residual"``) → the plain
    :class:`PropagationEngine`.  ``"naive"`` has no engine — callers route
    it to their rescan-everything baseline before getting here.
    """
    if strategy == "columnar":
        return ColumnarEngine(instance)
    if strategy == "interned":
        return InternedEngine(instance)
    return PropagationEngine(instance)
