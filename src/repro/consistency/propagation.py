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
variables that shrank.  The bitset engine builds its binary support masks,
arc blocks and MAC checks in one pass over the constraints, and revises
each binary arc inline in that loop *from the partner's side*: the target
keeps the union of the masks of the values the partner's domain still
holds, whose codes come from a 256-entry per-byte table — no per-bit loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Collection, Container, Hashable, Iterable, Mapping, Sequence

from repro.csp.instance import Constraint, CSPInstance
from repro.relational.interning import Codec
from repro.relational.relation import Relation
from repro.telemetry.registry import MetricSet, derived
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

#: The set bit positions of every byte value, ascending:
#: ``_BYTE_CODES[0b1010] == (1, 3)``.  A bitset domain's codes are read
#: from it a byte at a time.
_BYTE_CODES: tuple[tuple[int, ...], ...] = tuple(
    tuple(i for i in range(8) if byte >> i & 1) for byte in range(256)
)


def _codes_of(mask: int) -> Sequence[int]:
    """The set bit positions (codes) of ``mask``, ascending, read from
    :data:`_BYTE_CODES` one byte at a time."""
    if mask < 256:
        return _BYTE_CODES[mask]
    codes: list[int] = []
    base = 0
    while mask:
        codes += [base + b for b in _BYTE_CODES[mask & 255]]
        mask >>= 8
        base += 8
    return codes


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
class PropagationStats(MetricSet, kind="propagation"):
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
    hit_rate:
        Fraction of support checks answered by a stored residual support.
    intern_tables:
        Value ↔ dense-int codec tables built by interned engines.
    bitset_words:
        64-bit words held by the bitset domain representation (variables ×
        words-per-domain), charged once per interned engine build.
    mask_ops:
        Word-level membership operations performed by bitset revisions —
        the interned counterpart of ``support_checks``.  A binary arc
        revised from the partner's side counts the partner values it
        walked, one mask union each.
    """

    revisions: int = 0
    support_checks: int = 0
    support_hits: int = 0
    trail_restores: int = 0
    wipeouts: int = 0

    @derived
    def hit_rate(self) -> float:
        """Fraction of support checks answered by a stored residual support."""
        return self.support_hits / self.support_checks if self.support_checks else 0.0

    intern_tables: int = 0
    bitset_words: int = 0
    mask_ops: int = 0


#: The innermost active :func:`collect_propagation` stats object, if any.
current_propagation = PropagationStats.current

#: Collect propagation statistics for the duration of a ``with`` block.
#: Every propagation engine (AC/SAC/PC strategies, the pebble-game
#: pruning, MAC search) merges its per-run counters into the innermost
#: active block on completion (:func:`publish`); nested blocks shadow
#: outer ones.
collect_propagation = PropagationStats.collect


def publish(stats: PropagationStats) -> PropagationStats:
    """Merge ``stats`` into the active :func:`collect_propagation` block.

    Engines call this exactly once per run, so a traced composite (SAC over
    many probes, a whole search) reports the merged counters of its parts.
    Returns ``stats`` unchanged for chaining.
    """
    active = current_propagation()
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


def _revised_arcs(prepared: Any) -> list[tuple]:
    """One arc per scope position of a prepared constraint, revised
    through its ``revise``."""
    return [(target, None, None, prepared) for target in prepared.scope]


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
    loop and one build; they differ only in what an arc carries (see
    :meth:`_arcs_of`).

    An arc is a ``(target, partner, masks, constraint)`` tuple, and the
    blocks share the tuples.  Here ``partner`` and ``masks`` are None and
    the loop calls the prepared constraint's ``revise``.  The bitset
    engine builds no constraint object for a binary constraint: its two
    arcs carry the partner variable and the support masks instead, and
    the loop revises them inline (see :class:`InternedEngine`).
    :attr:`constraints` holds the prepared constraints that arcs revise
    through ``revise``.
    """

    #: The number of values in a domain or in a removal of this engine's
    #: representation (a value set here, a bitmask in the bitset engines).
    #: A builtin, so MAC's per-node scans make no Python-level call.
    count = staticmethod(len)

    def __init__(self, instance: CSPInstance):
        if not instance.is_normalized():
            instance = instance.normalize()
        self.instance = instance
        self._ordered_domain = sorted(instance.domain, key=repr)
        self._build_arcs()

    def _build_arcs(self) -> None:
        """Precompute what the fixpoint and MAC read, in one pass over the
        instance's constraints: the root block (every arc, in constraint
        then scope order), each variable's outgoing block, whether an
        empty relation refutes the root pass outright, the
        :meth:`scope_checks`, and :attr:`constraints`.

        :meth:`_arcs_of` gives each constraint's arcs.  An arc with masks
        is its own MAC pair check; the others share their constraint's
        ``(scope, rows)`` row check.
        """
        variables = self.instance.variables
        every: list[tuple] = []
        outgoing: dict[Any, list[tuple]] = {v: [] for v in variables}
        pairs: dict[Any, list] = {v: [] for v in variables}
        rows: dict[Any, list] = {v: [] for v in variables}
        prepared: list[Any] = []
        refuted = False
        for index, c in enumerate(self.instance.constraints):
            if not c.relation:
                refuted = True
            scope = c.scope
            arcs = self._arcs_of(index, c)
            every += arcs
            check = None
            for arc in arcs:
                target, partner, masks, constraint = arc
                if masks is not None:
                    # A masked arc is binary: the partner is its only source.
                    outgoing[partner].append(arc)
                    pairs[partner].append((target, masks))
                    continue
                for source in scope:
                    if source != target:
                        outgoing[source].append(arc)
                if check is None:
                    prepared.append(constraint)
                    check = (scope, self._rows_of(index))
                rows[target].append(check)
        outgoing[_ROOT] = every
        self._arcs = outgoing
        self._refuted = refuted
        self._checks = (pairs, rows)
        self.constraints = prepared

    def _arcs_of(self, index: int, constraint: Constraint) -> list[tuple]:
        """The arcs of the instance constraint at ``index``: one per scope
        position, revised through a prepared constraint's ``revise``.  The
        bitset engine gives binary constraints support masks instead (see
        :meth:`InternedEngine._arcs_of`)."""
        return _revised_arcs(_ResidualConstraint(constraint))

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
            before = stats.snapshot()
            ok = self._propagate(domains, changed, stats, trail, skip)
            sp.add_counters("propagation", stats.counter_delta(before))
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
        codes = _BYTE_CODES
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
                        # An arity-2 bitset arc, revised from the partner's
                        # side: the target keeps the values that some
                        # partner value supports, the union of masks[b]
                        # over the codes b of the partner's domain.
                        current = domains[target]
                        if not current:
                            continue
                        revisions += 1
                        other = domains[partner]
                        walked = codes[other] if other < 256 else _codes_of(other)
                        mask_ops += len(walked)
                        support = 0
                        for b in walked:
                            support |= masks[b]
                        removed = current & ~support
                        if not removed:
                            continue
                        domains[target] = current ^ removed
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

    def restore(
        self,
        domains: dict[Any, Any],
        trail: list[tuple[Any, Any]],
        stats: PropagationStats,
    ) -> None:
        """Undo every deletion recorded on ``trail`` (newest first), emptying
        it.  A removal goes back with ``|=``, for value sets and bitmasks
        alike."""
        count = self.count
        while trail:
            variable, removed = trail.pop()
            domains[variable] |= removed
            stats.trail_restores += count(removed)

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

    def export_domains(self, domains: dict[Any, Any]) -> dict[Any, set[Any]]:
        """The domains as plain value sets (already are, for this engine)."""
        return domains

    def scope_checks(self) -> tuple[dict[Any, list], dict[Any, list]]:
        """MAC's per-node re-check of the constraints on each variable,
        built with the arcs.

        Returns ``(pairs, rows)``.  ``pairs[v]`` holds ``(other, masks)``
        for each binary constraint on ``v`` that has support masks (the
        bitset engine's): with ``v`` at ``a`` and ``other`` at ``b``, the
        pair is allowed iff bit ``b`` of ``masks[a]`` is set.  ``rows[v]``
        holds ``(scope, rows)`` for every other constraint on ``v``,
        tested by row membership in the engine's value space.
        """
        return self._checks

    def _rows_of(self, index: int) -> frozenset[tuple[Any, ...]]:
        """The rows of the constraint at ``index`` in the engine's value
        space."""
        return self.instance.constraints[index].relation

    def decode_assignment(self, assignment: dict[Any, Any]) -> dict[Any, Any]:
        """A plain-value copy of a solver assignment (identity here)."""
        return dict(assignment)


class _BitsetConstraint:
    """One unary or ≥3-ary constraint prepared for bitset revision in code
    space, from its code rows:

    * arity 1 — intersect the domain with the precomputed allowed mask;
    * arity ≥ 3 — walk the per-(position, value) candidate rows testing each
      entry with a ``(domain >> code) & 1`` bit probe.

    A binary constraint gets no such object: :class:`InternedEngine` turns
    its rows straight into the support masks its two arcs carry.  Every
    word-level membership operation is counted in
    ``PropagationStats.mask_ops`` — the interned analogue of the residual
    engine's ``support_checks``.
    """

    __slots__ = ("scope", "arity", "position", "allowed_mask", "candidates")

    def __init__(
        self,
        scope: tuple[Any, ...],
        rows: frozenset[tuple[int, ...]],
        n_codes: int,
    ):
        self.scope = scope
        self.arity = len(scope)
        # Normalized scopes have distinct variables, so positions are unique.
        self.position = {v: i for i, v in enumerate(scope)}
        self.allowed_mask = 0
        self.candidates: list[list[list[tuple[int, ...]]]] | None = None
        if self.arity == 1:
            mask = 0
            for (a,) in rows:
                mask |= 1 << a
            self.allowed_mask = mask
        else:
            cand = [[[] for _ in range(n_codes)] for _ in range(self.arity)]
            for row in rows:
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
        :meth:`_ResidualConstraint.revise`."""
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
            for a in _codes_of(current):
                for row in cand[a]:
                    valid = True
                    for i in range(arity):
                        if i == position:
                            continue
                        ops += 1
                        if not (domains[scope[i]] >> row[i]) & 1:
                            valid = False
                            break
                    if valid:
                        new |= 1 << a
                        break
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
    revisions are word operations.  The fixpoint loop and the trail
    protocol are inherited unchanged from :class:`PropagationEngine` — a
    trail entry is ``(variable, removed_mask)`` and restore is
    ``domains[v] |= mask``, which is the same ``|=`` the set engine uses.

    A binary constraint on ``(x, y)`` becomes two support-mask lists and
    no constraint object: ``S[b]`` is the mask of the ``x`` values that
    ``y = b`` supports, and symmetrically for ``y``.  The shared loop
    revises the arc ``x → y`` inline *from the partner's side*: ``D(x)``
    keeps ``D(x) & (S[b0] | S[b1] | …)`` over the codes ``b`` of ``D(y)``,
    read from a 256-entry table of per-byte codes, a byte at a time when
    the domain is wider than 8 values.  So a binary revision's
    ``mask_ops`` counts the partner values it walked.  Unary and ≥3-ary
    constraints are :class:`_BitsetConstraint` objects revised through
    ``revise``.

    Callers that build one should charge ``intern_tables += 1`` and
    ``bitset_words += engine.bitset_words`` to their stats object, so the
    representation cost stays visible next to the ``mask_ops`` it buys.

    The instance's rows are validated already, so the shared one-pass
    build turns binary rows straight into the masks through the codec's
    value → code map, and the two masked arcs double as MAC's pair
    checks.  Code rows are built on demand only (for unary and ≥3-ary
    constraints here): :attr:`code_constraints` holds one ``(scope, code
    rows)`` pair per constraint, in instance order, for the consumers that
    read rows.
    """

    count = staticmethod(int.bit_count)

    def __init__(self, instance: CSPInstance):
        if not instance.is_normalized():
            instance = instance.normalize()
        self.instance = instance
        self.codec = Codec(instance.domain)
        self._n_codes = n = len(self.codec)
        self.full_mask = (1 << n) - 1
        self.bitset_words = len(instance.variables) * ((n + 63) // 64 if n else 0)
        self._code_rows: list[frozenset[tuple[int, ...]] | None] = [None] * len(
            instance.constraints
        )
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

    def _arcs_of(self, index: int, constraint: Constraint) -> list[tuple]:
        """A binary constraint's two arcs carry support masks, built from
        its rows through the codec's value → code map; any other
        constraint is a :class:`_BitsetConstraint` over its code rows."""
        scope = constraint.scope
        n_codes = self._n_codes
        if len(scope) != 2:
            return _revised_arcs(_BitsetConstraint(scope, self._rows_of(index), n_codes))
        x, y = scope
        code = self.codec.code_map
        # of_x[a]: the y codes that support x = a; of_y[b]: the x codes
        # that support y = b.
        of_x = [0] * n_codes
        of_y = [0] * n_codes
        for a, b in constraint.relation:
            a = code[a]
            b = code[b]
            of_x[a] |= 1 << b
            of_y[b] |= 1 << a
        # The arc to x walks y's codes, so it carries of_y.
        return [(x, y, of_y, None), (y, x, of_x, None)]

    def charge_build(self, stats: PropagationStats) -> None:
        stats.intern_tables += 1
        stats.bitset_words += self.bitset_words

    def fresh_domains(self) -> dict[Any, int]:
        """Full domains (all bits set) for every variable."""
        return {v: self.full_mask for v in self.instance.variables}

    # -- generic domain protocol (bitmask versions) -------------------------

    def domain_values(self, domains: dict[Any, int], variable: Any) -> list[int]:
        """The current domain codes ascending — the original ``repr`` order."""
        return list(_codes_of(domains[variable]))

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

    Where the bitset engine walks the values of a revision's domains one
    at a time, this constraint sweeps the entire column at once with
    numpy:

    * arity 1 — unchanged: one AND with the precomputed allowed mask;
    * arity 2 — the relation is a dense ``n×n`` support matrix per
      position, bit-packed along the support axis into ``W = ⌈n/64⌉``
      64-bit words per candidate and stored column-major, so that word
      ``i`` of every candidate is one contiguous column.  A revision ANDs
      column ``i`` with word ``i`` of the other domain's mask (taken
      straight from the Python int, no unpacking) and reduces with
      ``any`` across the ``W`` words — one packed sweep over contiguous
      columns answers all candidate values together, touching an eighth
      of the memory a bool matrix would;
    * arity ≥ 3 — the rows live in one ``m×arity`` int64 matrix; a revision
      gathers every non-revised column's domain membership in one fancy-
      index pass, ANDs the row-validity vector, and scatters the surviving
      rows' revised-position codes into the supported set.

    ``PropagationStats.mask_ops`` counts logical membership work even
    though the engine executes it as a handful of array operations: the
    candidate values of the revised domain for arity ≤ 2 (the bitset
    engine counts a binary arc's partner values instead, since it walks
    those) and the candidate row-cells for arity ≥ 3, as the bitset engine
    does.
    """

    __slots__ = (
        "scope",
        "arity",
        "position",
        "n_codes",
        "n_bytes",
        "allowed_mask",
        "pair_words",
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
        # A binary revision reads the other domain's mask as whole 64-bit
        # words.
        self.n_bytes = (n_codes + 63) // 64 * 8
        self._np = np
        self.allowed_mask = 0
        self.pair_words = None
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
            # domain"; position 1 is the transpose question.
            self.pair_words = (
                self._packed_words(first, np),
                self._packed_words(first.T, np),
            )
        else:
            self.rows_matrix = np.array(sorted(rows), dtype=np.int64).reshape(
                len(rows), self.arity
            )

    @staticmethod
    def _packed_words(matrix, np):
        """A bool support matrix (candidates × supports) as ``n×W`` 64-bit
        words: little-endian bits along the support axis, matching the
        int masks, zero-padded to whole words, and column-major so that
        each word column is contiguous."""
        n = matrix.shape[0]
        packed = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
        packed[:, : (n + 7) // 8] = np.packbits(matrix, axis=1, bitorder="little")
        return np.asfortranarray(packed.view("<u8"))

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
            other_words = np.frombuffer(
                domains[self.scope[1 - position]].to_bytes(self.n_bytes, "little"),
                dtype="<u8",
            )
            supported = (self.pair_words[position] & other_words).any(axis=1)
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
    revisions change: with numpy available every constraint, binary ones
    included, becomes a :class:`_ColumnarConstraint` revised through its
    ``revise`` arcs, and each revision sweeps the whole column in a few
    array operations instead of walking values.  Without numpy the engine
    *is* the interned engine (its arcs are the inherited ones), so
    ``strategy="columnar"`` degrades transparently on numpy-free installs.
    """

    def __init__(self, instance: CSPInstance):
        try:
            import numpy as np
        except ImportError:
            np = None
        self._np = np
        super().__init__(instance)

    def _arcs_of(self, index: int, constraint: Constraint) -> list[tuple]:
        n_codes = self._n_codes
        if self._np is None or not n_codes:
            return super()._arcs_of(index, constraint)
        return _revised_arcs(
            _ColumnarConstraint(constraint.scope, self._rows_of(index), n_codes, self._np)
        )


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
