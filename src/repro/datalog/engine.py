"""Bottom-up Datalog evaluation: naive and semi-naive fixpoints.

Section 4 notes that every Datalog query "is computable in polynomial time,
since the bottom-up evaluation of the least fixed-point of the program
terminates within a polynomial number of steps".  Both classical evaluators
are implemented — the naive one (re-derive everything each round, kept as a
differential-testing oracle) and the semi-naive one (each round joins at
least one *newly derived* fact), which is the default.

Databases are :class:`~repro.relational.structure.Structure` objects or
plain ``{predicate: set-of-tuples}`` mappings over the EDB predicates.
"""

from __future__ import annotations

from typing import Any, Collection, Iterable, Mapping

from repro.cq.evaluate import atom_shape, translate_atom
from repro.cq.query import Atom, Var
from repro.datalog.syntax import Program, Rule
from repro.errors import VocabularyError
from repro.relational.algebra import _take, join_all
from repro.relational.relation import Relation
from repro.relational.structure import Structure
from repro.telemetry.spans import span

__all__ = [
    "evaluate_naive",
    "evaluate_seminaive",
    "evaluate",
    "goal_holds",
    "goal_relation",
    "seminaive_closure",
]

Facts = dict[str, frozenset[tuple[Any, ...]]]


def _edb_facts(program: Program, database: Structure | Mapping[str, Any]) -> Facts:
    arities = program.arities()
    facts: Facts = {}
    if isinstance(database, Structure):
        items = {s: database.relation(s) for s in database.vocabulary}
    else:
        items = {s: frozenset(map(tuple, rows)) for s, rows in database.items()}
    for predicate in program.edb_predicates():
        rows = items.get(predicate, frozenset())
        for t in rows:
            if len(t) != arities[predicate]:
                raise VocabularyError(
                    f"EDB fact {predicate}{t!r} has the wrong arity"
                )
        facts[predicate] = frozenset(rows)
    return facts


#: Per-evaluation cache of atom relations.  ``(atom, predicate value)``
#: keys hold what :func:`_atom_to_relation` hands out; ``(shape, predicate
#: value)`` keys (:func:`~repro.cq.evaluate.atom_shape`) hold the translated
#: relation those are renamed views of.  EDB predicates never change across
#: fixpoint rounds, so every round after the first gets back the *same*
#: :class:`Relation` object per atom — and every atom of one shape shares
#: the memoized hash indexes built by earlier delta joins
#: (``Relation.index_on``), instead of re-deriving and re-indexing the
#: relation each round.
_AtomCache = dict[tuple[Any, frozenset], Relation]


def _atom_to_relation(
    atom: Atom,
    value: frozenset[tuple[Any, ...]],
    cache: _AtomCache | None = None,
) -> Relation:
    """The atom's relation over a predicate value
    (:func:`~repro.cq.evaluate.translate_atom`), through ``cache``."""
    if cache is None:
        return translate_atom(atom, value)
    relation = cache.get((atom, value))
    if relation is None:
        shape, names = atom_shape(atom)
        translated = cache.get((shape, value))
        if translated is None:
            translated = translate_atom(atom, value)
            cache[(shape, value)] = translated
        relation = translated.renamed(names)
        cache[(atom, value)] = relation
    return relation


def _apply_rule(
    rule: Rule,
    values: Facts,
    delta_atom_index: int | None = None,
    delta: Facts | None = None,
    strategy: str | None = None,
    cache: _AtomCache | None = None,
    seed: Relation | None = None,
    excluded: Mapping[str, Collection[tuple[Any, ...]]] | None = None,
) -> frozenset[tuple[Any, ...]]:
    """Evaluate one rule under the current predicate values: the head
    facts of π_H(body), H the head's distinct variables, on
    ``join_all(..., attributes=H)``.

    In semi-naive mode (``delta_atom_index`` set) the designated body atom
    reads the *delta* value of its predicate instead of the full value,
    and that relation seeds the join (``join_all(..., seed=...)``).
    Without a delta atom, ``seed``, a relation over some of the body's
    variables, seeds it, every body atom reading its full value (DRed's
    rederivation seeds the body with the over-deleted head facts).  A
    seeded join under the default execution plans nothing: it starts from
    the seed's rows and probes the other atoms' memoized join-key indexes,
    which persist across rounds — and, under incremental maintenance,
    across update batches — through ``cache``.  ``strategy`` picks the
    join order and execution of an unseeded body (``"textbook"`` keeps
    the order the body was written in; ``"scan"`` forces nested loops;
    the default is the greedy order on the indexed kernel, which projects
    while it joins, and every other execution projects once at the end)
    and the execution of a seeded one.

    ``excluded`` maps predicates to facts their value in ``values`` still
    holds but that are no longer part of it (DRed's over-deleted facts,
    not yet subtracted).  A body with a non-delta atom over such a
    predicate joins over all its variables, and the valuations that use
    an excluded fact are dropped before the head is read off.
    """
    relations = []
    for i, atom in enumerate(rule.body):
        if i == delta_atom_index:
            # Delta values are fresh every round and never read again, so
            # caching their relations would only evict the persistent
            # snapshots (the bounded per-atom cache is FIFO).
            value = (delta or {}).get(atom.predicate, frozenset())
            seed = _atom_to_relation(atom, value, None)
            continue
        value = values.get(atom.predicate, frozenset())
        relations.append(_atom_to_relation(atom, value, cache))
    variables = tuple(dict.fromkeys(v.name for v in rule.head.variables()))
    if seed is None and not relations:
        return frozenset(_instantiate(rule.head, variables, [()]))
    checks = []
    if excluded:
        checks = [
            atom
            for i, atom in enumerate(rule.body)
            if i != delta_atom_index and excluded.get(atom.predicate)
        ]
    if checks:
        variables = tuple(
            dict.fromkeys(v.name for atom in rule.body for v in atom.variables())
        )
    rows = join_all(relations, strategy=strategy, attributes=variables, seed=seed).tuples
    for atom in checks:
        gone = excluded[atom.predicate]  # type: ignore[index]
        facts = _instantiate(atom, variables, rows)
        rows = [row for row, fact in zip(rows, facts) if fact not in gone]
    return frozenset(_instantiate(rule.head, variables, rows))


def _instantiate(
    head: Atom, attributes: tuple[str, ...], rows: Iterable[tuple[Any, ...]]
) -> Iterable[tuple[Any, ...]]:
    """The head's fact for each of ``rows`` (tuples over ``attributes``,
    which hold every head variable), by one positional map: a head made of
    ``attributes`` themselves, in order, takes the rows as they are; any
    other head — a constant, a repeated or reordered variable, a Boolean
    head — picks its columns with one :func:`operator.itemgetter` from each
    row extended by the head's constants."""
    constants: list[Any] = []
    slots = []
    for t in head.terms:
        if isinstance(t, Var):
            slots.append(attributes.index(t.name))
        else:
            slots.append(len(attributes) + len(constants))
            constants.append(t)
    if slots == list(range(len(attributes))):
        return rows
    if constants:
        extra = tuple(constants)
        rows = (row + extra for row in rows)
    return _take(rows, slots)


def seminaive_closure(
    program: Program,
    values: Facts,
    delta: Facts,
    strategy: str | None = None,
    cache: Any = None,
    first_round: int = 1,
    journal: dict[str, list] | None = None,
    removed: Mapping[str, Collection[tuple[Any, ...]]] | None = None,
) -> int:
    """Run semi-naive delta rounds until no rule derives a new fact.

    ``values`` maps every predicate (EDB and IDB) to its current value and
    is updated **in place**; ``delta`` maps predicates to the facts that are
    *new* relative to the previous state — already part of ``values`` — in
    a from-scratch evaluation these are the round-0 IDB derivations, in
    incremental maintenance (:mod:`repro.datalog.incremental`) they are
    freshly inserted EDB facts and rederived facts.  Per round, each
    rule is instantiated once per body atom whose predicate has a nonempty
    delta, with that atom reading the delta value only — the classical "at
    least one new fact per derivation" argument, which is what lets an
    update batch touch only the affected part of the fixpoint.  Every such
    instantiation is a seeded join (``join_all(..., seed=<the delta>)``),
    so no round runs the planner.

    A round's new facts go to a per-predicate *pending* set, and a derived
    fact is new when it is in neither the value nor that set.  The pending
    facts are folded into ``values[p]`` — one copy of the value — only
    before a round whose joins read ``p`` at a non-delta position, and
    once at the end: on transitive closure that is one copy of ``T`` per
    closure, not one per round.  ``removed`` maps predicates to facts that
    ``values[p]`` still holds but that are no longer part of it (DRed's
    over-deleted facts): joins skip valuations that use one
    (:func:`_apply_rule`'s ``excluded``), a derived one is new again and
    stays, and the rest leave ``values[p]`` with its fold, so a batch that
    deletes and inserts copies each value once.  When ``journal`` is
    given, each round's genuinely new facts are appended to
    ``journal[p]``.  Returns the number of delta rounds run.
    """
    rounds = 0
    pending: dict[str, set[tuple[Any, ...]]] = {}
    gone = {p: set(facts) for p, facts in (removed or {}).items() if facts}
    delta = {p: frozenset(v) for p, v in delta.items() if v}
    while delta:
        with span("datalog.round", round=first_round + rounds) as sp:
            applications = [
                (rule, i)
                for rule in program.rules
                for i, atom in enumerate(rule.body)
                if atom.predicate in delta
            ]
            for rule, pos in applications:
                for i, atom in enumerate(rule.body):
                    if i != pos and pending.get(atom.predicate):
                        _fold(values, atom.predicate, pending, gone)
            derived: dict[str, set[tuple[Any, ...]]] = {}
            for rule, pos in applications:
                derived.setdefault(rule.head.predicate, set()).update(
                    _apply_rule(
                        rule,
                        values,
                        delta_atom_index=pos,
                        delta=delta,
                        strategy=strategy,
                        cache=cache,
                        excluded=gone,
                    )
                )
            delta = {}
            for p, facts in derived.items():
                known = pending.setdefault(p, set())
                new = frozenset(facts - values[p] - known)
                if new:
                    known |= new
                    if journal is not None:
                        journal.setdefault(p, []).append(new)
                revived = facts & gone[p] if p in gone else None
                if revived:
                    gone[p] -= revived
                    new |= revived
                if new:
                    delta[p] = new
            if sp:
                sp.note(rows=sum(len(d) for d in delta.values()))
        rounds += 1
    for p in set(pending) | set(gone):
        _fold(values, p, pending, gone)
    return rounds


def _fold(
    values: Facts, predicate: str, pending: dict[str, set], gone: dict[str, set]
) -> None:
    """Fold ``predicate``'s pending facts into its value and its removed
    facts out of it, in one copy of the value (none when both are empty).
    The two sets are disjoint, the first from the value and the second
    within it, so the new value is their symmetric difference with it."""
    added = pending.pop(predicate, None)
    dropped = gone.pop(predicate, None)
    if added and dropped:
        values[predicate] = frozenset(added | dropped).symmetric_difference(values[predicate])
    elif added:
        values[predicate] = values[predicate] | added
    elif dropped:
        values[predicate] = values[predicate] - dropped


def evaluate_naive(
    program: Program,
    database: Structure | Mapping[str, Any],
    strategy: str | None = None,
) -> Facts:
    """Naive bottom-up evaluation: recompute every rule until no IDB grows."""
    with span("datalog.naive") as root:
        values = _edb_facts(program, database)
        for idb in program.idb_predicates():
            values[idb] = frozenset()
        cache: _AtomCache = {}
        changed = True
        rounds = 0
        while changed:
            changed = False
            with span("datalog.round", round=rounds):
                for rule in program.rules:
                    new = _apply_rule(rule, values, strategy=strategy, cache=cache)
                    merged = values[rule.head.predicate] | new
                    if merged != values[rule.head.predicate]:
                        values[rule.head.predicate] = frozenset(merged)
                        changed = True
            rounds += 1
        result = {p: values[p] for p in program.idb_predicates()}
        if root:
            root.note(rounds=rounds, rows=sum(len(v) for v in result.values()))
        return result


def evaluate_seminaive(
    program: Program,
    database: Structure | Mapping[str, Any],
    strategy: str | None = None,
) -> Facts:
    """Semi-naive evaluation: per round, each rule is instantiated once per
    IDB body atom with that atom reading only the facts newly derived in the
    previous round."""
    with span("datalog.seminaive") as root:
        values = _edb_facts(program, database)
        idbs = program.idb_predicates()
        for idb in idbs:
            values[idb] = frozenset()
        cache: _AtomCache = {}

        # Round 0: rules evaluated on EDBs alone (IDB atoms are empty, so only
        # rules whose bodies are EDB-only can fire).
        delta: Facts = {idb: frozenset() for idb in idbs}
        with span("datalog.round", round=0) as sp:
            for rule in program.rules:
                new = _apply_rule(rule, values, strategy=strategy, cache=cache)
                delta[rule.head.predicate] = delta[rule.head.predicate] | frozenset(new)
            for idb in idbs:
                values[idb] = delta[idb]
            if sp:
                sp.note(rows=sum(len(d) for d in delta.values()))

        rounds = 1 + seminaive_closure(
            program,
            values,
            delta,
            strategy=strategy,
            cache=cache,
            first_round=1,
        )
        result = {p: values[p] for p in idbs}
        if root:
            root.note(rounds=rounds, rows=sum(len(v) for v in result.values()))
        return result


def evaluate(
    program: Program,
    database: Structure | Mapping[str, Any],
    strategy: str | None = None,
) -> Facts:
    """Evaluate the program (semi-naive) and return all IDB values."""
    return evaluate_seminaive(program, database, strategy=strategy)


def goal_relation(
    program: Program, database: Structure | Mapping[str, Any]
) -> frozenset[tuple[Any, ...]]:
    """The value of the goal predicate on the given database."""
    return evaluate(program, database)[program.goal]


def goal_holds(program: Program, database: Structure | Mapping[str, Any]) -> bool:
    """For a 0-ary (Boolean) goal: whether the goal is derived.  For an
    n-ary goal: whether the goal relation is nonempty."""
    return bool(goal_relation(program, database))
