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

from typing import Any, Mapping

from repro.cq.evaluate import atom_shape, translate_atom
from repro.cq.query import Atom, Var
from repro.datalog.syntax import Program, Rule
from repro.errors import VocabularyError
from repro.relational.algebra import (
    DEFAULT_EXECUTION,
    DEFAULT_STRATEGY,
    join_all,
    warm_join_indexes,
)
from repro.relational.planner import parse_strategy
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
    static: frozenset[str] = frozenset(),
) -> set[tuple[Any, ...]]:
    """Evaluate one rule under the current predicate values.

    In semi-naive mode (``delta_atom_index`` set) the designated body atom
    reads the *delta* value of its predicate instead of the full value.
    ``strategy`` picks the rule body's join order and execution
    (``"textbook"`` keeps the order the body was written in; ``"scan"``
    forces nested loops; the default is the cost-guided plan over the
    hash-indexed operators).  ``static`` names the predicates whose
    relations persist across rounds (the EDBs): their join-key indexes are
    warmed up front so every round after the first probes them for free.
    """
    relations = []
    static_positions = []
    for i, atom in enumerate(rule.body):
        if delta_atom_index is not None and i == delta_atom_index:
            # Delta values are fresh every round and never read again, so
            # caching their relations would only evict the persistent
            # snapshots (the bounded per-atom cache is FIFO).
            value = (delta or {}).get(atom.predicate, frozenset())
            relations.append(_atom_to_relation(atom, value, None))
            continue
        value = values.get(atom.predicate, frozenset())
        # In a semi-naive round every non-delta relation is stable: it
        # reads a snapshot that persists across rounds (and, under
        # incremental maintenance, across update batches) through the
        # atom cache, so a warmed index amortizes.  The delta relation
        # is fresh every round and must stay the probe side.
        if atom.predicate in static or delta_atom_index is not None:
            static_positions.append(i)
        relations.append(_atom_to_relation(atom, value, cache))
    order, execution = parse_strategy(
        strategy, default_order=DEFAULT_STRATEGY, default_execution=DEFAULT_EXECUTION
    )
    if (
        static_positions
        and execution in ("indexed", "columnar")
        and len(relations) > 1
    ):
        warm_join_indexes(relations, static_positions, order, execution)
    joined = join_all(relations, strategy=strategy) if relations else Relation.unit()
    derived: set[tuple[Any, ...]] = set()
    head = rule.head
    for row in joined:
        env = dict(zip(joined.attributes, row))
        derived.add(
            tuple(
                env[t.name] if isinstance(t, Var) else t for t in head.terms
            )
        )
    return derived


def seminaive_closure(
    program: Program,
    values: Facts,
    delta: Facts,
    strategy: str | None = None,
    cache: Any = None,
    static: frozenset[str] = frozenset(),
    first_round: int = 1,
) -> int:
    """Run semi-naive delta rounds until no rule derives a new fact.

    ``values`` maps every predicate (EDB and IDB) to its current value and
    is updated **in place**; ``delta`` maps predicates to the facts that are
    *new* relative to the previous state — in a from-scratch evaluation
    these are the round-0 IDB derivations, in incremental maintenance
    (:mod:`repro.datalog.incremental`) they are freshly inserted EDB facts
    and rederivation seeds.  Per round, each rule is instantiated once per
    body atom whose predicate has a delta, with that atom reading the delta
    value only — the classical "at least one new fact per derivation"
    argument, which is what lets an update batch touch only the affected
    part of the fixpoint.  Returns the number of delta rounds run.
    """
    idbs = program.idb_predicates()
    rounds = 0
    delta = {p: frozenset(v) for p, v in delta.items()}
    while any(delta.values()):
        with span("datalog.round", round=first_round + rounds) as sp:
            next_delta: dict[str, set[tuple[Any, ...]]] = {idb: set() for idb in idbs}
            for rule in program.rules:
                delta_positions = [
                    i for i, atom in enumerate(rule.body) if atom.predicate in delta
                ]
                for pos in delta_positions:
                    derived = _apply_rule(
                        rule,
                        values,
                        delta_atom_index=pos,
                        delta=delta,
                        strategy=strategy,
                        cache=cache,
                        static=static,
                    )
                    next_delta[rule.head.predicate] |= derived
            delta = {
                idb: frozenset(next_delta[idb] - values[idb]) for idb in idbs
            }
            for idb in idbs:
                values[idb] = values[idb] | delta[idb]
            if sp:
                sp.note(rows=sum(len(d) for d in delta.values()))
        rounds += 1
    return rounds


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
        static = frozenset(program.edb_predicates())
        cache: _AtomCache = {}
        changed = True
        rounds = 0
        while changed:
            changed = False
            with span("datalog.round", round=rounds):
                for rule in program.rules:
                    new = _apply_rule(
                        rule, values, strategy=strategy, cache=cache, static=static
                    )
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
        static = frozenset(program.edb_predicates())
        cache: _AtomCache = {}

        # Round 0: rules evaluated on EDBs alone (IDB atoms are empty, so only
        # rules whose bodies are EDB-only can fire).
        delta: Facts = {idb: frozenset() for idb in idbs}
        with span("datalog.round", round=0) as sp:
            for rule in program.rules:
                new = _apply_rule(
                    rule, values, strategy=strategy, cache=cache, static=static
                )
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
            static=static,
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
