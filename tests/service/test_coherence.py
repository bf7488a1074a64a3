"""The cache-coherence wall: under any interleaving of asks and update
batches, every answer :class:`QueryService` serves equals uncached
evaluation over a from-scratch fixpoint of the current EDB — whichever
cache tier served it.

A hypothesis state machine drives one service per run.  Its rules ask
scrambled variants of query templates (constants, repeated head
variables, a Boolean head and a cyclic body among them), ask head-prefix
projections of earlier queries, and apply random insert/delete batches
(no-ops, re-inserts and deletes of absent facts included).  After every
step it checks that the maintained state is the from-scratch state, that
``generation`` bumped exactly when a batch dirtied a predicate, and that
``engine.as_structure()`` equals the validating ``Structure`` built from
the engine's current values, domain included.
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cq.evaluate import evaluate
from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.datalog.engine import evaluate_seminaive
from repro.datalog.library import transitive_closure_program
from repro.datalog.parser import parse_program
from repro.relational.structure import Structure, Vocabulary
from repro.service.core import QueryService

NODES = 6

#: A non-recursive program over two EDB predicates.
NONREC = parse_program(
    """
    H(X, Z) :- E(X, Y), E(Y, Z).
    M(X, Z) :- H(X, Z), L(X).
    """,
    goal="M",
)


def _q(head: str, *atoms: str) -> ConjunctiveQuery:
    """A query from compact notation: upper-case terms are variables,
    digits are constants (``_q("XY", "EXY")`` is ``Q(X, Y) :- E(X, Y)``)."""

    def term(ch: str):
        return int(ch) if ch.isdigit() else Var(ch)

    return ConjunctiveQuery(
        "Q",
        [Var(v) for v in head],
        [Atom(a[0], [term(t) for t in a[1:]]) for a in atoms],
    )


TC_TEMPLATES = (
    _q("XY", "TXY"),
    _q("XZ", "EXY", "EYZ"),
    _q("XZ", "EXY", "TYZ"),
    _q("X", "EXY", "EYZ", "EZX"),  # cyclic body
    _q("Y", "T1Y"),  # constant
    _q("X", "EX2", "TXY"),
    _q("XX", "TXY"),  # repeated head variable
    _q("YXY", "EXY", "TYZ"),
    _q("", "TXX"),  # Boolean head
    _q("", "EXY", "EYX"),
)

NONREC_TEMPLATES = (
    _q("XZ", "HXZ"),
    _q("X", "MXZ", "LX"),
    _q("Z", "H1Z"),  # constant
    _q("XX", "HXY"),  # repeated head variable
    _q("", "EXY", "EYX"),  # Boolean head
    _q("XYZ", "EXY", "EYZ", "HZX"),  # cyclic body
    _q("XY", "EXY", "LX", "LY"),
)


def scramble(query: ConjunctiveQuery, rng: random.Random) -> ConjunctiveQuery:
    """An equivalent rewrite: fresh variable names, a shuffled body and,
    half the time, a redundant copy of an atom with one variable
    generalized to a fresh existential one."""
    names = {v: Var(f"V{rng.randrange(10**6)}_{i}") for i, v in enumerate(query.variables())}

    def rename(t):
        return names[t] if isinstance(t, Var) else t

    body = [Atom(a.predicate, [rename(t) for t in a.terms]) for a in query.body]
    rng.shuffle(body)
    if rng.random() < 0.5:
        source = rng.choice(body)
        slots = [i for i, t in enumerate(source.terms) if isinstance(t, Var)]
        if slots:
            terms = list(source.terms)
            terms[rng.choice(slots)] = Var(f"W{rng.randrange(10**6)}")
            body.append(Atom(source.predicate, terms))
    return ConjunctiveQuery(
        f"Q{rng.randrange(100)}", [rename(v) for v in query.distinguished], body
    )


def materialize(program, edb: dict) -> Structure:
    """The from-scratch state: the EDB plus its semi-naive fixpoint, as a
    freshly validated structure (no memoized derivations)."""
    values = {p: frozenset(rows) for p, rows in edb.items()}
    values.update(evaluate_seminaive(program, values))
    domain = {v for rows in values.values() for row in rows for v in row}
    return Structure(Vocabulary(program.arities()), domain, values)


rows2 = st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1))
rows1 = st.tuples(st.integers(0, NODES - 1))


class CoherenceMachine(RuleBasedStateMachine):
    """One service, a mirror of its EDB, and the queries asked so far."""

    program = transitive_closure_program()
    templates = TC_TEMPLATES
    #: EDB predicate -> row strategy.
    edb = {"E": rows2}

    def __init__(self) -> None:
        super().__init__()
        self.state: dict[str, set] = {}
        self.asked: list[ConjunctiveQuery] = []
        self.service: QueryService | None = None

    @initialize(data=st.data())
    def build(self, data) -> None:
        self.state = {
            p: set(data.draw(st.sets(rows, max_size=2 * NODES), label=p))
            for p, rows in self.edb.items()
        }
        self.service = QueryService(
            self.program, {p: set(rows) for p, rows in self.state.items()}
        )

    def check_answer(self, query: ConjunctiveQuery) -> None:
        answer = self.service.ask(query)
        expected = evaluate(query, materialize(self.program, self.state))
        assert answer.result == expected, (answer.outcome, query)
        self.asked.append(query)

    @rule(index=st.integers(0, 64), seed=st.integers(0, 2**16))
    def ask_variant(self, index: int, seed: int) -> None:
        template = self.templates[index % len(self.templates)]
        self.check_answer(scramble(template, random.Random(seed)))

    @precondition(lambda self: any(q.distinguished for q in self.asked))
    @rule(pick=st.integers(0, 2**16), cut=st.integers(0, 8))
    def ask_projection(self, pick: int, cut: int) -> None:
        headed = [q for q in self.asked if q.distinguished]
        query = headed[pick % len(headed)]
        prefix = query.distinguished[: cut % len(query.distinguished)]
        self.check_answer(ConjunctiveQuery("P", prefix, query.body))

    @rule(data=st.data())
    def update(self, data) -> None:
        inserts: dict[str, set] = {}
        deletes: dict[str, set] = {}
        for p, rows in self.edb.items():
            present = sorted(self.state[p])
            ins = set(data.draw(st.sets(rows, max_size=3), label=f"insert {p}"))
            dels = set(data.draw(st.sets(rows, max_size=2), label=f"delete {p}"))
            if present:
                # Re-inserts of present facts and deletes of present ones.
                ins |= set(data.draw(st.sets(st.sampled_from(present), max_size=2)))
                dels |= set(data.draw(st.sets(st.sampled_from(present), max_size=3)))
            if ins:
                inserts[p] = ins
            if dels:
                deletes[p] = dels
        before = materialize(self.program, self.state)
        for p in self.edb:
            self.state[p] = (self.state[p] - deletes.get(p, set())) | inserts.get(p, set())
        after = materialize(self.program, self.state)
        generation = self.service.generation
        report = self.service.update(inserts=inserts, deletes=deletes)
        dirty = {p for p in after.vocabulary if after.relation(p) != before.relation(p)}
        assert report.dirty == dirty
        assert self.service.generation == generation + (1 if dirty else 0)

    @invariant()
    def maintained_state_is_from_scratch(self) -> None:
        if self.service is None:
            return
        engine = self.service.engine
        expected = materialize(self.program, self.state)
        for p in expected.vocabulary:
            assert engine.value(p) == expected.relation(p), p

    @invariant()
    def structure_equals_validating_build(self) -> None:
        if self.service is None:
            return
        engine = self.service.engine
        values = {p: engine.value(p) for p in self.program.arities()}
        domain = {v for rows in values.values() for row in rows for v in row}
        validated = Structure(Vocabulary(self.program.arities()), domain, values)
        structure = engine.as_structure()
        assert structure == validated
        assert structure.domain == validated.domain


class NonRecursiveDRed(CoherenceMachine):
    program = NONREC
    templates = NONREC_TEMPLATES
    edb = {"E": rows2, "L": rows1}


WALL = settings(max_examples=25, stateful_step_count=20, deadline=None)

TestDRedTransitiveClosure = CoherenceMachine.TestCase
TestDRedTransitiveClosure.settings = WALL
TestDRedNonRecursive = NonRecursiveDRed.TestCase
TestDRedNonRecursive.settings = WALL
