"""The direct containment search against two independent oracles, and the
laws ``minimize`` must keep.

``containment_homomorphism`` searches the two bodies' atoms directly.  It
must agree with evaluation on the canonical database (``is_contained_in``)
and with a structure homomorphism between the canonical databases
(``find_homomorphism``), and its witness must be a homomorphism of those
databases.  ``minimize`` must return a core: equivalent to the query under
the evaluation oracle, with no atom the oracle could still drop, and with
one ``canonical_key`` across scrambled variants.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.canonical import canonical_database, canonical_key
from repro.cq.containment import (
    containment_homomorphism,
    is_contained_in,
    minimize,
)
from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.relational.homomorphism import find_homomorphism, is_homomorphism

VARIABLES = [Var(n) for n in "XYZW"]
CONSTANTS = [0, 1]
#: predicate -> arities it may be drawn with; ``E`` at arity 3 makes the
#: arity clashes.
PREDICATES = {"E": (2, 2, 2, 3), "F": (1,)}


@st.composite
def bodies(draw, clash: bool):
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        predicate = draw(st.sampled_from(sorted(PREDICATES)))
        arities = PREDICATES[predicate] if clash else PREDICATES[predicate][:1]
        arity = draw(st.sampled_from(arities))
        terms = draw(
            st.lists(
                st.sampled_from(VARIABLES + CONSTANTS)
                | st.sampled_from(VARIABLES),
                min_size=arity,
                max_size=arity,
            )
        )
        atoms.append(Atom(predicate, terms))
    return atoms


def _consistent(body) -> bool:
    arities: dict = {}
    return all(arities.setdefault(a.predicate, a.arity) == a.arity for a in body)


@st.composite
def queries(draw, head_length: int, clash: bool = False):
    body = draw(bodies(clash).filter(_consistent))
    variables = sorted({v for a in body for v in a.variables()})
    if head_length and not variables:
        body.append(Atom("F", (VARIABLES[0],)))
        variables = [VARIABLES[0]]
    head = [draw(st.sampled_from(variables)) for _ in range(head_length)]
    return ConjunctiveQuery("Q", head, body)


@st.composite
def query_pairs(draw):
    k = draw(st.integers(0, 2))
    clash = draw(st.booleans())
    return draw(queries(k, clash)), draw(queries(k, clash))


def canonical_pair(q1, q2):
    """The canonical databases of both queries over one vocabulary, or
    ``None`` on an arity clash."""
    arities = dict(q1.predicates())
    for name, arity in q2.predicates().items():
        if arities.setdefault(name, arity) != arity:
            return None
    shared = {t for q in (q1, q2) for a in q.body for t in a.constants()}
    db1 = canonical_database(q1, extra_predicates=arities, constants=shared)
    db2 = canonical_database(q2, extra_predicates=arities, constants=shared)
    return db1, db2


@settings(max_examples=400, deadline=None)
@given(query_pairs())
def test_three_deciders_agree_and_witnesses_are_homomorphisms(pair):
    q1, q2 = pair
    witness = containment_homomorphism(q1, q2)
    assert (witness is not None) == is_contained_in(q1, q2)
    databases = canonical_pair(q1, q2)
    if databases is None:
        assert witness is None
        return
    db1, db2 = databases
    assert (witness is not None) == (find_homomorphism(db2, db1) is not None)
    if witness is not None:
        assert is_homomorphism(witness, db2, db1)


def test_repeated_head_variable_with_two_targets_has_no_witness():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    q1 = ConjunctiveQuery("Q", (x, y), [Atom("E", (x, y)), Atom("E", (x, x))])
    q2 = ConjunctiveQuery("Q", (z, z), [Atom("E", (z, z))])
    assert containment_homomorphism(q1, q2) is None
    assert not is_contained_in(q1, q2)
    # The other way round the repeated head is the *target*: Z ↦ X twice.
    assert containment_homomorphism(q2, q1) == {x: z, y: z}


def drop_loop_core(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The textbook core: drop an atom whenever the evaluation oracle says
    the rest is still equivalent, until none can go."""
    body = list(query.body)
    changed = True
    while changed:
        changed = False
        for i in range(len(body)):
            candidate = _drop(query, body, i)
            if candidate is not None and _oracle_equivalent(candidate, query):
                body = list(candidate.body)
                changed = True
                break
    return ConjunctiveQuery(query.head_name, query.distinguished, body)


def _drop(query, body, i):
    rest = body[:i] + body[i + 1 :]
    variables = {v for a in rest for v in a.variables()}
    if not rest or not set(query.distinguished) <= variables:
        return None
    return ConjunctiveQuery(query.head_name, query.distinguished, rest)


def _oracle_equivalent(a, b) -> bool:
    return is_contained_in(a, b) and is_contained_in(b, a)


def scramble(query: ConjunctiveQuery, rng: random.Random) -> ConjunctiveQuery:
    names = {v: Var(f"S{i}_{rng.randrange(10**6)}") for i, v in enumerate(query.variables())}
    body = [
        Atom(a.predicate, [names.get(t, t) if isinstance(t, Var) else t for t in a.terms])
        for a in query.body
    ]
    rng.shuffle(body)
    return ConjunctiveQuery("R", [names[v] for v in query.distinguished], body)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2).flatmap(queries), st.integers(0, 2**16))
def test_minimize_returns_the_core(query, seed):
    core = minimize(query)
    assert isinstance(core, ConjunctiveQuery)
    assert core.distinguished == query.distinguished
    assert set(core.body) <= set(query.body)
    assert _oracle_equivalent(core, query)
    body = list(core.body)
    for i in range(len(body)):
        candidate = _drop(core, body, i)
        assert candidate is None or not _oracle_equivalent(candidate, query)
    key = canonical_key(core)
    assert key == canonical_key(drop_loop_core(query))
    rng = random.Random(seed)
    for _ in range(3):
        assert canonical_key(minimize(scramble(query, rng))) == key


def test_redundant_chain_folds_with_propagation():
    """24 atoms — a 6-chain with three detours per node — fold to the bare
    chain; the refutations of the chain atoms are where an unpropagated
    search goes exponential."""
    chain = [Atom("E", (Var(f"X{i}"), Var(f"X{i + 1}"))) for i in range(6)]
    detours = [
        Atom("E", (Var(f"X{i}"), Var(f"Y{i}_{j}"))) for i in range(6) for j in range(3)
    ]
    query = ConjunctiveQuery("Q", (Var("X0"),), chain + detours)
    core = minimize(query)
    assert len(core.body) == 6
    assert canonical_key(core) == canonical_key(
        ConjunctiveQuery("Q", (Var("X0"),), chain)
    )
