"""E2 — Propositions 2.2/2.3: containment ⟺ canonical-db evaluation ⟺
homomorphism.

Workload: chain, star, and cycle-pattern conjunctive queries of growing
size.  Both deciders are timed and asserted to agree; the
evaluation-based decider is expected to track the homomorphism-based one
closely (they do the same search in different clothes — Prop 2.2).
"""

import pytest

from repro.cq.containment import (
    are_equivalent,
    is_contained_in,
    is_contained_in_via_homomorphism,
    minimize,
)
from repro.cq.query import Atom, ConjunctiveQuery, Var


def chain_query(n):
    atoms = [Atom("E", (Var(f"X{i}"), Var(f"X{i+1}"))) for i in range(n)]
    return ConjunctiveQuery("Q", (Var("X0"),), atoms)


def star_query(n):
    atoms = [Atom("E", (Var("C"), Var(f"L{i}"))) for i in range(n)]
    return ConjunctiveQuery("Q", (Var("C"),), atoms)


def cycle_query(n):
    atoms = [Atom("E", (Var(f"X{i}"), Var(f"X{(i+1) % n}"))) for i in range(n)]
    return ConjunctiveQuery("Q", (), atoms)


PAIRS = {
    "chains": [(chain_query(a), chain_query(b)) for a, b in [(4, 3), (6, 4), (8, 5)]],
    "stars": [(star_query(a), star_query(b)) for a, b in [(3, 4), (5, 3), (6, 6)]],
    "cycles": [(cycle_query(a), cycle_query(b)) for a, b in [(4, 8), (6, 3), (5, 10)]],
}


@pytest.mark.benchmark(group="E2 containment")
@pytest.mark.parametrize("family", sorted(PAIRS))
def test_e2_containment_via_evaluation(benchmark, family):
    pairs = PAIRS[family]
    verdicts = benchmark(lambda: [is_contained_in(q1, q2) for q1, q2 in pairs])
    expected = [is_contained_in_via_homomorphism(q1, q2) for q1, q2 in pairs]
    assert verdicts == expected, "Proposition 2.2 violated"


@pytest.mark.benchmark(group="E2 containment")
@pytest.mark.parametrize("family", sorted(PAIRS))
def test_e2_containment_via_homomorphism(benchmark, family):
    pairs = PAIRS[family]
    benchmark(lambda: [is_contained_in_via_homomorphism(q1, q2) for q1, q2 in pairs])


def redundant_chain(n, copies):
    """A length-``n`` chain with ``copies`` fresh-variable detours hanging
    off each node — every detour folds onto the chain, so minimization must
    strip all of them through the O(m²) drop loop."""
    atoms = [Atom("E", (Var(f"X{i}"), Var(f"X{i+1}"))) for i in range(n)]
    for i in range(n):
        for j in range(copies):
            atoms.append(Atom("E", (Var(f"X{i}"), Var(f"Y{i}_{j}"))))
    return ConjunctiveQuery("Q", (Var("X0"),), atoms)


@pytest.mark.benchmark(group="E2 minimization")
@pytest.mark.parametrize("n,copies", [(3, 1), (4, 2), (6, 3)])
def test_e2_minimize_redundant_chain(benchmark, n, copies):
    """Minimization by one propagating retraction search per drop.  (6, 3)
    folds 24 atoms down to 6: refuting a chain atom's drop is where a
    search without arc consistency goes exponential."""
    query = redundant_chain(n, copies)
    core = benchmark(lambda: minimize(query))
    # The detours fold onto the chain: the core is the bare chain.
    assert len(core.body) == n
    assert are_equivalent(core, query)


@pytest.mark.benchmark(group="E2 known-verdicts")
def test_e2_ground_truth(benchmark):
    def run():
        return (
            is_contained_in(chain_query(6), chain_query(4)),   # longer ⊆ shorter
            is_contained_in(chain_query(4), chain_query(6)),
            is_contained_in(cycle_query(6), cycle_query(3)),
            is_contained_in(cycle_query(3), cycle_query(6)),   # C6 wraps onto C3
        )

    verdicts = benchmark(run)
    assert verdicts == (True, False, False, True)
