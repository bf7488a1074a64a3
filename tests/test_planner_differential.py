"""Differential testing of the join orders and executions.

A strategy names a join *order* and an *execution* (the hash-indexed
kernel, nested-loop scan or leapfrog triejoin); since the
natural join is commutative and associative and every execution implements
the same operator, every order+execution combination must compute the
identical relation.  This suite checks that on ~200 randomly generated
instances:

* conjunctive queries evaluated with the greedy order, the textbook
  (textual) order, and every execution return exactly the same relation;
* Boolean CSP verdicts from the planned join solver agree with the
  brute-force oracle for every strategy and execution.
"""

import random

import pytest

from repro.csp.solvers import brute, join
from repro.cq.evaluate import evaluate, evaluate_boolean
from repro.generators.csp_random import coloring_instance, random_binary_csp
from repro.generators.graphs import cycle_graph, path_graph, random_digraph
from repro.generators.queries import chain_query, random_query, star_query
from repro.relational.planner import EXECUTIONS, STRATEGIES
from repro.relational.structure import Structure

# 240 CQ cases (seeds × head arities) + 81 CSP cases (seeds × tightness)
# + the fixed structured families = ~330 generated instances.  Head arities
# 0 to 3 vary how many body variables the indexed fold can drop before its
# last step.
CQ_SEEDS = range(60)
CSP_SEEDS = range(27)

# Every spec the planner accepts: bare orders, bare executions, and the
# compound order+execution forms.  EXECUTIONS includes "wcoj", so the
# leapfrog triejoin rides the whole matrix automatically.
ALL_SPECS = (
    list(STRATEGIES)
    + list(EXECUTIONS)
    + [f"{order}+{execution}" for order in STRATEGIES for execution in EXECUTIONS]
)

# CQ evaluation additionally accepts "auto" (Yannakakis on acyclic bodies);
# the planner proper rejects it, so it only joins the CQ-level sweeps.
CQ_SPECS = ALL_SPECS + ["auto"]


@pytest.mark.parametrize("head_arity", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", CQ_SEEDS)
def test_random_cq_strategies_agree(seed, head_arity):
    query = random_query(
        n_atoms=2 + seed % 4,
        n_variables=2 + seed % 4,
        seed=seed,
        head_arity=head_arity,
    )
    database = random_digraph(4 + seed % 4, 0.4, seed=seed)
    results = {s: evaluate(query, database, strategy=s) for s in CQ_SPECS}
    assert len(set(results.values())) == 1


def zipf_digraph(n: int, edges: int, seed: int) -> Structure:
    """A digraph whose edge endpoints are drawn with Zipf weights
    1/(rank+1): a few hub nodes hold most of the edges, the skewed degrees
    under which the join order matters most."""
    rng = random.Random(seed)
    weights = [1 / (rank + 1) for rank in range(n)]
    pairs = {tuple(rng.choices(range(n), weights, k=2)) for _ in range(edges)}
    return Structure({"E": 2}, range(n), {"E": [(u, v) for u, v in pairs if u != v]})


@pytest.mark.parametrize("builder", [lambda: chain_query(5), lambda: star_query(4)])
def test_structured_cq_strategies_agree(builder):
    query = builder()
    databases = [random_digraph(6, 0.35, seed=seed) for seed in range(5)]
    for database in [*databases, zipf_digraph(9, 30, seed=0)]:
        results = {s: evaluate(query, database, strategy=s) for s in CQ_SPECS}
        assert len(set(results.values())) == 1


@pytest.mark.parametrize("seed", CQ_SEEDS)
def test_boolean_cq_strategies_agree(seed):
    query = random_query(n_atoms=3 + seed % 3, n_variables=3, seed=1000 + seed)
    database = random_digraph(5, 0.3, seed=seed)
    verdicts = {evaluate_boolean(query, database, strategy=s) for s in CQ_SPECS}
    assert len(verdicts) == 1


@pytest.mark.parametrize("tightness", [0.2, 0.45, 0.7])
@pytest.mark.parametrize("seed", CSP_SEEDS)
def test_csp_join_agrees_with_bruteforce(seed, tightness):
    instance = random_binary_csp(
        n_variables=4 + seed % 3,
        domain_size=2 + seed % 2,
        n_constraints=3 + seed % 5,
        tightness=tightness,
        seed=seed,
    )
    expected = brute.is_solvable(instance)
    for strategy in ALL_SPECS:
        assert join.is_solvable(instance, strategy=strategy) == expected


@pytest.mark.parametrize("colors,expected", [(2, False), (3, True)])
def test_coloring_csp_all_strategies(colors, expected):
    instance = coloring_instance(cycle_graph(7), colors)
    assert brute.is_solvable(instance) == expected
    for strategy in ALL_SPECS:
        assert join.is_solvable(instance, strategy=strategy) == expected
    path = coloring_instance(path_graph(6), 2)
    for strategy in ALL_SPECS:
        assert join.is_solvable(path, strategy=strategy) is True


def test_cyclic_bodies_all_strategies_agree():
    """Explicitly cyclic bodies — triangle, 4-cycle, and a chorded cycle —
    where ``"auto"`` routes to the leapfrog triejoin rather than
    Yannakakis.  Every spec (wcoj included) must return the same relation."""
    from repro.cq.query import Atom, ConjunctiveQuery, Var

    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    cyclic_queries = [
        ConjunctiveQuery(
            "Q", (x, y, z),
            [Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, x))],
        ),
        ConjunctiveQuery(
            "Q", (),
            [Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, w)),
             Atom("E", (w, x))],
        ),
        ConjunctiveQuery(
            "Q", (x, z),
            [Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, x)),
             Atom("E", (x, z))],
        ),
    ]
    for seed in range(6):
        database = random_digraph(6, 0.4, seed=seed)
        for query in cyclic_queries:
            results = {s: evaluate(query, database, strategy=s) for s in CQ_SPECS}
            assert len(set(results.values())) == 1, f"seed {seed}, {query!r}"
            verdicts = {
                evaluate_boolean(query, database, strategy=s) for s in CQ_SPECS
            }
            assert len(verdicts) == 1, f"seed {seed}, {query!r}"


def test_empty_relation_bodies_all_strategies_agree():
    """An atom over an empty relation empties the whole join under every
    spec — including wcoj's early exit and auto's cyclic route."""
    from repro.cq.query import Atom, ConjunctiveQuery, Var
    from repro.relational.structure import Structure

    x, y, z = Var("x"), Var("y"), Var("z")
    database = Structure(
        {"E": 2, "F": 2}, range(4),
        {"E": [(0, 1), (1, 2), (2, 0)], "F": []},
    )
    queries = [
        ConjunctiveQuery("Q", (x, y), [Atom("E", (x, y)), Atom("F", (y, z))]),
        ConjunctiveQuery(
            "Q", (),
            [Atom("E", (x, y)), Atom("E", (y, z)), Atom("F", (z, x))],
        ),
    ]
    for query in queries:
        for s in CQ_SPECS:
            assert len(evaluate(query, database, strategy=s)) == 0, s
            assert evaluate_boolean(query, database, strategy=s) is False, s


def test_single_tuple_bodies_all_strategies_agree():
    """Single-tuple relations: the join either chains to exactly one row or
    to none, identically under every spec."""
    from repro.cq.query import Atom, ConjunctiveQuery, Var
    from repro.relational.structure import Structure

    x, y, z = Var("x"), Var("y"), Var("z")
    query = ConjunctiveQuery(
        "Q", (x, z), [Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, x))]
    )
    hit = Structure({"E": 2}, range(3), {"E": [(0, 0)]})
    miss = Structure({"E": 2}, range(3), {"E": [(0, 1)]})
    for s in CQ_SPECS:
        assert evaluate(query, hit, strategy=s).tuples == {(0, 0)}, s
        assert len(evaluate(query, miss, strategy=s)) == 0, s
        assert evaluate_boolean(query, hit, strategy=s) is True, s
        assert evaluate_boolean(query, miss, strategy=s) is False, s


def test_full_join_relation_identical_across_strategies():
    """Not just the verdict: the full joined relation matches per strategy."""
    for seed in range(10):
        instance = random_binary_csp(
            n_variables=5, domain_size=3, n_constraints=6, tightness=0.4, seed=seed
        )
        joined = {
            s: join.join_of_constraints(instance, strategy=s) for s in ALL_SPECS
        }
        base = joined["textbook"]
        for s in ALL_SPECS:
            assert set(joined[s].attributes) == set(base.attributes)
            # Compare as sets of attribute→value mappings (column order may
            # legitimately differ between plans).
            canon = lambda rel: {
                frozenset(zip(rel.attributes, t)) for t in rel.tuples
            }
            assert canon(joined[s]) == canon(base)
