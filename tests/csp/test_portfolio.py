"""The portfolio solver: routing and correctness."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.width.acyclic
import repro.width.treedecomp
from repro.csp.instance import Constraint, CSPInstance
from repro.csp.solvers import backtracking, brute
from repro.csp.solvers.backtracking import Inference
from repro.csp.solvers.portfolio import Route, explain, is_solvable, solve
from repro.generators.csp_random import coloring_instance, random_binary_csp
from repro.generators.graphs import (
    complete_graph,
    cycle_graph,
    grid_graph,
    partial_ktree,
    path_graph,
    random_graph,
)
from repro.generators.sat import random_horn, random_one_in_three_instance
from repro.dichotomy.cnf import cnf_to_csp
from repro.width.acyclic import is_acyclic
from repro.width.gaifman import constraint_graph, instance_hypergraph
from repro.width.graph import Graph
from repro.width.lowerbounds import degeneracy
from repro.width.treedecomp import treewidth_upper_bound


class TestRouting:
    def test_trivial(self):
        assert explain(CSPInstance([], [0], [])) == Route.TRIVIAL
        assert explain(CSPInstance(["x"], [0, 1], [])) == Route.TRIVIAL

    def test_schaefer_route(self):
        inst = cnf_to_csp(random_horn(5, 8, seed=1))
        assert explain(inst) == Route.SCHAEFER

    def test_coset_route(self):
        from itertools import product

        eq_mod3 = frozenset(
            r for r in product(range(3), repeat=2) if (r[0] + r[1]) % 3 == 1
        )
        # A cyclic constraint graph keeps it away from the acyclic route; a
        # non-Boolean prime domain with coset relations routes to GF(3).
        inst = CSPInstance(
            ["x", "y", "z"],
            range(3),
            [
                Constraint(("x", "y"), eq_mod3),
                Constraint(("y", "z"), eq_mod3),
                Constraint(("x", "z"), eq_mod3),
            ],
        )
        assert explain(inst) == Route.COSET

    def test_acyclic_route(self):
        inst = coloring_instance(path_graph(5), 3)
        assert explain(inst) == Route.ACYCLIC

    def test_treewidth_route(self):
        inst = coloring_instance(cycle_graph(6), 3)
        assert explain(inst) == Route.TREEWIDTH

    def test_search_route(self):
        inst = coloring_instance(complete_graph(7), 3)
        assert explain(inst) == Route.SEARCH

    def test_one_in_three_not_schaefer(self):
        inst = random_one_in_three_instance(6, 4, seed=0)
        assert explain(inst) != Route.SCHAEFER


class TestCorrectness:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: coloring_instance(cycle_graph(5), 2), False),
            (lambda: coloring_instance(cycle_graph(6), 2), True),
            (lambda: coloring_instance(path_graph(5), 2), True),
            (lambda: coloring_instance(complete_graph(4), 3), False),
            (lambda: coloring_instance(partial_ktree(10, 2, 0.9, seed=3), 3), None),
        ],
    )
    def test_workloads(self, builder, expected):
        inst = builder()
        verdict = is_solvable(inst)
        if expected is None:
            expected = brute.is_solvable(inst) if len(inst.variables) <= 10 else verdict
        assert verdict == expected
        solution = solve(inst)
        if solution is not None:
            assert inst.normalize().is_solution(solution)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        inst = random_binary_csp(5, 3, 6, 0.3 + (seed % 5) * 0.12, seed=seed)
        assert is_solvable(inst) == brute.is_solvable(inst)

    def test_trivial_solutions(self):
        assert solve(CSPInstance([], [0], [])) == {}
        assert solve(CSPInstance(["x"], [0, 1], [])) == {"x": 0}
        assert solve(CSPInstance(["x"], [], [])) is None


@st.composite
def tiny_instances(draw):
    n = draw(st.integers(1, 4))
    variables = list(range(n))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        arity = draw(st.integers(1, min(2, n)))
        scope = tuple(draw(st.permutations(variables))[:arity])
        rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * arity), max_size=4))
        constraints.append(Constraint(scope, rows))
    return CSPInstance(variables, [0, 1], constraints)


@settings(max_examples=60, deadline=None)
@given(tiny_instances())
def test_portfolio_property(instance):
    assert is_solvable(instance) == brute.is_solvable(instance)
    solution = solve(instance)
    if solution is not None:
        assert instance.normalize().is_solution(solution)


@pytest.mark.parametrize(
    "instance",
    [
        CSPInstance(["x", "y"], [1, 2], [Constraint(("x",), [(1,)])]),
        CSPInstance(["x", "y", "z"], [1, 2], [Constraint(("x", "y"), [(1, 2)])]),
    ],
    ids=["x-fixed-y-free", "xy-fixed-z-free"],
)
def test_strict_prime_subdomain_with_a_free_variable(instance):
    """Domain {1, 2} lies inside Z_3 but is not Z_3, so it must not take
    the GF(3) route: elimination gives free variables 0."""
    assert explain(instance) != Route.COSET
    solution = solve(instance)
    assert solution is not None and instance.is_solution(solution)


@st.composite
def subdomain_instances(draw):
    """Instances over a non-empty sub-domain of {0, 1, 2}, arities 1–3."""
    values = sorted(draw(st.sets(st.integers(0, 2), min_size=1)))
    n = draw(st.integers(1, 4))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        arity = draw(st.integers(1, min(3, n)))
        scope = tuple(draw(st.permutations(range(n)))[:arity])
        rows = draw(st.lists(st.tuples(*[st.sampled_from(values)] * arity), max_size=6))
        constraints.append(Constraint(scope, rows))
    return CSPInstance(range(n), values, constraints)


@settings(max_examples=150, deadline=None)
@given(subdomain_instances())
def test_portfolio_on_subdomains_matches_brute(instance):
    solution = solve(instance)
    assert (solution is not None) == brute.is_solvable(instance)
    if solution is not None:
        assert instance.is_solution(solution)


@pytest.mark.parametrize("colors", [4, 5], ids=["unsat", "sat"])
def test_search_accepts_rows_with_equal_non_int_values(colors):
    """A row may hold 1.0 for the domain value 1 (instances read from JSON
    do): the bitset engines must encode it by equality, like the set-based
    engines read it."""
    k5 = coloring_instance(complete_graph(5), colors)
    first, *rest = k5.constraints
    floats = Constraint(first.scope, [tuple(map(float, row)) for row in first.relation])
    inst = CSPInstance(k5.variables, k5.domain, [floats, *rest])
    assert explain(inst) == Route.SEARCH
    solution = solve(inst)
    assert (solution is not None) == brute.is_solvable(inst) == (colors == 5)
    if solution is not None:
        assert inst.is_solution(solution)
    trees = {
        strategy: backtracking.solve_with_stats(inst, Inference.MAC, strategy)
        for strategy in ("residual", "interned", "columnar")
    }
    assert len({(s.nodes, s.backtracks, s.prunings) for s in trees.values()}) == 1
    assert all(s.solution == solution for s in trees.values())


# -- the degeneracy gate in explain ---------------------------------------------

#: Relations over {0, 1, 2} that are neither Boolean nor cosets (a coset of
#: Z_3^r has 3^k rows, and these have 2, 6 and 24), so only the structural
#: tests decide the route.
GATE_RELATIONS = {
    1: [(0,), (1,)],
    2: [r for r in product(range(3), repeat=2) if r[0] != r[1]],
    3: [r for r in product(range(3), repeat=3) if len(set(r)) > 1],
}


@st.composite
def hypergraphs(draw):
    """``(vertices, scopes)``: the edges of a forest, a cycle, a partial
    k-tree, a grid or a dense graph, each kept as a binary scope or grown by
    a third vertex, plus a few unary scopes.  Grids have degeneracy 2 but
    treewidth up to 3, so the heuristics run and still fail a cutoff of 2."""
    n = draw(st.integers(3, 9))
    family = draw(st.sampled_from(("forest", "cycle", "ktree", "grid", "dense")))
    seed = draw(st.integers(0, 2**16))
    if family == "forest":
        rng = random.Random(seed)
        graph = Graph(
            vertices=range(n),
            edges=[(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8],
        )
    elif family == "cycle":
        graph = cycle_graph(n)
    elif family == "ktree":
        graph = partial_ktree(n, draw(st.integers(1, 4)), 0.8, seed=seed)
    elif family == "grid":
        graph = grid_graph(draw(st.integers(1, 3)), 3)
    else:
        graph = random_graph(n, draw(st.floats(0.6, 1.0)), seed=seed)
    vertices = sorted(graph.vertices)
    scopes = []
    for u, v in sorted(graph.edges()):
        if draw(st.booleans()):
            scopes.append(tuple(dict.fromkeys((u, v, draw(st.sampled_from(vertices))))))
        else:
            scopes.append((u, v))
    scopes += [(v,) for v in draw(st.lists(st.sampled_from(vertices), max_size=2))]
    return vertices, scopes


@st.composite
def acyclic_hypergraphs(draw):
    """``(vertices, scopes)`` grown along a join tree: each new scope keeps
    part of an earlier one and adds fresh vertices, so the hypergraph is
    α-acyclic by construction."""
    scopes = [tuple(range(draw(st.integers(1, 3))))]
    n = len(scopes[0])
    for _ in range(draw(st.integers(0, 8))):
        parent = draw(st.sampled_from(scopes))
        kept = draw(st.lists(st.sampled_from(parent), unique=True, max_size=2))
        size = draw(st.integers(max(1, len(kept)), 3))
        scopes.append(tuple(kept) + tuple(range(n, n + size - len(kept))))
        n += size - len(kept)
    return range(n), scopes


def gate_instance(hypergraph) -> CSPInstance:
    vertices, scopes = hypergraph
    return CSPInstance(
        vertices, range(3), [Constraint(s, GATE_RELATIONS[len(s)]) for s in scopes]
    )


def ungated_route(instance: CSPInstance, width_cutoff: int) -> str:
    """The structural routing with no gate, for :data:`GATE_RELATIONS`
    instances (never Schaefer, never coset)."""
    instance = instance.normalize()
    if not instance.constraints:
        return Route.TRIVIAL
    if is_acyclic([e for e in instance_hypergraph(instance) if e]):
        return Route.ACYCLIC
    if treewidth_upper_bound(constraint_graph(instance)) <= width_cutoff:
        return Route.TREEWIDTH
    return Route.SEARCH


any_hypergraph = st.one_of(hypergraphs(), acyclic_hypergraphs())


@settings(max_examples=200, deadline=None)
@given(any_hypergraph, st.integers(-1, 1))
def test_degeneracy_gate_keeps_every_route(hypergraph, shift):
    """Cutoffs just below, at and just above the degeneracy: the treewidth
    gate skips, or the heuristics run and pass or fail."""
    inst = gate_instance(hypergraph)
    width_cutoff = max(0, degeneracy(constraint_graph(inst)) + shift)
    assert explain(inst, width_cutoff) == ungated_route(inst, width_cutoff)


@settings(max_examples=100, deadline=None)
@given(any_hypergraph)
def test_degeneracy_bounds_the_heuristic_width(hypergraph):
    graph = constraint_graph(gate_instance(hypergraph))
    assert degeneracy(graph) <= treewidth_upper_bound(graph)


@settings(max_examples=100, deadline=None)
@given(acyclic_hypergraphs())
def test_acyclic_degeneracy_is_below_the_largest_edge(hypergraph):
    inst = gate_instance(hypergraph)
    edges = [e for e in instance_hypergraph(inst) if e]
    assert is_acyclic(edges)
    assert degeneracy(constraint_graph(inst)) < max(map(len, edges))


def test_empty_scopes_alone_stay_acyclic():
    """Constraints with empty scopes give no hyperedges, and the empty
    hypergraph is acyclic although its degeneracy 0 is not below an arity."""
    inst = CSPInstance(["x", "y"], range(4), [Constraint((), [()])])
    assert explain(inst) == ungated_route(inst, 3) == Route.ACYCLIC


@pytest.mark.parametrize(
    "graph,width_cutoff,gyo,heuristic,route",
    [
        (path_graph(6), 3, True, False, Route.ACYCLIC),
        (cycle_graph(6), 3, False, True, Route.TREEWIDTH),
        (grid_graph(3, 3), 2, False, True, Route.SEARCH),
        (complete_graph(6), 3, False, False, Route.SEARCH),
    ],
    ids=["path", "cycle", "grid", "clique"],
)
def test_gate_skips_the_tests_it_certifies(
    monkeypatch, graph, width_cutoff, gyo, heuristic, route
):
    """Degeneracy ≥ the largest scope skips GYO, and degeneracy above the
    cutoff skips the heuristics; the route is unchanged."""
    calls = []
    for module, name in (
        (repro.width.acyclic, "is_acyclic"),
        (repro.width.treedecomp, "treewidth_upper_bound"),
    ):
        original = getattr(module, name)

        def counted(arg, original=original, name=name):
            calls.append(name)
            return original(arg)

        monkeypatch.setattr(module, name, counted)
    inst = gate_instance((sorted(graph.vertices), sorted(graph.edges())))
    assert explain(inst, width_cutoff) == route
    assert ("is_acyclic" in calls) == gyo
    assert ("treewidth_upper_bound" in calls) == heuristic
