"""Cross-solver differential tests: every solver decides the same problem.

Proposition 2.1 (join evaluation), Theorem 4.7 (k-consistency), and
Theorem 6.2 (tree decomposition) are all exercised against the brute-force
oracle and against each other.
"""

import gc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.propagation import PROPAGATION_STRATEGIES
from repro.csp.instance import Constraint, CSPInstance
from repro.csp.solvers import backtracking, brute, consistency, decomposition, join, portfolio
from repro.csp.solvers.backtracking import Inference
from repro.csp.solvers.consistency import Verdict
from repro.errors import UnsatisfiableError
from repro.generators.csp_random import coloring_instance, random_binary_csp
from repro.generators.graphs import cycle_graph, complete_graph, path_graph

NE2 = {(0, 1), (1, 0)}


def triangle_2col():
    return CSPInstance(
        ["a", "b", "c"],
        [0, 1],
        [Constraint(s, NE2) for s in [("a", "b"), ("b", "c"), ("a", "c")]],
    )


class TestBrute:
    def test_unsolvable(self):
        assert brute.solve(triangle_2col()) is None

    def test_counts(self):
        path = CSPInstance(
            ["a", "b"], [0, 1], [Constraint(("a", "b"), NE2)]
        )
        assert brute.count_solutions(path) == 2

    def test_no_constraints(self):
        inst = CSPInstance(["x"], [0, 1], [])
        assert brute.count_solutions(inst) == 2


class TestBacktracking:
    @pytest.mark.parametrize("inference", list(Inference))
    def test_unsolvable_all_inference_levels(self, inference):
        assert backtracking.solve(triangle_2col(), inference) is None

    @pytest.mark.parametrize("inference", list(Inference))
    def test_solvable_all_inference_levels(self, inference):
        inst = coloring_instance(cycle_graph(5), 3)
        solution = backtracking.solve(inst, inference)
        assert solution is not None
        assert inst.is_solution(solution)

    def test_stats_reported(self):
        stats = backtracking.solve_with_stats(triangle_2col())
        assert stats.solution is None
        assert stats.nodes > 0

    def test_mac_prunes_more_than_plain(self):
        inst = coloring_instance(complete_graph(4), 3)  # unsolvable
        plain = backtracking.solve_with_stats(inst, Inference.NONE)
        mac = backtracking.solve_with_stats(inst, Inference.MAC)
        assert plain.solution is None and mac.solution is None
        assert mac.nodes <= plain.nodes

    def test_empty_relation_immediately_unsat(self):
        inst = CSPInstance(["x"], [0], [Constraint(("x",), [])])
        for inf in Inference:
            assert backtracking.solve(inst, inf) is None


#: ``(nodes, backtracks, prunings, solution)`` of interned MAC on
#: ``random_binary_csp(20, 6, 60, 15 / 36, seed)``, the csp-solve shape;
#: a solution is written as its values for variables 0..19.
SEARCH_TREE_PINS = {
    0: (20, 0, 92, "42012135102020540431"),
    1: (29, 29, 763, None),
    2: (17, 17, 439, None),
    3: (26, 6, 424, "14252452451400250044"),
    4: (26, 6, 331, "42455032135200325415"),
    5: (42, 22, 516, "45210504351210523311"),
    6: (25, 25, 778, None),
    7: (13, 13, 518, None),
    8: (20, 20, 609, None),
    9: (8, 8, 308, None),
}


@pytest.mark.parametrize("seed", sorted(SEARCH_TREE_PINS))
def test_mac_search_trees_are_pinned(seed):
    """The strategy walls compare engines that share the variable and
    value orders, so a change to those orders passes them.  These trees
    pin the orders themselves."""
    inst = random_binary_csp(20, 6, 60, 15 / 36, seed=seed)
    stats = backtracking.solve_with_stats(inst, Inference.MAC, strategy="interned")
    solution = stats.solution
    if solution is not None:
        solution = "".join(str(solution[v]) for v in range(20))
    assert (stats.nodes, stats.backtracks, stats.prunings, solution) == SEARCH_TREE_PINS[seed]


class TestJoin:
    def test_proposition_2_1_on_triangle(self):
        assert not join.is_solvable(triangle_2col())
        assert join.join_of_constraints(triangle_2col()).tuples == frozenset()

    def test_solution_extraction(self):
        inst = coloring_instance(path_graph(4), 2)
        solution = join.solve(inst)
        assert solution is not None and inst.is_solution(solution)

    def test_unconstrained_variables_filled(self):
        inst = CSPInstance(["x", "y"], [0, 1], [Constraint(("x",), [(1,)])])
        solutions = list(join.all_solutions(inst))
        assert len(solutions) == 2
        assert all(s["x"] == 1 for s in solutions)

    def test_no_constraints(self):
        inst = CSPInstance(["x"], [0, 1], [])
        assert join.is_solvable(inst)
        assert len(list(join.all_solutions(inst))) == 2

    def test_no_variables(self):
        inst = CSPInstance([], [], [])
        assert join.is_solvable(inst)

    def test_require_solution_raises(self):
        with pytest.raises(UnsatisfiableError):
            join.require_solution(triangle_2col())


class TestConsistency:
    def test_triangle_2col_needs_k3(self):
        # Strong 2-consistency holds on the triangle; 3 pebbles refute it.
        assert consistency.solve_decision(triangle_2col(), 2) is Verdict.CONSISTENT
        assert consistency.solve_decision(triangle_2col(), 3) is Verdict.UNSATISFIABLE

    def test_even_cycle_consistent_and_solvable(self):
        inst = coloring_instance(cycle_graph(6), 2)
        assert consistency.solve_decision(inst, 3) is Verdict.CONSISTENT
        assert consistency.is_solvable(inst, 3)

    def test_full_solver_produces_solution(self):
        inst = coloring_instance(path_graph(5), 2)
        solution = consistency.solve(inst, 2)
        assert solution is not None and inst.is_solution(solution)

    def test_refutation_is_sound_on_random_instances(self):
        for seed in range(15):
            inst = random_binary_csp(5, 2, 6, 0.5, seed=seed)
            if consistency.solve_decision(inst, 2) is Verdict.UNSATISFIABLE:
                assert not brute.is_solvable(inst)


class TestDecomposition:
    def test_triangle(self):
        assert decomposition.solve(triangle_2col()) is None

    def test_path_solved(self):
        inst = coloring_instance(path_graph(6), 2)
        solution = decomposition.solve(inst)
        assert solution is not None and inst.is_solution(solution)

    def test_cycle_coloring(self):
        for n, colors, expected in [(5, 2, False), (6, 2, True), (5, 3, True)]:
            inst = coloring_instance(cycle_graph(n), colors)
            assert decomposition.is_solvable(inst) == expected

    def test_unconstrained_variable(self):
        inst = CSPInstance(["x", "y"], [0, 1], [Constraint(("x",), [(0,)])])
        solution = decomposition.solve(inst)
        assert solution is not None and solution["x"] == 0 and "y" in solution

    def test_empty_variables(self):
        assert decomposition.solve(CSPInstance([], [], [])) == {}


ALL_DECIDERS = [
    ("brute", brute.is_solvable),
    ("backtracking-none", lambda i: backtracking.is_solvable(i, Inference.NONE)),
    ("backtracking-fc", lambda i: backtracking.is_solvable(i, Inference.FORWARD_CHECKING)),
    ("backtracking-mac", lambda i: backtracking.is_solvable(i, Inference.MAC)),
    ("join", join.is_solvable),
    ("consistency-k2", lambda i: consistency.is_solvable(i, 2)),
    ("decomposition", decomposition.is_solvable),
]


@pytest.mark.parametrize("seed", range(12))
def test_all_solvers_agree_on_random_instances(seed):
    inst = random_binary_csp(
        n_variables=5, domain_size=3, n_constraints=6, tightness=0.4 + (seed % 4) * 0.1,
        seed=seed,
    )
    expected = brute.is_solvable(inst)
    for name, decide in ALL_DECIDERS:
        assert decide(inst) == expected, name


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


@settings(max_examples=50, deadline=None)
@given(tiny_instances())
def test_solvers_agree_property(instance):
    expected = brute.is_solvable(instance)
    assert join.is_solvable(instance) == expected
    assert backtracking.is_solvable(instance) == expected
    assert decomposition.is_solvable(instance) == expected


@settings(max_examples=50, deadline=None)
@given(tiny_instances())
def test_solutions_produced_are_valid(instance):
    for solver in (backtracking.solve, join.solve, decomposition.solve):
        solution = solver(instance)
        if solution is not None:
            assert instance.normalize().is_solution(solution)


def test_solves_leave_no_cyclic_garbage():
    """A solve is freed by reference counting alone: the search closure does
    not keep its engine, domains and trail alive in a reference cycle."""
    inst = random_binary_csp(12, 4, 30, 0.35, seed=5)
    assert portfolio.explain(inst) == portfolio.Route.SEARCH

    def solve_every_way() -> None:
        portfolio.solve(inst)
        for inference in Inference:
            for strategy in PROPAGATION_STRATEGIES:
                stats = backtracking.solve_with_stats(inst, inference, strategy)
                assert stats.nodes > 0

    solve_every_way()  # first calls may import lazily
    gc.disable()
    try:
        gc.collect()
        solve_every_way()
        assert gc.collect() == 0
    finally:
        gc.enable()
