"""Treewidth lower bounds sandwich the exact value."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.graphs import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
)
from repro.width.graph import Graph
from repro.width.lowerbounds import (
    clique_lower_bound,
    clique_number,
    degeneracy,
    mmd_plus_lower_bound,
    scope_degeneracy,
    treewidth_lower_bound,
)
from repro.width.treedecomp import treewidth_exact, treewidth_upper_bound


class TestDegeneracy:
    def test_known_values(self):
        assert degeneracy(path_graph(5)) == 1
        assert degeneracy(cycle_graph(5)) == 2
        assert degeneracy(complete_graph(4)) == 3
        assert degeneracy(grid_graph(3, 3)) == 2
        assert degeneracy(Graph()) == 0

    def test_isolated_vertices(self):
        assert degeneracy(Graph(vertices=[1, 2, 3])) == 0


class TestCliqueNumber:
    def test_known_values(self):
        assert clique_number(complete_graph(5)) == 5
        assert clique_number(cycle_graph(5)) == 2
        assert clique_number(path_graph(1)) == 1
        assert clique_number(Graph()) == 0

    def test_planted_clique(self):
        g = random_graph(10, 0.2, seed=3)
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v)
        assert clique_number(g) >= 4

    def test_greedy_path_is_a_lower_bound(self):
        g = random_graph(12, 0.5, seed=1)
        exact = clique_number(g, exact_limit=25)
        greedy = clique_number(g, exact_limit=5)
        assert greedy <= exact


class TestBoundsSandwich:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(6), cycle_graph(6), complete_graph(5), grid_graph(3, 3)],
        ids=["path", "cycle", "clique", "grid"],
    )
    def test_named_graphs(self, graph):
        exact = treewidth_exact(graph)
        assert treewidth_lower_bound(graph) <= exact <= treewidth_upper_bound(graph)

    def test_clique_bound_tight_on_cliques(self):
        assert clique_lower_bound(complete_graph(6)) == 5
        assert treewidth_lower_bound(complete_graph(6)) == 5

    def test_mmd_plus_dominates_on_grids(self):
        g = grid_graph(4, 4)
        assert mmd_plus_lower_bound(g) >= degeneracy(g)


edge_sets = st.sets(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]),
    max_size=14,
)


@settings(max_examples=40, deadline=None)
@given(edge_sets)
def test_lower_bound_never_exceeds_exact(edges):
    g = Graph(vertices=range(7), edges=edges)
    assert treewidth_lower_bound(g) <= treewidth_exact(g)


@settings(max_examples=40, deadline=None)
@given(edge_sets)
def test_individual_bounds_valid(edges):
    g = Graph(vertices=range(7), edges=edges)
    exact = treewidth_exact(g)
    assert degeneracy(g) <= exact
    assert clique_lower_bound(g) <= exact
    assert mmd_plus_lower_bound(g) <= exact


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12),
    st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=4), max_size=20),
)
def test_scope_degeneracy_matches_the_graph_definition(n, scopes):
    """Bucket peeling from scopes equals min-degree elimination on the
    constraint graph, isolated vertices (and repeated or self-only scopes)
    included."""
    scopes = [[v % n for v in scope] for scope in scopes]
    graph = Graph(vertices=range(n))
    for scope in scopes:
        for u in scope:
            for v in scope:
                graph.add_edge(u, v)
    assert scope_degeneracy(range(n), scopes) == degeneracy(graph)
    assert scope_degeneracy(range(n), graph.edges()) == degeneracy(graph)
