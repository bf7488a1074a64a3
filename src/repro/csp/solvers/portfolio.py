"""The portfolio solver — structure analysis chooses the algorithm.

The tutorial's whole arc is that tractability comes from *recognizable
structure*: Schaefer templates (§3), Datalog-expressible templates (§4–5),
acyclicity and bounded width (§6).  This module is the operational summary:
:func:`solve` inspects the instance and routes it to the cheapest complete
method that its structure licenses, falling back to conflict-directed
search.

An instance with an empty relation (arity 0 included) is answered
``None`` before routing.  Routing order (first match wins):

1. empty/trivial instances — answered directly;
2. Boolean instances in a Schaefer class — the dedicated polynomial solver;
3. instances over a whole prime field {0..p−1} whose relations are all
   cosets — GF(p) elimination;
4. acyclic constraint hypergraphs — Yannakakis;
5. constraint graphs of small treewidth (heuristic width ≤ ``width_cutoff``)
   — tree-decomposition DP;
6. everything else — MAC backtracking on bitset domains
   (``strategy="interned"``: the same search tree as the default
   ``"residual"`` engine, with revisions as word operations).

Routes 4 and 5 are gated by the constraint graph's degeneracy, computed
once by bucket peeling straight from the scopes (the graph itself is
built only when the treewidth heuristic runs).  A degeneracy at least the
largest arity rules out acyclicity, and one above ``width_cutoff`` rules
out the treewidth route, so the GYO reduction and the elimination
heuristics only run when they can succeed.  The gate never changes a
route.

:func:`explain` returns the route that would be taken, for observability.
"""

from __future__ import annotations

from typing import Any

from repro.csp.instance import CSPInstance

__all__ = ["solve", "is_solvable", "explain", "Route"]

BOOLEAN = frozenset({0, 1})

#: Maximum heuristic treewidth for which the DP route is preferred.
DEFAULT_WIDTH_CUTOFF = 3

_PRIMES = (2, 3, 5, 7, 11, 13)


class Route:
    """Route labels returned by :func:`explain`."""

    TRIVIAL = "trivial"
    SCHAEFER = "schaefer"
    COSET = "coset"
    ACYCLIC = "acyclic-yannakakis"
    TREEWIDTH = "treewidth-dp"
    SEARCH = "backtracking-mac"


def _domain_prime(instance: CSPInstance) -> int | None:
    """The prime p whose field {0..p−1} is exactly the domain, if any.

    GF(p) elimination sets free variables to 0 and may pick any field
    element, so it needs the whole field as the domain.  Over a strict
    subset of the field a coset can only be a single tuple, so no instance
    loses a fast path.
    """
    values = instance.domain
    p = len(values)
    if (
        p in _PRIMES
        and all(isinstance(v, int) for v in values)
        and values == frozenset(range(p))
    ):
        return p
    return None


def explain(instance: CSPInstance, width_cutoff: int = DEFAULT_WIDTH_CUTOFF) -> str:
    """The route :func:`solve` would take, without solving.

    The constraint graph's degeneracy gates the two structural tests
    without changing any route.  Degeneracy ≤ treewidth ≤ the heuristic
    bound, so a degeneracy above ``width_cutoff`` rules out the treewidth
    route.  An acyclic hypergraph's join tree is a tree decomposition whose
    bags are hyperedges, so its degeneracy is below the largest edge: a
    degeneracy at least that large rules out the acyclic route.
    """
    from repro.dichotomy.coset import is_coset_instance
    from repro.dichotomy.schaefer import classify_instance, is_tractable
    from repro.width.acyclic import is_acyclic
    from repro.width.gaifman import constraint_graph, instance_hypergraph
    from repro.width.lowerbounds import scope_degeneracy
    from repro.width.treedecomp import treewidth_upper_bound

    instance = instance.normalize()
    if not instance.variables or not instance.constraints:
        return Route.TRIVIAL
    if instance.domain <= BOOLEAN and is_tractable(classify_instance(instance)):
        return Route.SCHAEFER
    p = _domain_prime(instance)
    if p is not None and p > 2 and is_coset_instance(instance, p):
        return Route.COSET
    width = scope_degeneracy(
        instance.variables, [c.scope for c in instance.constraints]
    )
    # Normalized scopes have distinct variables: the largest arity is the
    # largest hyperedge, and 0 means there are no non-empty hyperedges.
    largest = instance.max_arity()
    if (largest == 0 or width < largest) and is_acyclic(
        [e for e in instance_hypergraph(instance) if e]
    ):
        return Route.ACYCLIC
    if (
        width <= width_cutoff
        and treewidth_upper_bound(constraint_graph(instance)) <= width_cutoff
    ):
        return Route.TREEWIDTH
    return Route.SEARCH


def solve(
    instance: CSPInstance, width_cutoff: int = DEFAULT_WIDTH_CUTOFF
) -> dict[Any, Any] | None:
    """Solve by the cheapest complete method the structure licenses."""
    from repro.csp.solvers import backtracking, decomposition
    from repro.dichotomy.boolean_solvers import solve_boolean
    from repro.dichotomy.coset import solve_coset_csp
    from repro.width.acyclic import yannakakis_solve

    instance = instance.normalize()
    if any(not c.relation for c in instance.constraints):
        # An empty relation (arity 0 included) has no solution on any route.
        return None
    route = explain(instance, width_cutoff)

    if route == Route.TRIVIAL:
        if not instance.variables:
            return {}
        if not instance.domain:
            return None
        value = sorted(instance.domain, key=repr)[0]
        return {v: value for v in instance.variables}
    if route == Route.SCHAEFER:
        return solve_boolean(instance)
    if route == Route.COSET:
        return solve_coset_csp(instance, _domain_prime(instance))
    if route == Route.ACYCLIC:
        return yannakakis_solve(instance)
    if route == Route.TREEWIDTH:
        return decomposition.solve(instance)
    return backtracking.solve(instance, strategy="interned")


def is_solvable(
    instance: CSPInstance, width_cutoff: int = DEFAULT_WIDTH_CUTOFF
) -> bool:
    """Decide solvability through the portfolio."""
    return solve(instance, width_cutoff) is not None
