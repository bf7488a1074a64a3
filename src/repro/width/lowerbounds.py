"""Treewidth lower bounds.

Companions to the exact branch-and-bound and heuristic upper bounds in
:mod:`repro.width.treedecomp`: cheap certified lower bounds sandwich the
exact value in tests, and seed the exact search's pruning.

* **degeneracy** — the maximum over subgraphs of the minimum degree; every
  tree decomposition of width w yields an elimination order with back-degree
  ≤ w, so degeneracy ≤ treewidth (:func:`scope_degeneracy` computes it for
  a constraint graph straight from the scopes, in linear time);
* **clique number** — a clique of size ω must fit inside one bag, so
  ω − 1 ≤ treewidth (exact search for small graphs, greedy otherwise);
* **MMD+** — the "minor-min-degree" improvement of degeneracy: repeatedly
  delete a minimum-degree vertex after *contracting* it into its
  least-degree neighbour; contraction preserves minors, and treewidth is
  minor-monotone.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Hashable, Iterable, Sequence

from repro.width.graph import Graph

__all__ = [
    "degeneracy",
    "scope_degeneracy",
    "clique_number",
    "clique_lower_bound",
    "mmd_plus_lower_bound",
    "treewidth_lower_bound",
]


def degeneracy(graph: Graph) -> int:
    """The degeneracy: max over elimination of the minimum degree (0 for the
    empty graph)."""
    work = graph.copy()
    best = 0
    while work.num_vertices():
        v = min(sorted(work.vertices, key=repr), key=work.degree)
        best = max(best, work.degree(v))
        work.remove_vertex(v)
    return best


def scope_degeneracy(
    vertices: Iterable[Hashable], scopes: Iterable[Sequence[Hashable]]
) -> int:
    """The degeneracy of the graph joining every two vertices that share a
    scope, without building a :class:`Graph`.

    Bucket peeling (Matula–Beck): vertices sit in buckets by current
    degree, and each step removes one from the lowest non-empty bucket.
    Any minimum-degree order gives the same maximum, so this equals
    :func:`degeneracy` of the same graph, in O(V + Σ|scope|²) time.
    """
    neighbours: dict[Any, set[Any]] = {v: set() for v in vertices}
    for scope in scopes:
        for v in scope:
            neighbours[v].update(scope)
    degree: dict[Any, int] = {}
    buckets: list[set[Any]] = [set() for _ in neighbours]
    for v, adjacent in neighbours.items():
        adjacent.discard(v)
        degree[v] = len(adjacent)
        buckets[len(adjacent)].add(v)
    best = low = 0
    for _ in range(len(neighbours)):
        while not buckets[low]:
            low += 1
        v = buckets[low].pop()
        del degree[v]
        best = max(best, low)
        for u in neighbours[v]:
            d = degree.get(u)
            if d is not None:
                buckets[d].remove(u)
                buckets[d - 1].add(u)
                degree[u] = d - 1
        low = max(low - 1, 0)
    return best


def clique_number(graph: Graph, exact_limit: int = 25) -> int:
    """The clique number ω — exact for graphs with at most ``exact_limit``
    vertices (branch and bound), greedy beyond (still a valid lower bound).
    """
    vertices = sorted(graph.vertices, key=repr)
    if not vertices:
        return 0
    if len(vertices) > exact_limit:
        return _greedy_clique(graph)

    best = [1]

    def extend(clique: list[Any], candidates: list[Any]) -> None:
        if len(clique) + len(candidates) <= best[0]:
            return
        if not candidates:
            best[0] = max(best[0], len(clique))
            return
        for i, v in enumerate(candidates):
            if len(clique) + len(candidates) - i <= best[0]:
                break
            nbrs = graph.neighbors(v)
            extend(clique + [v], [u for u in candidates[i + 1 :] if u in nbrs])

    extend([], vertices)
    return best[0]


def _greedy_clique(graph: Graph) -> int:
    order = sorted(graph.vertices, key=lambda v: -graph.degree(v))
    clique: set[Any] = set()
    for v in order:
        if clique <= graph.neighbors(v):
            clique.add(v)
    return max(1, len(clique))


def clique_lower_bound(graph: Graph) -> int:
    """ω − 1 ≤ treewidth (a clique must sit inside one bag)."""
    if not graph.vertices:
        return -1
    return clique_number(graph) - 1


def mmd_plus_lower_bound(graph: Graph) -> int:
    """The MMD+ lower bound: like degeneracy, but the removed minimum-degree
    vertex is *contracted* into its least-degree neighbour (a minor, so the
    bound stays valid); dominates plain degeneracy."""
    work = graph.copy()
    best = 0
    while work.num_vertices() > 1:
        v = min(sorted(work.vertices, key=repr), key=work.degree)
        best = max(best, work.degree(v))
        nbrs = sorted(work.neighbors(v), key=repr)
        if not nbrs:
            work.remove_vertex(v)
            continue
        target = min(nbrs, key=work.degree)
        for u in nbrs:
            if u != target:
                work.add_edge(target, u)
        work.remove_vertex(v)
    return best


def treewidth_lower_bound(graph: Graph) -> int:
    """The best of the implemented lower bounds (−1 for the empty graph)."""
    if not graph.vertices:
        return -1
    return max(
        degeneracy(graph),
        clique_lower_bound(graph),
        mmd_plus_lower_bound(graph),
    )
