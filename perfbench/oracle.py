"""Answer oracles that never run through the measured path.

:class:`ForestOracle` follows the serve-* event stream on its own parent
map and computes the closure and every query's answer directly from the
forest.  :func:`fc_satisfiable` is a forward-checking solver over bitmask
domains, independent of ``repro``, that labels CSP instances.  Answers are
compared by row count plus a hash of the row set (:func:`digest`).
"""

from __future__ import annotations

from typing import Iterable

from perfbench.workloads import CSP_DOMAIN, CSP_VARIABLES, Ask, Update

__all__ = ["ForestOracle", "csp_solution_ok", "digest", "fc_satisfiable"]


def digest(rows: Iterable[tuple]) -> tuple[int, int]:
    """Row count and order-independent hash of a set of rows."""
    rows = rows if isinstance(rows, frozenset) else frozenset(rows)
    return len(rows), hash(rows)


class ForestOracle:
    """The expected state of a serve-* workload, kept from the events alone."""

    def __init__(self, edges: Iterable[tuple[int, int]]):
        self.parent = {c: p for p, c in edges}
        self.children: dict[int, set[int]] = {}
        for c, p in self.parent.items():
            self.children.setdefault(p, set()).add(c)
        self._memo: dict[tuple[str, int], tuple[int, int]] = {}

    def apply(self, update: Update) -> None:
        for p, c in update.deletes:
            self.children[p].discard(c)
        for p, c in update.inserts:
            self.parent[c] = p
            self.children.setdefault(p, set()).add(c)
        self._memo.clear()

    def ancestors(self, node: int) -> list[int]:
        """Ancestors of ``node``, nearest first."""
        out = []
        while node in self.parent:
            node = self.parent[node]
            out.append(node)
        return out

    def descendants(self, node: int) -> list[int]:
        out, frontier = [], [node]
        while frontier:
            below = [c for n in frontier for c in self.children.get(n, ())]
            out.extend(below)
            frontier = below
        return out

    def closure(self) -> tuple[int, int]:
        """Digest of ``T``: every (ancestor, descendant) pair."""
        return self.expected(Ask("", "pairs"))

    def expected(self, ask: Ask) -> tuple[int, int]:
        """Digest of the answer to ``ask`` in the current forest."""
        key = (ask.form, ask.node)
        if key not in self._memo:
            self._memo[key] = digest(self._rows(ask))
        return self._memo[key]

    def _rows(self, ask: Ask) -> Iterable[tuple]:
        form, node = ask.form, ask.node
        if form == "descendants":
            return ((d,) for d in self.descendants(node))
        if form == "ancestors":
            return ((a,) for a in self.ancestors(node))
        if form == "children":
            return ((c,) for c in self.children.get(node, ()))
        parent = self.parent
        if form == "grandparent":
            return ((parent[p], c) for c, p in parent.items() if p in parent)
        if form == "triangle":
            return ((parent[p], p, c) for c, p in parent.items() if p in parent)
        if form == "inner_node":
            return ((p,) for p in parent if self.children.get(p))
        # The remaining templates pair each node with ancestors at least
        # 1, 2 or 3 edges above it.
        skip = {"pairs": 0, "below_child": 1, "below_grandchild": 2}[form]
        return ((a, d) for d in parent for a in self.ancestors(d)[skip:])


def fc_satisfiable(instance: tuple) -> bool:
    """Decide a csp-solve instance by forward checking with MRV.

    Domains are bitmasks over ``0..CSP_DOMAIN-1``; assigning ``x = a``
    intersects every unassigned neighbour's domain with the values the
    constraint allows next to ``a``.
    """
    neighbours: list[list[tuple[int, list[int]]]] = [[] for _ in range(CSP_VARIABLES)]
    for (x, y), allowed in instance:
        forward, backward = [0] * CSP_DOMAIN, [0] * CSP_DOMAIN
        for u, v in allowed:
            forward[u] |= 1 << v
            backward[v] |= 1 << u
        neighbours[x].append((y, forward))
        neighbours[y].append((x, backward))
    domains = [(1 << CSP_DOMAIN) - 1] * CSP_VARIABLES
    free = set(range(CSP_VARIABLES))

    def search() -> bool:
        if not free:
            return True
        var = min(free, key=lambda v: (domains[v].bit_count(), v))
        free.discard(var)
        values = domains[var]
        while values:
            bit = values & -values
            values ^= bit
            value = bit.bit_length() - 1
            saved = []
            alive = True
            for other, support in neighbours[var]:
                if other in free:
                    narrowed = domains[other] & support[value]
                    if narrowed != domains[other]:
                        saved.append((other, domains[other]))
                        domains[other] = narrowed
                        if not narrowed:
                            alive = False
                            break
            if alive and search():
                return True
            for other, old in saved:
                domains[other] = old
        free.add(var)
        return False

    return search()


def csp_solution_ok(instance: tuple, solution: dict) -> bool:
    """Whether ``solution`` assigns every variable a domain value and
    satisfies every constraint of ``instance``."""
    if set(solution) != set(range(CSP_VARIABLES)):
        return False
    if any(value not in range(CSP_DOMAIN) for value in solution.values()):
        return False
    return all((solution[x], solution[y]) in allowed for (x, y), allowed in instance)
