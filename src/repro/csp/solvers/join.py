"""The join-evaluation solver — Proposition 2.1 made executable.

    A CSP instance ``(V, D, C)`` is solvable iff ``⋈_{(t,R)∈C} R`` is
    nonempty.                                           [Bibel; Gyssens et al.]

Each normalized constraint ``(t, R)`` is read as a relation over the scheme
``t`` (variables become attributes) and the instance is decided by evaluating
the natural join of all constraint relations.  Every row of the join extends
to a solution by assigning unconstrained variables arbitrarily.

The default ``"greedy"`` join order of :mod:`repro.relational.planner`
starts from the smallest constraint relation and then takes the one whose
variables are all bound, else the one with the most bound variables; pass
``strategy="textbook"`` to join the constraints in the order they were
written.  Orthogonally, the join *execution* defaults to the hash-indexed
kernel of :func:`~repro.relational.algebra.join_all`; ``strategy="scan"``
selects the nested-loop implementation (the differential-testing oracle),
and compound specs such as ``"textbook+scan"`` fix both — see
:func:`repro.relational.planner.parse_strategy`.
:mod:`repro.width.acyclic` offers the Yannakakis evaluation that is
worst-case-optimal for acyclic instances.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.csp.instance import CSPInstance
from repro.errors import UnsatisfiableError
from repro.relational.algebra import join_all
from repro.relational.relation import Relation

__all__ = [
    "constraint_relations",
    "join_of_constraints",
    "solve",
    "is_solvable",
    "all_solutions",
]


def constraint_relations(instance: CSPInstance) -> list[Relation]:
    """The constraints of the (normalized) instance as named-attribute
    relations, with each variable encoded as an attribute name.

    Variables may be arbitrary hashable values, so they are mapped to string
    attribute names via the instance's variable order; the inverse mapping is
    applied again by :func:`all_solutions`.
    """
    instance = instance.normalize()
    names = _attribute_names(instance)
    return [
        Relation(tuple(names[v] for v in c.scope), c.relation)
        for c in instance.constraints
    ]


def _attribute_names(instance: CSPInstance) -> dict[Any, str]:
    return {v: f"v{i}" for i, v in enumerate(instance.variables)}


def join_of_constraints(
    instance: CSPInstance, strategy: str | None = None
) -> Relation:
    """Evaluate ``⋈_{(t,R)∈C} R`` for the normalized instance.

    ``strategy`` selects the join order (``"greedy"``, ``"textbook"``)
    and/or execution (``"indexed"``, ``"scan"``, ``"wcoj"``); every
    combination yields the same relation.
    """
    return join_all(constraint_relations(instance), strategy=strategy)


def is_solvable(instance: CSPInstance, strategy: str | None = None) -> bool:
    """Proposition 2.1: solvable iff the join of constraint relations is
    nonempty.  (An instance with no constraints is vacuously solvable when
    it has either no variables or a nonempty domain.)"""
    instance = instance.normalize()
    if not instance.constraints:
        return not instance.variables or bool(instance.domain)
    return bool(join_of_constraints(instance, strategy=strategy))


def all_solutions(instance: CSPInstance) -> Iterator[dict[Any, Any]]:
    """Enumerate all solutions from the join result.

    Each join row fixes the constrained variables; unconstrained variables
    range over the whole domain.
    """
    from itertools import product as iproduct

    instance = instance.normalize()
    names = _attribute_names(instance)
    joined = join_of_constraints(instance)
    constrained = set(joined.attributes)
    free = [v for v in instance.variables if names[v] not in constrained]
    domain = sorted(instance.domain, key=repr)
    if free and not domain:
        return

    name_to_var = {n: v for v, n in names.items()}
    if not instance.constraints:
        rows: Iterator[dict[Any, Any]] = iter([{}])
    else:
        if not joined:
            return
        rows = (
            {name_to_var[a]: val for a, val in zip(joined.attributes, t)}
            for t in sorted(joined.tuples, key=repr)
        )
    for base in rows:
        if not free:
            yield dict(base)
            continue
        for values in iproduct(domain, repeat=len(free)):
            full = dict(base)
            full.update(zip(free, values))
            yield full


def solve(instance: CSPInstance) -> dict[Any, Any] | None:
    """Return one solution obtained from the join, or ``None``."""
    for assignment in all_solutions(instance):
        return assignment
    return None


def require_solution(instance: CSPInstance) -> dict[Any, Any]:
    """Like :func:`solve` but raises :class:`UnsatisfiableError` when empty."""
    solution = solve(instance)
    if solution is None:
        raise UnsatisfiableError("the join of the constraint relations is empty")
    return solution
