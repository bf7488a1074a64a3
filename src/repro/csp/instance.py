"""CSP instances in the classical AI formulation of Section 2.

An instance is a triple ``(V, D, C)``: variables, values, and constraints,
each constraint a pair ``(t, R)`` of a scope tuple over ``V`` and a relation
``R`` over ``D`` of the same arity.  A solution assigns a value to each
variable so that every constraint's scope lands inside its relation.

The tutorial notes two lossless normalizations that we implement exactly:

* constraints sharing a scope may be consolidated by intersecting their
  relations, so every scope occurs at most once; and
* a repeated variable in a scope may be eliminated by selecting the rows of
  ``R`` that agree on the repeated positions and projecting one of them out.

:meth:`CSPInstance.normalize` applies both and is the entry point every
solver and converter uses.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ArityError, DomainError

__all__ = ["Constraint", "CSPInstance"]


class Constraint:
    """A single constraint ``(t, R)``: a scope tuple and a same-arity relation.

    The scope may mention a variable more than once (the normalization in
    :meth:`CSPInstance.normalize` removes such repetitions).
    """

    __slots__ = ("_scope", "_relation")

    def __init__(self, scope: Sequence[Any], relation: Iterable[Sequence[Any]]):
        self._scope = tuple(scope)
        arity = len(self._scope)
        rows = set()
        for row in relation:
            t = tuple(row)
            if len(t) != arity:
                raise ArityError(
                    f"constraint tuple {t!r} has length {len(t)}, "
                    f"scope {self._scope!r} has arity {arity}"
                )
            rows.add(t)
        self._relation: frozenset[tuple[Any, ...]] = frozenset(rows)

    @property
    def scope(self) -> tuple[Any, ...]:
        return self._scope

    @property
    def relation(self) -> frozenset[tuple[Any, ...]]:
        return self._relation

    @property
    def arity(self) -> int:
        return len(self._scope)

    def variables(self) -> frozenset[Any]:
        """The set of variables mentioned in the scope."""
        return frozenset(self._scope)

    def satisfied_by(self, assignment: Mapping[Any, Any]) -> bool:
        """Whether a total-on-scope assignment satisfies this constraint.

        Raises ``KeyError`` if some scope variable is unassigned; use
        :meth:`consistent_with` for partial assignments.
        """
        return tuple(assignment[v] for v in self._scope) in self._relation

    def consistent_with(self, assignment: Mapping[Any, Any]) -> bool:
        """Whether a *partial* assignment can still be extended on this
        constraint: true unless the scope is fully assigned and violated.
        """
        try:
            image = tuple(assignment[v] for v in self._scope)
        except KeyError:
            return True
        return image in self._relation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._scope == other._scope and self._relation == other._relation

    def __hash__(self) -> int:
        return hash((self._scope, self._relation))

    def __repr__(self) -> str:
        return f"Constraint(scope={self._scope!r}, |R|={len(self._relation)})"


class CSPInstance:
    """A constraint-satisfaction instance ``(V, D, C)``.

    Parameters
    ----------
    variables:
        The variables ``V``.  Order is preserved (it fixes the default
        variable order used by solvers), duplicates are rejected.
    domain:
        The common value domain ``D``.
    constraints:
        The constraints.  Scope variables must come from ``V`` and relation
        values from ``D``.
    """

    __slots__ = ("_variables", "_domain", "_constraints", "_normalized")

    def __init__(
        self,
        variables: Sequence[Any],
        domain: Iterable[Any],
        constraints: Iterable[Constraint],
    ):
        self._variables = tuple(variables)
        if len(set(self._variables)) != len(self._variables):
            raise DomainError(f"variables must be distinct: {self._variables!r}")
        self._domain = frozenset(domain)
        constraints = tuple(constraints)
        var_set = set(self._variables)
        for c in constraints:
            for v in c.scope:
                if v not in var_set:
                    raise DomainError(f"scope variable {v!r} not among the variables")
            for row in c.relation:
                for value in row:
                    if value not in self._domain:
                        raise DomainError(f"constraint value {value!r} not in the domain")
        self._constraints = constraints
        # Answered on first call to is_normalized (instances are immutable).
        self._normalized: bool | None = None

    # -- accessors ---------------------------------------------------------

    @property
    def variables(self) -> tuple[Any, ...]:
        return self._variables

    @property
    def domain(self) -> frozenset[Any]:
        return self._domain

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self._constraints

    def constraints_on(self, variable: Any) -> list[Constraint]:
        """All constraints whose scope mentions ``variable``."""
        return [c for c in self._constraints if variable in c.scope]

    def max_arity(self) -> int:
        """The largest constraint arity (0 if there are no constraints)."""
        return max((c.arity for c in self._constraints), default=0)

    def size(self) -> int:
        """``|V| + |D| + Σ|scope|·|R|`` — the input-size measure."""
        return (
            len(self._variables)
            + len(self._domain)
            + sum(c.arity * max(len(c.relation), 1) for c in self._constraints)
        )

    # -- semantics -----------------------------------------------------------

    def is_solution(self, assignment: Mapping[Any, Any]) -> bool:
        """Whether ``assignment`` (total on V, into D) satisfies all constraints."""
        if set(assignment) != set(self._variables):
            return False
        if not set(assignment.values()) <= self._domain:
            return False
        return all(c.satisfied_by(assignment) for c in self._constraints)

    def is_partial_solution(self, assignment: Mapping[Any, Any]) -> bool:
        """Whether a partial assignment violates no constraint whose scope it
        fully covers (the notion used for local consistency in Section 5)."""
        if not set(assignment) <= set(self._variables):
            return False
        if not set(assignment.values()) <= self._domain:
            return False
        assigned = set(assignment)
        for c in self._constraints:
            if set(c.scope) <= assigned and not c.satisfied_by(assignment):
                return False
        return True

    # -- normalization ---------------------------------------------------------

    def normalize(self) -> "CSPInstance":
        """The equivalent instance with distinct scope variables and at most
        one constraint per scope (Section 2's two lossless rewritings).

        Repeated variables in a scope are eliminated by keeping only rows of
        ``R`` that agree on the repeated positions and projecting out the
        duplicates; same-scope constraints are intersected.  The solution set
        is preserved exactly.

        An already normalized instance is returned itself: instances are
        immutable, and rebuilding one would reproduce the same constraints
        in the same order.
        """
        if self.is_normalized():
            return self
        by_scope: dict[tuple[Any, ...], frozenset[tuple[Any, ...]]] = {}
        for c in self._constraints:
            scope, relation = _deduplicate_scope(c.scope, c.relation)
            if scope in by_scope:
                by_scope[scope] = by_scope[scope] & relation
            else:
                by_scope[scope] = relation
        constraints = [Constraint(s, r) for s, r in by_scope.items()]
        normalized = CSPInstance(self._variables, self._domain, constraints)
        normalized._normalized = True
        return normalized

    def is_normalized(self) -> bool:
        """Whether every scope has distinct variables and occurs at most once.

        Computed on the first call and remembered, since a solve asks it
        several times of the same instance.
        """
        if self._normalized is None:
            scopes = [c.scope for c in self._constraints]
            self._normalized = len(set(scopes)) == len(scopes) and all(
                len(set(scope)) == len(scope) for scope in scopes
            )
        return self._normalized

    def __repr__(self) -> str:
        return (
            f"CSPInstance(|V|={len(self._variables)}, |D|={len(self._domain)}, "
            f"|C|={len(self._constraints)})"
        )


def _deduplicate_scope(
    scope: tuple[Any, ...], relation: frozenset[tuple[Any, ...]]
) -> tuple[tuple[Any, ...], frozenset[tuple[Any, ...]]]:
    """Remove repeated variables from a scope, filtering and projecting ``R``.

    Keeps the first occurrence of each variable; rows whose entries disagree
    across occurrences of the same variable are dropped.
    """
    keep: list[int] = []
    first_position: dict[Any, int] = {}
    for i, v in enumerate(scope):
        if v not in first_position:
            first_position[v] = i
            keep.append(i)
    if len(keep) == len(scope):
        return scope, relation
    rows = set()
    for t in relation:
        if all(t[i] == t[first_position[scope[i]]] for i in range(len(scope))):
            rows.add(tuple(t[i] for i in keep))
    return tuple(scope[i] for i in keep), frozenset(rows)
