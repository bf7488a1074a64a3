"""Conjunctive queries: terms, atoms, and the query AST (Section 2).

A conjunctive query is written as a rule ``Q(X1,…,Xn) :- body`` whose body
is a conjunction of positive atoms; the head variables are the
*distinguished* variables, all others are existentially quantified.  Terms
are :class:`Var` objects or arbitrary hashable constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import ParseError

__all__ = ["Var", "Atom", "ConjunctiveQuery"]


@dataclass(frozen=True, order=True)
class Var:
    """A query variable, identified by name."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Atom:
    """A positive atom ``predicate(t1, …, tn)``; terms are vars or constants."""

    predicate: str
    terms: tuple[Any, ...]
    # Derived from ``terms`` once, at construction; equality, hashing and
    # ``repr`` ignore it.
    _variables: tuple[Var, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, predicate: str, terms: Sequence[Any]):
        terms = tuple(terms)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(
            self, "_variables", tuple(dict.fromkeys(t for t in terms if isinstance(t, Var)))
        )

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> tuple[Var, ...]:
        """The variables of the atom, in order of first occurrence."""
        return self._variables

    def constants(self) -> tuple[Any, ...]:
        return tuple(t for t in self.terms if not isinstance(t, Var))

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.predicate}({inner})"


class ConjunctiveQuery:
    """A conjunctive query ``head_name(distinguished…) :- atoms…``.

    Boolean queries have an empty tuple of distinguished variables.
    Every distinguished variable must occur in the body (safety).
    """

    __slots__ = ("_head_name", "_distinguished", "_body")

    def __init__(
        self,
        head_name: str,
        distinguished: Sequence[Var],
        body: Iterable[Atom],
    ):
        self._head_name = head_name
        self._distinguished = tuple(distinguished)
        self._body = tuple(body)
        body_vars = {v for atom in self._body for v in atom.variables()}
        for v in self._distinguished:
            if not isinstance(v, Var):
                raise ParseError(f"distinguished terms must be variables, got {v!r}")
            if v not in body_vars:
                raise ParseError(f"unsafe query: head variable {v!r} not in the body")

    @property
    def head_name(self) -> str:
        return self._head_name

    @property
    def distinguished(self) -> tuple[Var, ...]:
        return self._distinguished

    @property
    def body(self) -> tuple[Atom, ...]:
        return self._body

    @property
    def is_boolean(self) -> bool:
        return not self._distinguished

    def answer_columns(self) -> tuple[str, ...]:
        """The column names of the query's answer relation, one per head
        position.

        A head variable's first occurrence names its column; its ``n``-th
        occurrence is named ``"<name>#<n>"``, which the parser never
        produces (variables are identifiers), so the scheme stays distinct
        without clashing with a body variable.

        >>> from repro.cq.parser import parse_query
        >>> parse_query("Q(X, Y, X) :- E(X, Y).").answer_columns()
        ('X', 'Y', 'X#2')
        """
        seen: dict[Var, int] = {}
        columns = []
        for v in self._distinguished:
            n = seen[v] = seen.get(v, 0) + 1
            columns.append(v.name if n == 1 else f"{v.name}#{n}")
        return tuple(columns)

    def variables(self) -> tuple[Var, ...]:
        """All variables, distinguished first, then by first body occurrence."""
        out = list(self._distinguished)
        for atom in self._body:
            for v in atom.variables():
                if v not in out:
                    out.append(v)
        return tuple(out)

    def existential_variables(self) -> tuple[Var, ...]:
        distinguished = set(self._distinguished)
        return tuple(v for v in self.variables() if v not in distinguished)

    def predicates(self) -> dict[str, int]:
        """``{predicate: arity}`` over the body (consistent arities enforced)."""
        out: dict[str, int] = {}
        for atom in self._body:
            if atom.predicate in out and out[atom.predicate] != atom.arity:
                raise ParseError(
                    f"predicate {atom.predicate!r} used with arities "
                    f"{out[atom.predicate]} and {atom.arity}"
                )
            out[atom.predicate] = atom.arity
        return out

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """A copy with every variable renamed by appending ``suffix`` —
        used to make two queries variable-disjoint before combination."""
        mapping = {v: Var(v.name + suffix) for v in self.variables()}

        def rn(t: Any) -> Any:
            return mapping.get(t, t) if isinstance(t, Var) else t

        return ConjunctiveQuery(
            self._head_name,
            [mapping[v] for v in self._distinguished],
            [Atom(a.predicate, [rn(t) for t in a.terms]) for a in self._body],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self._head_name == other._head_name
            and self._distinguished == other._distinguished
            and set(self._body) == set(other._body)
        )

    def __hash__(self) -> int:
        return hash((self._head_name, self._distinguished, frozenset(self._body)))

    def __repr__(self) -> str:
        head = f"{self._head_name}({', '.join(map(repr, self._distinguished))})"
        body = ", ".join(repr(a) for a in self._body)
        return f"{head} :- {body}."
