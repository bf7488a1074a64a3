"""Join order: which operand a multi-way join takes next.

Proposition 2.1 reduces CSP solvability to evaluating a natural join, so
*how* the binary steps are ordered decides the size of every intermediate
relation — the quantity Marx (2022) identifies as governing join cost.
The order uses no estimates: the ETH lower bounds of Marx's survey hold
for every join order, so the worst-case guarantee comes from width
(:mod:`repro.width`), not from a cost model.  Two *order* strategies are
exposed:

* ``"greedy"``   — start from the smallest operand (ties go to the one
  written first), then repeatedly take :func:`next_operand`'s choice: the
  operand whose variables are all bound, else the one with the most bound
  variables, ties going to fewer rows and then to position.  A seeded join
  applies the same step rule from its seed;
* ``"textbook"`` — keep the given (textual) order, the naive baseline.

Orthogonally, three *execution* modes decide how each binary join/semijoin
probes its operands:

* ``"indexed"`` — the one join loop of
  :func:`repro.relational.algebra.join_all`, probing the memoized
  per-key-column indexes of :meth:`Relation.index_on` (the default);
* ``"scan"``    — the nested-loop implementation, kept for differential
  testing;
* ``"wcoj"`` — the worst-case optimal multi-way path: ``join_all``
  abandons the binary fold for the leapfrog triejoin of
  :mod:`repro.relational.wcoj`, which joins variable-at-a-time over
  per-attribute sorted tries and never materializes an intermediate
  relation — the strategy of choice on cyclic bodies, where every
  pairwise order is AGM-suboptimal.

:func:`parse_strategy` accepts either kind of name, or a compound
``"order+execution"`` spec such as ``"textbook+scan"``.  All combinations
compute the same relation (the natural join is commutative and associative —
see ``tests/relational/test_algebra_properties.py``); they differ only in
cost.  :func:`choose_build_side` picks which operand of one binary indexed
join pays for the hash table: an already-memoized index is free, otherwise
the smaller side builds.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

from repro.errors import SolverError
from repro.relational.relation import Relation
from repro.telemetry.spans import span

__all__ = [
    "STRATEGIES",
    "EXECUTIONS",
    "next_operand",
    "plan_join",
    "parse_strategy",
    "choose_build_side",
]

#: Join-*order* strategies (which relation joins next).
STRATEGIES = ("greedy", "textbook")

#: Join-*execution* modes (how one binary join/semijoin probes its operands).
#: ``"wcoj"`` is the odd one out: in :func:`repro.relational.algebra.join_all`
#: it replaces the binary fold entirely with the worst-case optimal
#: leapfrog triejoin of :mod:`repro.relational.wcoj` (variable-at-a-time,
#: no intermediate relations), while a binary join/semijoin under it runs
#: the two-relation leapfrog / trie-probe special case.
EXECUTIONS = ("indexed", "scan", "wcoj")


def parse_strategy(
    spec: str | None,
    *,
    default_order: str = "greedy",
    default_execution: str = "indexed",
) -> tuple[str, str]:
    """Split a strategy spec into ``(order, execution)``.

    ``spec`` may be an order name (``"greedy"``, ``"textbook"``), an
    execution name (``"indexed"``, ``"scan"``, ``"wcoj"``), or a compound
    ``"order+execution"`` such as ``"textbook+scan"``.  ``None`` yields the
    defaults.  Unknown or contradictory specs raise
    :class:`~repro.errors.SolverError`.

    >>> parse_strategy("scan")
    ('greedy', 'scan')
    >>> parse_strategy("textbook+indexed")
    ('textbook', 'indexed')
    """
    order: str | None = None
    execution: str | None = None
    if spec is not None:
        for part in spec.split("+"):
            if part in STRATEGIES:
                if order is not None:
                    raise SolverError(f"strategy {spec!r} names two join orders")
                order = part
            elif part in EXECUTIONS:
                if execution is not None:
                    raise SolverError(f"strategy {spec!r} names two executions")
                execution = part
            else:
                raise SolverError(
                    f"unknown join strategy {part!r}; expected an order in "
                    f"{STRATEGIES} and/or an execution in {EXECUTIONS}"
                )
    return order or default_order, execution or default_execution


def choose_build_side(left: Relation, right: Relation, key: Sequence[str]) -> str:
    """Which operand of a binary indexed join should own the hash table.

    Returns ``"left"`` or ``"right"``.  A side whose index on ``key`` is
    already memoized wins outright (probing it costs nothing extra);
    otherwise the smaller side builds — the classical build-side rule.
    Ties go right, so an index-free join of equal operands matches the
    historical behavior.
    """
    left_has = left.has_index(key)
    right_has = right.has_index(key)
    if left_has != right_has:
        return "left" if left_has else "right"
    return "left" if len(left) < len(right) else "right"


def next_operand(bound: AbstractSet[str], pending: Sequence[Relation]) -> int:
    """The position in ``pending`` of the operand a join that has bound the
    variables ``bound`` takes next: one whose variables are all bound (a
    membership test), else the one with the most bound variables — so a
    connected operand always beats a Cartesian product.  Ties go to fewer
    rows, then to the earlier position."""
    best = rank = None
    for i, rel in enumerate(pending):
        common = len(bound.intersection(rel.attributes))
        candidate = (common < rel.arity, -common, len(rel))
        if rank is None or candidate < rank:
            best, rank = i, candidate
    return best


def plan_join(
    relations: Sequence[Relation], strategy: str = "greedy"
) -> tuple[int, ...]:
    """The order, as positions into ``relations``, in which
    :func:`~repro.relational.algebra.join_all` joins them under the
    ``strategy`` order: ``"textbook"`` keeps the given order, ``"greedy"``
    starts from the smallest relation (ties go to the one written first)
    and takes each next one by :func:`next_operand`."""
    if strategy not in STRATEGIES:
        raise SolverError(
            f"unknown join strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    with span("plan", strategy=strategy, relations=len(relations)):
        if strategy == "textbook" or not relations:
            return tuple(range(len(relations)))
        order = [min(range(len(relations)), key=lambda i: len(relations[i]))]
        remaining = [i for i in range(len(relations)) if i != order[0]]
        bound = set(relations[order[0]].attributes)
        while remaining:
            i = remaining.pop(next_operand(bound, [relations[j] for j in remaining]))
            order.append(i)
            bound.update(relations[i].attributes)
        return tuple(order)
