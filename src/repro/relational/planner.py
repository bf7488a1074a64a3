"""Cost-guided join planning: greedy ordering by estimated intermediate size.

Proposition 2.1 reduces CSP solvability to evaluating a natural join, so
*how* the binary joins are ordered decides the size of every intermediate
relation — the quantity Marx (2022) identifies as governing join cost.  This
module chooses an order with the classical System-R-style estimate

    |L ⋈ R|  ≈  |L| · |R| / ∏_{a ∈ shared} max(d_L(a), d_R(a))

where ``d_X(a)`` is the number of distinct values of attribute ``a`` in
``X``.  Disjoint schemes make the estimate the full product, so the greedy
planner automatically prefers *connected* relations (shared-attribute
connectivity) over Cartesian products.

Three *order* strategies are exposed:

* ``"greedy"``   — smallest relation first, then repeatedly the relation
  with the smallest estimated join with the running intermediate;
* ``"smallest"`` — sort once by cardinality (the library's historical
  ``join_all`` order);
* ``"textbook"`` — keep the given (textual) order, the naive baseline.

Orthogonally, four *execution* modes decide how each binary join/semijoin
probes its operands:

* ``"indexed"`` — build-side/probe-side hash execution over the memoized
  per-key-column indexes of :meth:`Relation.index_on` (the default);
* ``"scan"``    — the nested-loop implementation, kept for differential
  testing;
* ``"wcoj"`` — the worst-case optimal multi-way path: ``join_all``
  abandons the binary fold for the leapfrog triejoin of
  :mod:`repro.relational.wcoj`, which joins variable-at-a-time over
  per-attribute sorted tries and never materializes an intermediate
  relation — the strategy of choice on cyclic bodies, where every
  pairwise order is AGM-suboptimal;
* ``"columnar"`` — the struct-of-arrays path of
  :mod:`repro.relational.columnar`: relations lazily grow memoized
  ``array('q')`` code columns, probes run as batched column sweeps
  against the radix-packed code indexes, and ``join_all`` (with numpy
  available) keeps the whole fold in int64 column matrices, decoding
  tuples once at the boundary.

:func:`parse_strategy` accepts either kind of name, or a compound
``"order+execution"`` spec such as ``"smallest+scan"``.  All combinations
compute the same relation (the natural join is commutative and associative —
see ``tests/relational/test_algebra_properties.py``); they differ only in
cost.  :func:`choose_build_side` picks which operand of one indexed join
pays for the hash table: an already-memoized index is free, otherwise the
smaller (estimated-cheaper) side builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import SolverError
from repro.relational.relation import Relation
from repro.telemetry.spans import span

__all__ = [
    "STRATEGIES",
    "EXECUTIONS",
    "RelationProfile",
    "JoinPlan",
    "profile",
    "estimate_join",
    "plan_join",
    "order_relations",
    "parse_strategy",
    "choose_build_side",
]

#: Join-*order* strategies (which relation joins next).
STRATEGIES = ("greedy", "smallest", "textbook")

#: Join-*execution* modes (how one binary join/semijoin probes its operands).
#: ``"wcoj"`` is the odd one out: in :func:`repro.relational.algebra.join_all`
#: it replaces the binary fold entirely with the worst-case optimal
#: leapfrog triejoin of :mod:`repro.relational.wcoj` (variable-at-a-time,
#: no intermediate relations), while a binary join/semijoin under it runs
#: the two-relation leapfrog / trie-probe special case.  ``"columnar"``
#: probes radix-packed code indexes with whole probe columns per batch
#: (and, in ``join_all`` with numpy present, replaces the fold with the
#: end-to-end column-matrix pipeline of
#: :func:`repro.relational.columnar.join_all_columnar`).
EXECUTIONS = ("indexed", "scan", "wcoj", "columnar")


def parse_strategy(
    spec: str | None,
    *,
    default_order: str = "greedy",
    default_execution: str = "indexed",
) -> tuple[str, str]:
    """Split a strategy spec into ``(order, execution)``.

    ``spec`` may be an order name (``"greedy"``, ``"smallest"``,
    ``"textbook"``), an execution name (``"indexed"``, ``"scan"``), or a
    compound ``"order+execution"`` such as ``"textbook+scan"``.  ``None``
    yields the defaults.  Unknown or contradictory specs raise
    :class:`~repro.errors.SolverError`.

    >>> parse_strategy("scan")
    ('greedy', 'scan')
    >>> parse_strategy("smallest+indexed")
    ('smallest', 'indexed')
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


def choose_build_side(
    left: Relation,
    right: Relation,
    key: Sequence[str],
    *,
    interned: bool = False,
    members: bool = False,
) -> str:
    """Which operand of an indexed join should own the hash table.

    Returns ``"left"`` or ``"right"``.  A side whose index on ``key`` is
    already memoized wins outright (probing it costs nothing extra);
    otherwise the smaller side builds — the classical build-side rule, with
    the exact cardinality standing in for the estimate.  Ties go right, so
    an index-free join of equal operands matches the historical behavior.
    ``interned=True`` consults the memoized
    :meth:`Relation.code_index_on` indexes instead of the tuple-keyed ones.

    ``members=True`` is the fused join-project step's rule, which tests a
    build side whose whole scheme is ``key`` by membership in its rows: such
    a side counts as indexed too, and when both sides are free the smaller
    one probes.
    """
    left_key = tuple(key)
    if interned:
        left_has = left.has_code_index(left_key)
        right_has = right.has_code_index(left_key)
    else:
        left_has = left.has_index(left_key)
        right_has = right.has_index(left_key)
    if members:
        left_has = left_has or len(left_key) == left.arity
        right_has = right_has or len(left_key) == right.arity
        if left_has and right_has:
            return "left" if len(left) > len(right) else "right"
    if left_has != right_has:
        return "left" if left_has else "right"
    return "left" if len(left) < len(right) else "right"


@dataclass(frozen=True)
class RelationProfile:
    """The statistics the cost model needs: scheme, cardinality, and
    per-attribute distinct-value counts (all exact for base relations,
    estimated for intermediates)."""

    attributes: frozenset[str]
    cardinality: float
    distinct: dict[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", frozenset(self.attributes))


def profile(relation: Relation) -> RelationProfile:
    """Exact profile of a base relation (one pass over the tuples).

    The per-column distinct counts are memoized by position in the
    relation's row memo: relations are immutable, so the statistics never
    go stale, and repeated planning over a persistent relation (every
    delta round of a fixpoint probes the same full IDB relation) — or over
    any renaming of its rows — pays the scan once.
    """
    attributes = relation.attributes
    memo = relation.row_memo
    distinct = memo.distinct
    if distinct is None:
        columns = zip(*relation.tuples) if relation else ((),) * len(attributes)
        distinct = memo.distinct = tuple(float(len(set(c))) for c in columns)
    return RelationProfile(
        frozenset(attributes), float(len(relation)), dict(zip(attributes, distinct))
    )


def estimate_join(left: RelationProfile, right: RelationProfile) -> RelationProfile:
    """Estimated profile of ``left ⋈ right`` under the uniformity assumption.

    Shared attributes keep the smaller distinct count (a join can only
    narrow a column); every distinct count is capped by the estimated
    cardinality.
    """
    shared = left.attributes & right.attributes
    size = left.cardinality * right.cardinality
    for a in shared:
        divisor = max(left.distinct.get(a, 1.0), right.distinct.get(a, 1.0))
        if divisor > 0:
            size /= divisor
    distinct: dict[str, float] = {}
    for a in left.attributes | right.attributes:
        if a in shared:
            d = min(left.distinct.get(a, 1.0), right.distinct.get(a, 1.0))
        elif a in left.attributes:
            d = left.distinct.get(a, 1.0)
        else:
            d = right.distinct.get(a, 1.0)
        distinct[a] = min(d, size) if size < d else d
    return RelationProfile(left.attributes | right.attributes, size, distinct)


@dataclass(frozen=True)
class JoinPlan:
    """A join order plus the cost model's predictions for it.

    ``order`` indexes into the planner's input sequence;
    ``estimated_sizes`` holds the predicted cardinality of each successive
    intermediate (one entry per join after the first relation).
    """

    strategy: str
    order: tuple[int, ...]
    estimated_sizes: tuple[float, ...]

    @property
    def estimated_max_intermediate(self) -> float:
        return max(self.estimated_sizes, default=0.0)


def _greedy_order(profiles: Sequence[RelationProfile]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    remaining = list(range(len(profiles)))
    # Seed with the smallest relation (ties broken by input position, so
    # plans are deterministic).
    first = min(remaining, key=lambda i: (profiles[i].cardinality, i))
    remaining.remove(first)
    order = [first]
    estimates: list[float] = []
    current = profiles[first]
    while remaining:
        best = None
        best_key = None
        for i in remaining:
            candidate = estimate_join(current, profiles[i])
            shared = len(current.attributes & profiles[i].attributes)
            # Smaller estimate wins; among equals prefer more shared
            # attributes (connectivity), then input position.
            key = (candidate.cardinality, -shared, i)
            if best_key is None or key < best_key:
                best, best_key, best_profile = i, key, candidate
        remaining.remove(best)
        order.append(best)
        estimates.append(best_profile.cardinality)
        current = best_profile
    return tuple(order), tuple(estimates)


def _linear_order(
    profiles: Sequence[RelationProfile], order: Sequence[int]
) -> tuple[float, ...]:
    """Cost-model predictions for a fixed order (used for the baselines)."""
    if not order:
        return ()
    current = profiles[order[0]]
    estimates: list[float] = []
    for i in order[1:]:
        current = estimate_join(current, profiles[i])
        estimates.append(current.cardinality)
    return tuple(estimates)


def plan_join(relations: Sequence[Relation], strategy: str = "greedy") -> JoinPlan:
    """Choose a join order for ``relations`` under the given strategy."""
    if strategy not in STRATEGIES:
        raise SolverError(
            f"unknown join strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    with span("plan", strategy=strategy, relations=len(relations)) as sp:
        profiles = [profile(r) for r in relations]
        if strategy == "greedy":
            order, estimates = _greedy_order(profiles) if profiles else ((), ())
        elif strategy == "smallest":
            order = tuple(
                sorted(range(len(profiles)), key=lambda i: (profiles[i].cardinality, i))
            )
            estimates = _linear_order(profiles, order)
        else:  # textbook: the order the atoms were written in
            order = tuple(range(len(profiles)))
            estimates = _linear_order(profiles, order)
        plan = JoinPlan(strategy, order, estimates)
        if sp:
            sp.note(estimated_max_intermediate=plan.estimated_max_intermediate)
        return plan


def order_relations(
    relations: Iterable[Relation], strategy: str = "greedy"
) -> list[Relation]:
    """The relations reordered according to :func:`plan_join`."""
    rels = list(relations)
    plan = plan_join(rels, strategy)
    return [rels[i] for i in plan.order]
