"""Conjunctive-query evaluation over relational structures.

``Q(D)`` is computed by the textbook join plan: translate each body atom to
a relation over its variables (selecting on constants and repeated
variables), natural-join everything, and project onto the distinguished
variables — on the default route the projection happens during the join,
each variable dropped once no later atom needs it.  Proposition 2.1's
join-evaluation view of CSP is the Boolean special case.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator, Mapping

from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.errors import VocabularyError
from repro.relational.algebra import join_all, project, semijoin
from repro.relational.relation import Relation
from repro.relational.stats import current_stats
from repro.relational.structure import Structure
from repro.telemetry.spans import span

__all__ = [
    "atom_relation",
    "atom_shape",
    "evaluate",
    "evaluate_boolean",
    "refresh_answer",
    "satisfying_assignments",
    "share_row_memo",
    "translate_atom",
]


def atom_relation(atom: Atom, database: Structure) -> Relation:
    """The relation of assignments to the atom's variables that match the
    database: rows of ``database.relation(atom.predicate)`` filtered on
    constants and repeated variables, projected to one column per variable.

    Memoized on the (immutable) database via
    :meth:`~repro.relational.structure.Structure.derived` at two levels.
    Per atom, every query gets back the *same* :class:`Relation` object.
    Per :func:`atom_shape`, atoms that differ only in their variable names
    get :meth:`~repro.relational.relation.Relation.renamed` views of one
    translated relation, sharing its rows and its positional row memo — so
    the hash indexes and planner statistics one query builds are probed
    for free by the next, whatever it names its variables.  That is the
    cross-job reuse the :class:`~repro.parallel.coordinator.Coordinator`'s
    ``"hash"`` routing policy and the :mod:`repro.service` cache lean on.
    """
    if atom.predicate not in database.vocabulary:
        raise VocabularyError(
            f"predicate {atom.predicate!r} not in the database vocabulary"
        )
    return database.derived(
        ("atom_relation", atom), lambda: _shape_view(atom, database)
    )


def _shape_view(atom: Atom, database: Structure) -> Relation:
    arity = database.vocabulary.arity(atom.predicate)
    if atom.arity != arity:
        raise VocabularyError(
            f"atom {atom!r} has {atom.arity} terms but {atom.predicate!r} "
            f"has arity {arity}"
        )
    shape, names = atom_shape(atom)
    translated = database.derived(
        ("atom_shape", shape),
        lambda: translate_atom(atom, database.relation(atom.predicate)),
    )
    return translated.renamed(names)


def share_row_memo(database: Structure, predicate: str, relation: Relation) -> None:
    """Make ``relation`` the translation of every atom over ``predicate``
    whose terms are distinct variables, on ``database``.

    ``relation`` must hold exactly the predicate's rows in the database
    (checked in O(1) when it shares their frozenset).  Those atoms then
    get renamed views of it, so they probe the hash indexes and distinct
    counts already in its :class:`~repro.relational.relation.RowMemo`,
    and whatever indexes their joins build land in that memo too — this is
    how :meth:`~repro.datalog.incremental.IncrementalEvaluation.as_structure`
    shares one memo per predicate value between the maintenance plane and
    the reads.  Call it before the first such atom is translated.
    """
    rows = database.relation(predicate)
    arity = database.vocabulary.arity(predicate)
    shared = relation.tuples
    if relation.arity != arity or (shared is not rows and shared != rows):
        raise ValueError(f"the shared relation does not hold the rows of {predicate!r}")
    shape = (predicate, tuple(range(arity)))
    database.derived(("atom_shape", shape), lambda: relation)


def atom_shape(atom: Atom) -> tuple[tuple, tuple[str, ...]]:
    """``(shape, names)``: the atom up to variable renaming, and its
    variable names in order of first occurrence.

    The shape is the predicate plus one entry per term — the
    first-occurrence slot (an int) of a variable, or a 1-tuple wrapping a
    constant — so ``E(X, Y)`` and ``E(A, B)`` share a shape while
    ``E(X, X)``, ``E(X, 2)`` and ``E(1, 2)`` each have their own.  Atoms of
    one shape translate to the same rows, column for column.
    """
    slots: dict[Var, int] = {}
    pattern = tuple(
        slots.setdefault(t, len(slots)) if isinstance(t, Var) else (t,)
        for t in atom.terms
    )
    return (atom.predicate, pattern), tuple(v.name for v in slots)


def translate_atom(atom: Atom, rows: frozenset[tuple[Any, ...]]) -> Relation:
    """Filter a predicate's rows through the atom's constants and repeated
    variables, one column per distinct variable (in first-occurrence
    order).

    An atom whose terms are all distinct variables passes every row
    through unchanged, so its relation shares ``rows`` itself — no
    per-row work at all.
    """
    variables = atom.variables()
    names = tuple(v.name for v in variables)
    if len(variables) == len(atom.terms):
        return Relation.from_trusted_rows(names, rows)
    first = {v: atom.terms.index(v) for v in variables}

    def matches(row: tuple) -> bool:
        for i, term in enumerate(atom.terms):
            if isinstance(term, Var):
                if row[i] != row[first[term]]:
                    return False
            elif row[i] != term:
                return False
        return True

    return Relation(
        names,
        (tuple(row[first[v]] for v in variables) for row in rows if matches(row)),
    )


def _body_join(
    query: ConjunctiveQuery,
    database: Structure,
    strategy: str | None = None,
    attributes: tuple[str, ...] | None = None,
) -> Relation:
    """Join the body atoms.  ``strategy`` picks the join order and execution
    (see :func:`repro.relational.planner.parse_strategy`): ``"textbook"`` is
    the textual atom order, ``"scan"`` forces nested-loop joins, ``"wcoj"``
    the leapfrog triejoin, and the default is the cost-guided greedy plan
    over the hash-indexed operators.  ``"auto"`` consults the body's
    hypergraph (:mod:`repro.width`): acyclic bodies go through Yannakakis'
    semijoin reducer, **cyclic** bodies through the worst-case optimal
    leapfrog triejoin — the regime where every pairwise plan is
    AGM-suboptimal — and the default plan covers the rest.

    ``attributes``, when given, names the columns to project onto; every
    route but ``"auto"`` hands it to :func:`join_all`, whose indexed fold
    then drops each variable as soon as no later atom mentions it.  The
    ``"auto"`` route ignores it and joins over every variable."""
    if strategy == "auto":
        relations = _atom_relations(query, database)
        route = _auto_route(query, relations)
        if route == "yannakakis":
            with span("yannakakis_reduce"):
                reduced = _yannakakis_reduce(relations)
            return join_all(reduced, execution=_reduced_execution(reduced))
        from repro.relational.wcoj import leapfrog_join

        return leapfrog_join(relations)
    return join_all(
        (atom_relation(atom, database) for atom in query.body),
        strategy=strategy,
        attributes=attributes,
    )


def _atom_relations(query: ConjunctiveQuery, database: Structure) -> list[Relation]:
    """Translate every body atom to its relation (one "atoms" span)."""
    with span("atoms") as sp:
        relations = [atom_relation(atom, database) for atom in query.body]
        if sp:
            sp.note(rows=sum(len(r) for r in relations))
        return relations


#: The structural width signal behind ``strategy="auto"``: GYO-style
#: join-tree construction — α-acyclicity, i.e. generalized hypertree
#: width 1 (Section 6 of the tutorial).
_ROUTE_SIGNAL = "gyo-acyclicity"

#: Total reduced-body row count at which ``strategy="auto"``'s Yannakakis
#: branch switches the final join from the default execution to
#: ``"columnar"``.  Below it the column-store builds cost more than the
#: batched probes save; above it the vectorized fold wins.  Only consulted
#: when numpy is available (the stdlib fallback has no batched fold).
COLUMNAR_AUTO_THRESHOLD = 256


def _reduced_execution(reduced: list[Relation]) -> str | None:
    """The execution for the final join of a Yannakakis-reduced body:
    ``"columnar"`` for large reduced bodies when numpy is present, else
    ``None`` (the default execution).  The choice is annotated onto the
    routing decision :func:`_auto_route` just recorded."""
    from repro.relational.columnar import numpy_backend

    execution = None
    if (
        numpy_backend() is not None
        and sum(len(r) for r in reduced) >= COLUMNAR_AUTO_THRESHOLD
    ):
        execution = "columnar"
    stats = current_stats()
    if stats is not None and stats.routing_decisions:
        stats.routing_decisions[-1]["execution"] = execution or "default"
    return execution


def _auto_route(query: ConjunctiveQuery, relations: list[Relation]) -> str:
    """Decide where ``strategy="auto"`` sends the body — and record why.

    Acyclic bodies (per :func:`repro.width.acyclic.is_acyclic`, the width
    signal) route to Yannakakis' semijoin reducer; cyclic ones to the
    worst-case optimal leapfrog triejoin.  The decision lands both in the
    active :class:`~repro.relational.stats.EvalStats`
    (``routing_decisions``) and on the ``"route"`` span's attributes.
    """
    from repro.width.acyclic import is_acyclic

    with span("route") as sp:
        acyclic = is_acyclic([frozenset(r.attributes) for r in relations])
        route = "yannakakis" if acyclic else "wcoj"
        stats = current_stats()
        if stats is not None:
            stats.record_routing(
                query.head_name, route, acyclic=acyclic, signal=_ROUTE_SIGNAL
            )
        if sp:
            sp.note(route=route, acyclic=acyclic, signal=_ROUTE_SIGNAL)
        return route


def _yannakakis_reduce(relations: list[Relation]) -> list[Relation] | None:
    """Yannakakis' full reducer for an acyclic body, or ``None`` if cyclic.

    When the body hypergraph (one hyperedge per atom's variable set) is
    α-acyclic, a bottom-up semijoin pass over a join tree followed by a
    top-down pass makes every relation globally consistent, so the final
    join's intermediates never exceed the output size — the Section 6
    polynomial-time guarantee for acyclic joins.  The reduced relations
    join to exactly the same result as the unreduced ones (semijoins only
    delete dangling rows).
    """
    from repro.width.acyclic import is_acyclic, join_tree

    scopes = [frozenset(r.attributes) for r in relations]
    if not is_acyclic(scopes):
        return None
    tree = join_tree(scopes)
    reduced = list(relations)
    bottom_up = tree.topological_order()
    children = tree.children()
    for node in bottom_up:
        for child in children[node]:
            reduced[node] = semijoin(reduced[node], reduced[child])
    for node in reversed(bottom_up):
        for child in children[node]:
            reduced[child] = semijoin(reduced[child], reduced[node])
    return reduced


def evaluate(
    query: ConjunctiveQuery, database: Structure, strategy: str | None = None
) -> Relation:
    """Evaluate ``Q(D)``: the relation over the distinguished variables.

    For a Boolean query the result is the nullary relation — nonempty
    (containing the empty tuple) iff the query holds.  ``strategy`` selects
    the join order; all strategies compute the same relation.  Besides the
    order/execution specs of :func:`repro.relational.planner.parse_strategy`,
    ``"auto"`` is accepted: acyclic bodies are fully semijoin-reduced
    (Yannakakis) before the join — with the final join switching to the
    columnar execution when the reduced body holds at least
    :data:`COLUMNAR_AUTO_THRESHOLD` rows and numpy is available — while
    cyclic ones run the worst-case optimal leapfrog triejoin
    (:mod:`repro.relational.wcoj`).

    Every other strategy hands the head to :func:`join_all`, so the
    default indexed fold projects while it joins: a variable is dropped as
    soon as neither the head nor a later atom mentions it, no intermediate
    is larger than the join over its live variables, and the final
    ``project`` is the identity.  A single-atom body whose variables are
    the head, in order, returns the atom's relation itself.

    The answer's columns are :meth:`~repro.cq.query.ConjunctiveQuery.answer_columns`:
    a head variable written twice (``Q(X, X)``) repeats its column under a
    derived name.
    """
    with span(
        "cq.evaluate", query=query.head_name, strategy=strategy or "default"
    ) as sp:
        variables = tuple(dict.fromkeys(v.name for v in query.distinguished))
        joined = _body_join(query, database, strategy, attributes=variables)
        result = project(joined, variables)
        if len(query.distinguished) > len(variables):
            expand = _expander(query, variables)
            result = Relation.from_trusted_rows(
                query.answer_columns(), frozenset(map(expand, result))
            )
        if sp:
            sp.note(rows=len(result))
        return result


def refresh_answer(
    query: ConjunctiveQuery,
    answer: Relation,
    before: Structure,
    after: Structure,
    added: Mapping[str, frozenset],
    removed: Mapping[str, frozenset],
) -> Relation:
    """``Q(after)`` from ``answer = Q(before)`` and the net rows each
    predicate gained (``added``) and lost (``removed``) between the two
    structures — the answer maintained as a materialized view, without
    re-running the body's join.

    With H the distinct head variables and ``S(seed, D)`` the seeded join
    π_H(seed ⋈ the other body atoms over D):

    * A = ⋃ᵢ S(atom i over its predicate's added rows, ``after``) — every
      valuation that uses an inserted fact;
    * C = ⋃ᵢ S(atom i over its removed rows, ``before``) ∩ ``answer`` − A —
      the old answers that lost a valuation;
    * K = π_H(C ⋈ every body atom over ``after``) — those still derived;
    * the result is (``answer`` − (C − K)) ∪ A.

    Each seeded join is ``join_all(..., seed=...)`` on the default
    execution: it plans nothing, starts from its seed's rows and probes
    the other atoms' relations — an atom whose variables are all bound by
    membership in its rows, any other on a join-key index memoized on the
    structure (where a maintained structure's pools adopt it) — so it
    costs O(|Δ| · fan-out) whatever ``strategy`` the answer was first
    evaluated with.  Self-joins only over-approximate A and C, and C is
    re-checked by K.  A body whose answer is one atom's own relation is
    re-read through :func:`evaluate`, which shares the rows in O(1).  The
    result is a new relation (``answer`` itself when nothing changed) over
    the same :meth:`~repro.cq.query.ConjunctiveQuery.answer_columns`.
    """
    variables = tuple(dict.fromkeys(v.name for v in query.distinguished))
    body = query.body
    if (
        len(body) == 1
        and body[0].terms == query.distinguished
        and len(variables) == len(query.distinguished)
    ):
        return evaluate(query, after)

    def seeded(database: Structure, changes: Mapping[str, frozenset]) -> set[tuple]:
        rows: set[tuple] = set()
        for i, atom in enumerate(body):
            delta = changes.get(atom.predicate)
            seed = translate_atom(atom, delta) if delta else None
            if seed:
                rows |= _seeded_join(seed, body[:i] + body[i + 1 :], database, variables)
        return rows

    derived = seeded(after, added)  # A, over H
    old = answer.tuples
    expand = _expander(query, variables)
    lost = {t for t in seeded(before, removed) if expand(t) in old} - derived  # C
    if lost:
        seed = Relation.from_trusted_rows(variables, frozenset(lost))
        lost -= _seeded_join(seed, body, after, variables)  # C − K
    gained = {expand(t) for t in derived} - old
    if not gained and not lost:
        return answer
    rows = old.difference(map(expand, lost)) if lost else old
    return Relation.from_trusted_rows(answer.attributes, rows | gained if gained else rows)


def _expander(query: ConjunctiveQuery, variables: tuple[str, ...]):
    """Rows over the distinct head ``variables`` → rows over the answer
    columns, a repeated head variable repeating its value (the identity
    when no head variable repeats)."""
    if len(query.distinguished) == len(variables):
        return lambda row: row
    return itemgetter(*(variables.index(v.name) for v in query.distinguished))


def _seeded_join(
    seed: Relation, atoms: tuple[Atom, ...], database: Structure, attributes: tuple[str, ...]
) -> frozenset[tuple]:
    """The rows of π_attributes(seed ⋈ the atoms over ``database``), on
    :func:`join_all`'s seeded kernel: no plan, the seed's rows probing the
    atoms' memoized join-key indexes."""
    relations = [atom_relation(atom, database) for atom in atoms]
    return join_all(relations, attributes=attributes, seed=seed).tuples


def evaluate_boolean(
    query: ConjunctiveQuery, database: Structure, strategy: str | None = None
) -> bool:
    """Whether a Boolean conjunctive query holds on the database.

    With ``strategy="auto"`` and an acyclic body, the answer is read off
    the full reducer without materializing the join at all: after the two
    semijoin passes the join is nonempty iff every reduced relation is
    (global consistency of full-reduced acyclic joins).
    """
    with span(
        "cq.evaluate_boolean", query=query.head_name, strategy=strategy or "default"
    ):
        if strategy == "auto":
            relations = _atom_relations(query, database)
            route = _auto_route(query, relations)
            if route == "yannakakis":
                with span("yannakakis_reduce"):
                    reduced = _yannakakis_reduce(relations)
                return all(reduced)
            # Cyclic body: leapfrog with limit=1 — the first full binding
            # decides the query, with nothing materialized at all.
            from repro.relational.wcoj import leapfrog_join

            return bool(leapfrog_join(relations, limit=1))
        return bool(_body_join(query, database, strategy))


def satisfying_assignments(
    query: ConjunctiveQuery, database: Structure, strategy: str | None = None
) -> Iterator[dict[Var, Any]]:
    """Iterate all assignments of *all* query variables that satisfy the body
    (the query's "satisfying valuations", not just the projected answers)."""
    joined = _body_join(query, database, strategy)
    for t in sorted(joined.tuples, key=repr):
        yield {Var(a): value for a, value in zip(joined.attributes, t)}
