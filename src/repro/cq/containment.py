"""Conjunctive-query containment — the Chandra–Merlin theorem (Prop 2.2).

``Q1 ⊆ Q2`` (over all databases) is decided two equivalent ways, both
implemented and differentially tested:

* **evaluation**: check ``(X1,…,Xn) ∈ Q2(D^{Q1})`` on the canonical
  database of ``Q1``;
* **homomorphism**: search for a homomorphism ``D^{Q2} → D^{Q1}`` that
  matches the distinguished markers and fixes constants — directly over
  the two bodies' atoms, as a CSP whose variables are Q2's and whose
  constraints are Q2's atoms, with Q1's atoms as their allowed rows
  (generalized arc consistency plus branching; no canonical database,
  structure, evaluation or join planner is involved).

On top of containment we get equivalence and query *minimization* (the
core): greedily dropping body atoms while preserving equivalence yields the
unique-up-to-isomorphism minimal query.  Each drop is decided by one
homomorphism search from the body onto the body minus that atom.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.cq.canonical import canonical_database
from repro.cq.evaluate import evaluate
from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.errors import DomainError

__all__ = [
    "is_contained_in",
    "is_contained_in_via_homomorphism",
    "containment_homomorphism",
    "are_equivalent",
    "minimize",
]


def _check_compatible(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> None:
    if len(q1.distinguished) != len(q2.distinguished):
        raise DomainError(
            "containment requires the same number of distinguished variables"
        )


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Decide ``Q1 ⊆ Q2`` by evaluating ``Q2`` on the canonical database of
    ``Q1`` and checking for the tuple of Q1's distinguished variables."""
    _check_compatible(q1, q2)
    predicates = dict(q1.predicates())
    for name, arity in q2.predicates().items():
        if name in predicates and predicates[name] != arity:
            return False  # arity clash: the queries share no databases
        predicates.setdefault(name, arity)
    q2_constants = {t for atom in q2.body for t in atom.constants()}
    db = canonical_database(q1, extra_predicates=predicates, constants=q2_constants)
    answers = evaluate(q2, db)
    return tuple(q1.distinguished) in answers.tuples


def containment_homomorphism(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> dict | None:
    """A containment witness: a homomorphism ``D^{Q2} → D^{Q1}`` preserving
    distinguished markers and constants, or ``None``.

    Decided by :func:`_atom_homomorphism` over the two bodies directly:
    Q2's head maps positionally onto Q1's head (a repeated Q2 head
    variable with two different targets means there is none), constants
    map to themselves, and every other Q2 variable takes values among Q1's
    terms.  The witness covers the domain of ``D^{Q2}`` over the shared
    vocabulary — Q2's variables plus every constant of either query — so
    :func:`~repro.relational.homomorphism.is_homomorphism` holds for it on
    the canonical databases :func:`is_contained_in` would build.
    """
    _check_compatible(q1, q2)
    arities = dict(q1.predicates())
    for name, arity in q2.predicates().items():
        if arities.setdefault(name, arity) != arity:
            return None  # arity clash: the queries share no databases
    terms: dict[Any, int] = {}
    source, target = _encode(q2.body, terms), _encode(q1.body, terms)
    pinned = {code: code for t, code in terms.items() if not isinstance(t, Var)}
    for v, w in zip(q2.distinguished, q1.distinguished):
        if pinned.setdefault(terms[v], terms[w]) != terms[w]:
            return None
    valuation = _atom_homomorphism(source, target, pinned)
    if valuation is None:
        return None
    term_of = list(terms)
    return {term_of[k]: term_of[v] for k, v in valuation.items()}


_Coded = tuple[str, tuple[int, ...]]


def _encode(body: Sequence[Atom], terms: dict[Any, int]) -> list[_Coded]:
    """The atoms as ``(predicate, term codes)``, interning each term (a
    variable or a constant) to a small int in ``terms`` — so the search
    hashes ints, never :class:`~repro.cq.query.Var` objects."""
    return [
        (atom.predicate, tuple(terms.setdefault(t, len(terms)) for t in atom.terms))
        for atom in body
    ]


def _atom_homomorphism(
    source: Sequence[_Coded], target: Sequence[_Coded], pinned: Mapping[int, int]
) -> dict[int, int] | None:
    """A valuation of the ``source`` atoms' terms that extends ``pinned``
    and maps every source atom onto a ``target`` atom, or ``None``.

    Terms are codes (:func:`_encode`); a source term is fixed to its
    ``pinned`` value (constants are pinned to themselves) and is a free
    variable otherwise.  The search is a CSP whose instance side is the
    source body: each free term is a CSP variable, and each source atom a
    constraint whose allowed rows are the target atoms of its predicate and
    arity that agree with its fixed terms and repeated variables.
    Generalized arc consistency runs to a fixpoint before the search
    branches, on the variable with the smallest domain, and again after
    every branch.  Propagation is what keeps the refutations of
    :func:`minimize`'s drop loop cheap: arc consistency alone decides
    source bodies of treewidth 1, such as chains and trees of binary atoms
    (Section 6), where an unpropagated backtracker re-explores the same
    dead ends exponentially often.
    """
    rows_of: dict[tuple[str, int], list[tuple[int, ...]]] = {}
    for predicate, codes in target:
        rows_of.setdefault((predicate, len(codes)), []).append(codes)
    scopes: list[tuple[int, ...]] = []
    tables: list[list[tuple[int, ...]]] = []
    for predicate, codes in source:
        rows = rows_of.get((predicate, len(codes)))
        if rows is None:
            return None
        # Per term: the value it must take, or the first slot of its term.
        fixed: list[tuple[int, int]] = []
        repeats: list[tuple[int, int]] = []
        slot_of: dict[int, int] = {}
        for i, term in enumerate(codes):
            if term in pinned:
                fixed.append((i, pinned[term]))
            elif term in slot_of:
                repeats.append((i, slot_of[term]))
            else:
                slot_of[term] = i
        if fixed or repeats:
            slots = tuple(slot_of.values())
            allowed = {
                tuple([row[i] for i in slots])
                for row in rows
                if all(row[i] == value for i, value in fixed)
                and all(row[i] == row[j] for i, j in repeats)
            }
            if not allowed:
                return None
            if slots:
                scopes.append(tuple(slot_of))
                tables.append(list(allowed))
        else:
            scopes.append(codes)
            tables.append(rows)
    domains: dict[int, set[int]] = {}
    watchers: dict[int, list[int]] = {}
    for c, (scope, table) in enumerate(zip(scopes, tables)):
        for k, v in enumerate(scope):
            support = {row[k] for row in table}
            domains[v] = domains[v] & support if v in domains else support
            watchers.setdefault(v, []).append(c)
    if not _propagate(domains, tables, scopes, watchers, set(range(len(scopes)))):
        return None
    solution = _branch(domains, tables, scopes, watchers)
    if solution is None:
        return None
    valuation = dict(pinned)
    for v, values in solution.items():
        (valuation[v],) = values
    return valuation


def _propagate(
    domains: dict[int, set[int]],
    tables: list[list[tuple[int, ...]]],
    scopes: list[tuple[int, ...]],
    watchers: dict[int, list[int]],
    pending: set[int],
) -> bool:
    """Generalized arc consistency to a fixpoint, in place: each revised
    constraint keeps the rows inside the current domains and shrinks each
    domain to the values those rows support.  ``False`` on a wipeout."""
    while pending:
        c = pending.pop()
        scope = scopes[c]
        current = [domains[v] for v in scope]
        rows = [
            row for row in tables[c] if all(x in d for x, d in zip(row, current))
        ]
        if not rows:
            return False
        tables[c] = rows
        for k, v in enumerate(scope):
            support = {row[k] for row in rows}
            if len(support) < len(current[k]):
                domains[v] = support
                pending.update(watchers[v])
    return True


def _branch(
    domains: dict[int, set[int]],
    tables: list[list[tuple[int, ...]]],
    scopes: list[tuple[int, ...]],
    watchers: dict[int, list[int]],
) -> dict[int, set[int]] | None:
    """Search below an arc-consistent node: every domain a singleton is a
    solution; otherwise try each value of the smallest open domain and
    re-propagate on a copy of the node."""
    var = None
    for v, values in domains.items():
        if len(values) > 1 and (var is None or len(values) < len(domains[var])):
            var = v
    if var is None:
        return domains
    for value in domains[var]:
        trial = dict(domains)
        trial[var] = {value}
        trial_tables = list(tables)
        if _propagate(trial, trial_tables, scopes, watchers, set(watchers[var])):
            found = _branch(trial, trial_tables, scopes, watchers)
            if found is not None:
                return found
    return None


def is_contained_in_via_homomorphism(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> bool:
    """Decide ``Q1 ⊆ Q2`` by the homomorphism criterion of Prop 2.2."""
    return containment_homomorphism(q1, q2) is not None


def are_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Whether ``Q1`` and ``Q2`` return the same answers on every database."""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of the query: a minimal equivalent subquery.

    Repeatedly drops a body atom when the remaining query is still
    equivalent (safety of the head is preserved by construction of the
    candidate).  The result is minimal: no further atom can be dropped.

    A candidate keeps the head and a subset of the body, so the identity
    valuation always witnesses ``query ⊆ candidate``; only ``candidate ⊆
    query`` is decided, as one :func:`_atom_homomorphism` search that maps
    the current body onto the candidate's with the head variables (and
    constants) pinned to themselves — a retraction of the body that misses
    the dropped atom.
    """
    terms: dict[Any, int] = {}
    coded = _encode(query.body, terms)
    head = {terms[v] for v in query.distinguished}
    pinned = {
        code: code for t, code in terms.items() if code in head or not isinstance(t, Var)
    }
    kept = list(range(len(coded)))
    changed = True
    while changed:
        changed = False
        body = [coded[j] for j in kept]
        for i in range(len(kept)):
            candidate = body[:i] + body[i + 1 :]
            if not candidate:
                continue
            if not head <= {t for _, codes in candidate for t in codes}:
                continue
            if _atom_homomorphism(body, candidate, pinned) is not None:
                del kept[i]
                changed = True
                break
    return ConjunctiveQuery(
        query.head_name, query.distinguished, [query.body[j] for j in kept]
    )
