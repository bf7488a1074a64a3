"""Multi-tenant workload generation for the query service benchmarks.

:func:`service_stream` builds the reproducible workload that
``repro bench-service`` and the E12 benchmark replay: a transitive-closure
program over a seeded random digraph, a stream interleaving conjunctive
queries from a handful of *templates* with EDB update batches.  Each
tenant writes its queries differently — :func:`equivalent_variant`
fresh-renames every variable, shuffles the body, and sometimes adds a
redundant (homomorphically implied) atom — so a naive syntactic cache
would miss almost every probe while the containment-keyed cache, probing
with the canonical key of the minimized query, collapses each template's
variants onto one entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Union

from repro.cq.parser import parse_query
from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.datalog.library import transitive_closure_program
from repro.datalog.syntax import Program

__all__ = [
    "QueryEvent",
    "UpdateEvent",
    "ServiceWorkload",
    "service_stream",
    "equivalent_variant",
]

#: The template pool (over the transitive-closure vocabulary ``E``/``T``)
#: that :func:`service_stream` draws from; ``templates=k`` uses the first k.
TEMPLATE_QUERIES = (
    "Q(X, Y) :- T(X, Y).",
    "Q(X, Z) :- E(X, Y), E(Y, Z).",
    "Q(X) :- T(X, X).",
    "Q(X, Z) :- E(X, Y), T(Y, Z).",
    "Q(Y) :- E(X, Y), T(Y, X).",
    "Q(X, W) :- E(X, Y), E(Y, Z), T(Z, W).",
)


@dataclass(frozen=True)
class QueryEvent:
    """One tenant asking one (variant-rewritten) template query."""

    tenant: int
    query: ConjunctiveQuery
    template: int


@dataclass(frozen=True)
class UpdateEvent:
    """One EDB update batch: per-predicate inserted and deleted rows."""

    inserts: dict[str, frozenset] = field(default_factory=dict)
    deletes: dict[str, frozenset] = field(default_factory=dict)


@dataclass(frozen=True)
class ServiceWorkload:
    """A reproducible service workload: program, initial EDB, event stream."""

    program: Program
    database: dict[str, frozenset]
    events: tuple[Union[QueryEvent, UpdateEvent], ...]
    templates: tuple[ConjunctiveQuery, ...]

    @property
    def query_events(self) -> int:
        return sum(1 for e in self.events if isinstance(e, QueryEvent))

    @property
    def update_events(self) -> int:
        return sum(1 for e in self.events if isinstance(e, UpdateEvent))


def equivalent_variant(
    query: ConjunctiveQuery, rng: random.Random
) -> ConjunctiveQuery:
    """A syntactically scrambled but logically equivalent rewrite.

    Every variable is fresh-renamed, the body atoms are shuffled, and with
    probability one half a *redundant* atom is appended: a copy of an
    existing body atom with one variable occurrence generalized to a fresh
    existential variable.  The copy is a homomorphic image of its
    original (map the fresh variable back), so it is implied and the
    variant stays equivalent — while defeating any cache keyed on query
    text or raw syntax.
    """
    variables = [v for v in query.variables() if isinstance(v, Var)]
    rename = {
        v: Var(f"v{rng.randrange(10**6)}_{i}") for i, v in enumerate(variables)
    }

    def sub(term):
        return rename.get(term, term)

    body = [
        Atom(atom.predicate, tuple(sub(t) for t in atom.terms))
        for atom in query.body
    ]
    rng.shuffle(body)
    if body and rng.random() < 0.5:
        original = rng.choice(body)
        var_positions = [
            i for i, t in enumerate(original.terms) if isinstance(t, Var)
        ]
        if var_positions:
            pos = rng.choice(var_positions)
            fresh = Var(f"w{rng.randrange(10**6)}")
            terms = list(original.terms)
            terms[pos] = fresh
            body.append(Atom(original.predicate, tuple(terms)))
    distinguished = tuple(sub(v) for v in query.distinguished)
    return ConjunctiveQuery(query.head_name, distinguished, body)


def service_stream(
    n_events: int = 200,
    *,
    templates: int = 4,
    tenants: int = 8,
    update_every: int = 14,
    nodes: int = 30,
    edges: int = 60,
    graph: str = "random",
    seed: int = 0,
) -> ServiceWorkload:
    """Generate the multi-tenant benchmark workload.

    Every ``update_every``-th event is an :class:`UpdateEvent`; the rest
    are :class:`QueryEvent` s drawing a template uniformly and scrambling
    it with :func:`equivalent_variant`.  With ``T`` templates, ``U``
    updates, and ``Q`` queries the containment cache's hit rate lies
    between ``1 - T * (U + 1) / Q`` and ``1 - T / Q``: each template
    misses on its first ask and after an update epoch in which nobody
    asked it (the next batch drops its stale entry); otherwise the
    epoch's first ask refreshes the entry and hits.

    ``graph`` picks the data shape and with it the update semantics:

    * ``"random"`` — a seeded random digraph on ``nodes``/``edges``; each
      update inserts one or two fresh edges and deletes one existing edge.
    * ``"hierarchy"`` — a random recursive forest (every node ``i > 0``
      gets a parent drawn uniformly below it, so ``|E| = nodes - 1``;
      ``edges`` is ignored); each update *reparents* one or two nodes to
      a fresh parent with a smaller index, which keeps the forest acyclic
      forever.  This is the classical view-maintenance steady state —
      org charts, file trees, category hierarchies — where each update's
      derivation cone is a small slice of the materialized closure, the
      regime delete-and-rederive is built for.
    """
    if not 1 <= templates <= len(TEMPLATE_QUERIES):
        raise ValueError(
            f"templates must be in 1..{len(TEMPLATE_QUERIES)}, got {templates}"
        )
    if graph not in ("random", "hierarchy"):
        raise ValueError(f"graph must be 'random' or 'hierarchy', got {graph!r}")
    rng = random.Random(seed)
    template_queries = tuple(
        parse_query(text) for text in TEMPLATE_QUERIES[:templates]
    )

    parent: dict[int, int] = {}
    if graph == "hierarchy":
        parent = {child: rng.randrange(child) for child in range(1, nodes)}
        edge_set = {(p, c) for c, p in parent.items()}
    else:
        edge_set = set()
        while len(edge_set) < edges:
            a, b = rng.randrange(nodes), rng.randrange(nodes)
            if a != b:
                edge_set.add((a, b))
    database = {"E": frozenset(edge_set)}

    def fresh_edge() -> tuple[int, int] | None:
        for _ in range(64):
            a, b = rng.randrange(nodes), rng.randrange(nodes)
            if a != b and (a, b) not in edge_set:
                return (a, b)
        return None

    def random_update() -> UpdateEvent:
        inserts = set()
        for _ in range(rng.randint(1, 2)):
            edge = fresh_edge()
            if edge is not None:
                inserts.add(edge)
        deletes = set()
        if edge_set:
            deletes.add(rng.choice(sorted(edge_set)))
        edge_set.update(inserts)
        edge_set.difference_update(deletes)
        return UpdateEvent({"E": frozenset(inserts)}, {"E": frozenset(deletes)})

    def reparent_update() -> UpdateEvent:
        inserts, deletes = set(), set()
        moved: set[int] = set()
        for _ in range(rng.randint(1, 2)):
            child = rng.randrange(1, nodes)
            new_parent = rng.randrange(child)
            # Skip no-ops and double moves of one child (whose delete and
            # insert sets would otherwise overlap within the batch).
            if new_parent == parent[child] or child in moved:
                continue
            moved.add(child)
            deletes.add((parent[child], child))
            inserts.add((new_parent, child))
            parent[child] = new_parent
        edge_set.difference_update(deletes)
        edge_set.update(inserts)
        return UpdateEvent({"E": frozenset(inserts)}, {"E": frozenset(deletes)})

    events: list[Union[QueryEvent, UpdateEvent]] = []
    for i in range(n_events):
        if update_every and (i + 1) % update_every == 0:
            events.append(
                reparent_update() if graph == "hierarchy" else random_update()
            )
        else:
            template = rng.randrange(templates)
            events.append(
                QueryEvent(
                    tenant=rng.randrange(tenants),
                    query=equivalent_variant(template_queries[template], rng),
                    template=template,
                )
            )
    return ServiceWorkload(
        transitive_closure_program(), database, tuple(events), template_queries
    )
