"""Seeded workload inputs, owned by the benchmark.

Nothing here imports ``repro``: the generators live in the benchmark's own
files, so a change to ``repro.service.stream`` or ``repro.generators``
cannot change what is measured.  Every input is a plain value (ints,
tuples, query text) that the replay hands to the program, and the same
seed always gives the same inputs (:func:`fingerprint`).

The forests have the expected depth profile of a random recursive tree
and only their wiring is random, so every seed maintains a closure of the
same size and asks of the same cost.  Updates move a node below another
parent on the same level, which keeps the profile, and the forest acyclic,
for the whole run.

Why each workload exists:

* ``serve-read`` — 6 equivalent-variant query templates over a 1000-node
  forest, one reparenting batch every 20th event.  The 6 cores fit the
  512-entry result cache and 13 of the 19 asks between updates hit (68 %),
  so the median ask is the hit path (parse, minimize, canonical key,
  lookup) and the p90 ask is the miss path (evaluation).
* ``serve-write`` — point lookups over a 2000-node forest with a
  reparenting batch every other event.  Every update dirties ``E`` and
  ``T``, so every ask misses and pays the post-update rebuild: the mirror
  image of ``serve-read`` on the same service layer.
* ``csp-solve`` — model-B random binary CSPs near the phase transition,
  all routed to MAC search.  It bypasses the service, the cache and
  Datalog entirely.

``BENCHMARK.json`` gates serve-read and csp-solve.  serve-write runs on
demand: on a shared 2-core host its 0.1-0.2 s build and its three-class
ask mix spread beyond the 25 % bounds from one set of runs to the next.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "Ask",
    "LOOKUPS",
    "Update",
    "CSP_DOMAIN",
    "CSP_VARIABLES",
    "READ_TEMPLATES",
    "TC_PROGRAM",
    "FORESTS",
    "WORKLOAD_NAMES",
    "csp_pool",
    "fingerprint",
    "forest_stream",
    "level_sizes",
    "variant",
]

WORKLOAD_NAMES = ("serve-read", "serve-write", "csp-solve")

#: The Datalog program the serve-* workloads keep materialized.
TC_PROGRAM = """
T(X, Y) :- E(X, Y).
T(X, Y) :- T(X, Z), E(Z, Y).
"""

#: serve-read's query templates: name -> (head variables, body atoms).
#: ``E`` holds (parent, child) edges of a forest and ``T`` its closure.
#: ``triangle`` is cyclic (its body hypergraph has no join tree).
READ_TEMPLATES: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str, str], ...]]] = {
    "pairs": (("X", "Y"), (("T", "X", "Y"),)),
    "grandparent": (("X", "Z"), (("E", "X", "Y"), ("E", "Y", "Z"))),
    "triangle": (
        ("X", "Y", "Z"),
        (("E", "X", "Y"), ("E", "Y", "Z"), ("T", "X", "Z")),
    ),
    "below_child": (("X", "Z"), (("E", "X", "Y"), ("T", "Y", "Z"))),
    "inner_node": (("Y",), (("E", "X", "Y"), ("T", "Y", "W"))),
    "below_grandchild": (
        ("X", "W"),
        (("E", "X", "Y"), ("E", "Y", "Z"), ("T", "Z", "W")),
    ),
}

#: serve-write's point lookups on a node ``c``.
LOOKUPS = {
    "descendants": "Q(Y) :- T({c}, Y).",
    "ancestors": "Q(X) :- T(X, {c}).",
    "children": "Q(Y) :- E({c}, Y).",
}

#: Forest size and update period per serve-* workload.
FORESTS = {
    "serve-read": {"nodes": 1000, "update_every": 20},
    "serve-write": {"nodes": 2000, "update_every": 2},
}

CSP_VARIABLES = 20
CSP_DOMAIN = 6
CSP_CONSTRAINTS = 60
#: Disallowed pairs per constraint: round(0.42 * 6 * 6).
CSP_FORBIDDEN = 15
#: Distinct instances in the csp-solve pool (the replay cycles over it).
CSP_POOL = 600

#: Events of a stream that :func:`fingerprint` hashes.
FINGERPRINT_EVENTS = 400


@dataclass(frozen=True)
class Ask:
    """One query: the text sent to ``QueryService.ask`` and the answer
    ``form`` the oracle computes (a template name or a lookup kind on
    ``node``)."""

    text: str
    form: str
    node: int = -1


@dataclass(frozen=True)
class Update:
    """One reparenting batch of ``E`` edges."""

    inserts: frozenset
    deletes: frozenset


Event = Union[Ask, Update]


def variant(head: tuple[str, ...], body, rng: random.Random) -> str:
    """A scrambled but equivalent rewrite of a template, as query text.

    Every variable gets a fresh uppercase name, the body is shuffled, and
    with probability one half a redundant atom is appended: a copy of a
    body atom with one variable generalized to a fresh existential one,
    which the original implies.
    """
    names: dict[str, str] = {}

    def fresh(var: str) -> str:
        if var not in names:
            names[var] = f"V{rng.randrange(10**6)}_{len(names)}"
        return names[var]

    atoms = [(p, fresh(a), fresh(b)) for p, a, b in body]
    rng.shuffle(atoms)
    if rng.random() < 0.5:
        p, a, b = rng.choice(atoms)
        extra = fresh(f"extra{len(names)}")
        atoms.append((p, extra, b) if rng.random() < 0.5 else (p, a, extra))
    head_text = ", ".join(fresh(v) for v in head)
    body_text = ", ".join(f"{p}({a}, {b})" for p, a, b in atoms)
    return f"Q({head_text}) :- {body_text}."


def level_sizes(nodes: int) -> list[int]:
    """Nodes per depth of a forest on ``nodes`` nodes: the expected profile
    of a random recursive tree, whose depths are about Poisson(ln nodes)."""
    mean = math.log(nodes)
    sizes = []
    for depth in itertools.count():
        size = round(nodes * math.exp(-mean) * mean**depth / math.factorial(depth))
        if depth > mean and size == 0:
            break
        sizes.append(max(size, 1))
    sizes[sizes.index(max(sizes))] += nodes - sum(sizes)
    return sizes


def forest_stream(workload: str, seed: int) -> tuple[frozenset, Iterator[Event]]:
    """The initial ``E`` edges and the endless event stream of a serve-*
    workload.

    Nodes are numbered level by level (:func:`level_sizes`) and each hangs
    below a uniformly drawn node of the level above.  Updates alternate
    between moving one and two nodes of depth two or more below another
    parent on the same level.  Asks cycle through the templates (or lookup
    kinds) in shuffled rounds.
    """
    spec = FORESTS[workload]
    nodes, update_every = spec["nodes"], spec["update_every"]
    rng = random.Random(f"{workload}/{seed}")
    starts = list(itertools.accumulate([0] + level_sizes(nodes)))
    depth = [d for d in range(len(starts) - 1) for _ in range(starts[d], starts[d + 1])]
    parent = {
        child: rng.randrange(starts[depth[child] - 1], starts[depth[child]])
        for child in range(1, nodes)
    }
    edges = frozenset((p, c) for c, p in parent.items())

    def reparent(moves: int) -> Update:
        inserts: set = set()
        deletes: set = set()
        moved: set = set()
        while len(moved) < moves:
            child = rng.randrange(starts[2], nodes)
            new_parent = rng.randrange(starts[depth[child] - 1], starts[depth[child]])
            if new_parent == parent[child] or child in moved:
                continue
            moved.add(child)
            deletes.add((parent[child], child))
            inserts.add((new_parent, child))
            parent[child] = new_parent
        return Update(frozenset(inserts), frozenset(deletes))

    def shuffled(items: list) -> Iterator:
        """Endless shuffled rounds: every item once per round, so the mix
        is the same for every seed and only the order is random."""
        while True:
            yield from rng.sample(items, len(items))

    def events() -> Iterator[Event]:
        template_order = shuffled(list(READ_TEMPLATES.items()))
        lookup_order = shuffled(list(LOOKUPS.items()))
        for i in itertools.count(1):
            if i % update_every == 0:
                yield reparent(moves=1 + (i // update_every) % 2)
            elif workload == "serve-read":
                name, (head, body) = next(template_order)
                yield Ask(variant(head, body, rng), name)
            else:
                kind, text = next(lookup_order)
                node = rng.randrange(nodes)
                yield Ask(text.format(c=node), kind, node)

    return edges, events()


def csp_pool(seed: int, size: int = CSP_POOL) -> list[tuple]:
    """Model-B random binary CSPs: each instance picks ``CSP_CONSTRAINTS``
    distinct variable pairs and, per pair, forbids exactly
    ``CSP_FORBIDDEN`` of the ``CSP_DOMAIN ** 2`` value pairs.  An instance
    is a tuple of ``((x, y), allowed_pairs)`` constraints."""
    rng = random.Random(f"csp-solve/{seed}")
    all_pairs = [(u, v) for u in range(CSP_DOMAIN) for v in range(CSP_DOMAIN)]
    pool = []
    for _ in range(size):
        scopes: set = set()
        while len(scopes) < CSP_CONSTRAINTS:
            x, y = sorted(rng.sample(range(CSP_VARIABLES), 2))
            scopes.add((x, y))
        instance = []
        for scope in sorted(scopes):
            forbidden = set(rng.sample(all_pairs, CSP_FORBIDDEN))
            instance.append(
                (scope, tuple(p for p in all_pairs if p not in forbidden))
            )
        pool.append(tuple(instance))
    return pool


def fingerprint(workload: str, seed: int) -> str:
    """A short digest of a workload's inputs for one seed: the initial
    state plus the first :data:`FINGERPRINT_EVENTS` events, or the whole
    CSP pool."""
    digest = hashlib.sha256(workload.encode())
    if workload == "csp-solve":
        digest.update(repr(csp_pool(seed)).encode())
    else:
        edges, stream = forest_stream(workload, seed)
        digest.update(TC_PROGRAM.encode())
        digest.update(repr(sorted(edges)).encode())
        for _, event in zip(range(FINGERPRINT_EVENTS), stream):
            if isinstance(event, Update):
                event = (sorted(event.inserts), sorted(event.deletes))
            digest.update(repr(event).encode())
    return digest.hexdigest()[:16]
