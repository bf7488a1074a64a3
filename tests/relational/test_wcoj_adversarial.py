"""Adversarial instances for the leapfrog triejoin: the query families where
every pairwise plan provably blows up.

Each family is checked two ways:

* **Correctness** — the wcoj result equals the nested-loop scan oracle
  (and, through the CQ layer, every other execution) exactly.
* **The AGM gap** — on the quadratic star graph, the EvalStats trace shows
  the pairwise executions materializing Θ(n²) intermediate rows for a
  triangle output of constant size, while wcoj materializes only the
  output.  This is the Atserias–Grohe–Marx separation as a unit test; the
  E5-cyclic benchmark family measures its asymptotics.

The families: the triangle query on a star graph (every binary join is
quadratic regardless of order), k-cliques for k = 3..5, self-joins with
repeated predicates and repeated variables, and the Loomis–Whitney queries
LW(3)/LW(4) (each atom omits one variable — fractional edge cover ½ each).
"""

from itertools import combinations

import pytest

from repro.cq.evaluate import evaluate, evaluate_boolean
from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.relational.algebra import join_all
from repro.relational.relation import Relation
from repro.relational.stats import collect_stats
from repro.relational.wcoj import leapfrog_join
from repro.generators.graphs import random_digraph


def _canon(rel):
    return {frozenset(zip(rel.attributes, t)) for t in rel.tuples}


def star_edges(n):
    """The symmetric star on hub 0 plus one embedded triangle (1,2),(2,3),(3,1).

    Any binary join of two copies of ``E`` equates one variable and leaves
    the other two free, so it contains all Θ(n²) leaf pairs through the
    hub — no pairwise order avoids the blow-up — while the triangle output
    is a constant 24 rows independent of ``n``: the 4 undirected triangles
    ({1,2,3} and the hub with each of its edges) × 6 orientations each.
    """
    edges = set()
    for i in range(1, n + 1):
        edges.add((0, i))
        edges.add((i, 0))
    for u, v in ((1, 2), (2, 3), (3, 1)):
        edges.add((u, v))
        edges.add((v, u))
    return edges


def triangle_relations(edges):
    return [
        Relation(("x", "y"), edges),
        Relation(("y", "z"), edges),
        Relation(("z", "x"), edges),
    ]


def triangle_query():
    x, y, z = Var("x"), Var("y"), Var("z")
    return ConjunctiveQuery(
        "Q", (x, y, z), [Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, x))]
    )


def test_triangle_on_star_graph_all_executions_agree():
    edges = star_edges(12)
    rels = triangle_relations(edges)
    oracle = join_all(rels, strategy="textbook+scan")
    assert _canon(leapfrog_join(rels)) == _canon(oracle)
    # 4 undirected triangles × 6 orientations, independent of the star size.
    assert len(oracle) == 24


def test_triangle_on_star_graph_agm_gap():
    """The pairwise plans materialize the quadratic wedge set; wcoj
    materializes nothing but the 6-row output."""
    n = 20
    rels = triangle_relations(star_edges(n))

    with collect_stats() as pairwise:
        out = join_all(rels, strategy="indexed")
    with collect_stats() as wcoj:
        out_wcoj = leapfrog_join(rels)
    assert out_wcoj.tuples == {
        tuple(t[out.attributes.index(a)] for a in out_wcoj.attributes)
        for t in out.tuples
    }
    # Every leaf pair appears as a hub wedge in the first intermediate.
    assert pairwise.max_intermediate >= n * n
    # wcoj's only "intermediate" is the output relation itself.
    assert wcoj.max_intermediate == len(out_wcoj) == 24
    assert wcoj.trie_builds == 3
    assert wcoj.seeks > 0 and wcoj.leapfrog_rounds > 0


def test_triangle_through_cq_layer_all_strategies():
    edges = star_edges(8)
    db_relations = {"E": edges}
    from repro.relational.structure import Structure

    database = Structure({"E": 2}, range(9), db_relations)
    query = triangle_query()
    oracle = evaluate(query, database, strategy="textbook+scan")
    with collect_stats() as stats:
        for strategy in ("wcoj", "auto", "greedy+wcoj", "indexed"):
            assert _canon(evaluate(query, database, strategy=strategy)) == _canon(oracle)
        assert evaluate_boolean(query, database, strategy="auto") is True
    # strategy="auto" ran twice (evaluate + evaluate_boolean); both times the
    # cyclic triangle body routed to wcoj, and the decision was recorded.
    assert [d["route"] for d in stats.routing_decisions] == ["wcoj", "wcoj"]
    assert all(
        d["query"] == "Q" and not d["acyclic"] and d["signal"] == "gyo-acyclicity"
        for d in stats.routing_decisions
    )


def test_auto_routing_records_acyclic_decisions():
    """Acyclic bodies under strategy="auto" route to Yannakakis — and the
    decision (route, acyclicity, width signal) lands in EvalStats."""
    from repro.generators.queries import chain_query
    from repro.relational.structure import Structure

    database = Structure({"E": 2}, range(9), {"E": star_edges(8)})
    with collect_stats() as stats:
        evaluate(chain_query(4), database, strategy="auto")
        assert evaluate_boolean(chain_query(3), database, strategy="auto") is True
    assert [d["route"] for d in stats.routing_decisions] == [
        "yannakakis", "yannakakis",
    ]
    assert all(
        d["acyclic"] and d["signal"] == "gyo-acyclicity"
        for d in stats.routing_decisions
    )
    # The record round-trips through as_dict/merge like every other counter.
    merged = type(stats)()
    merged.merge(stats)
    assert merged.as_dict()["routing_decisions"] == stats.as_dict()["routing_decisions"]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_k_clique_matches_scan_oracle(k):
    """K_k enumeration: one binary atom per unordered variable pair."""
    database = random_digraph(9, 0.5, seed=k)
    # Symmetrize so cliques are undirected.
    edges = set(database.relation("E")) | {
        (b, a) for a, b in database.relation("E")
    }
    names = [f"v{i}" for i in range(k)]
    rels = [
        Relation((names[i], names[j]), edges) for i, j in combinations(range(k), 2)
    ]
    oracle = join_all(rels, strategy="textbook+scan")
    got = leapfrog_join(rels)
    assert _canon(got) == _canon(oracle)
    # Sanity: every output row is a genuine clique.
    for row in got.tuples:
        binding = dict(zip(got.attributes, row))
        for i, j in combinations(range(k), 2):
            assert (binding[names[i]], binding[names[j]]) in edges


@pytest.mark.parametrize("seed", range(5))
def test_self_join_repeated_predicates(seed):
    """Bodies reusing one predicate, including repeated variables (E(x,x))
    and back-and-forth atoms (E(x,y), E(y,x))."""
    database = random_digraph(7, 0.45, seed=seed, loops=True)
    x, y, z = Var("x"), Var("y"), Var("z")
    queries = [
        ConjunctiveQuery("Q", (x, y), [Atom("E", (x, y)), Atom("E", (y, x))]),
        ConjunctiveQuery("Q", (x,), [Atom("E", (x, x))]),
        ConjunctiveQuery(
            "Q", (x, y, z),
            [Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, x)),
             Atom("E", (x, x))],
        ),
        ConjunctiveQuery(
            "Q", (x, y), [Atom("E", (x, y)), Atom("E", (y, x)), Atom("E", (x, x))]
        ),
    ]
    for query in queries:
        oracle = evaluate(query, database, strategy="textbook+scan")
        for strategy in ("wcoj", "auto"):
            with collect_stats() as stats:
                got = evaluate(query, database, strategy=strategy)
            assert _canon(got) == _canon(oracle), f"{query!r} under {strategy}"
            if strategy == "auto":
                (decision,) = stats.routing_decisions
                assert decision["route"] == (
                    "yannakakis" if decision["acyclic"] else "wcoj"
                )


def _lw_relations(n_vars, rows):
    """Loomis–Whitney LW(n): one atom per (n-1)-subset of the variables.

    Each atom omits exactly one variable, so assigning every atom weight
    1/(n-1) is a fractional edge cover: AGM output bound N^{n/(n-1)},
    strictly below any pairwise intermediate's worst case.
    """
    names = [f"v{i}" for i in range(n_vars)]
    rels = []
    for omit in range(n_vars):
        attrs = tuple(names[i] for i in range(n_vars) if i != omit)
        rels.append(Relation(attrs, {row[: n_vars - 1] for row in rows}))
    return rels


@pytest.mark.parametrize("n_vars", [3, 4])
def test_loomis_whitney_matches_scan_oracle(n_vars):
    rows = {
        tuple((seed * 7 + j * 3) % 5 for j in range(n_vars))
        for seed in range(40)
    }
    rels = _lw_relations(n_vars, rows)
    oracle = join_all(rels, strategy="textbook+scan")
    assert _canon(leapfrog_join(rels)) == _canon(oracle)


def test_loomis_whitney_never_materializes_intermediates():
    rels = _lw_relations(3, {(i % 4, (i * i) % 4, (i + 1) % 4) for i in range(30)})
    with collect_stats() as stats:
        out = leapfrog_join(rels)
    assert stats.max_intermediate == len(out)
    assert stats.intermediate_sizes == [len(out)]
