"""A structure handed out before an update keeps indexes that match its rows.

The index pools copy each index once per batch and edit that copy in place
at the batch's later syncs, so the index a batch starts from — which the
structure of the generation before still shares, and which
``QueryService`` reads to refresh cached answers — must never be mutated.
Each stream below keeps every structure it reads, warms its atoms' indexes
through reads, and checks after every later batch that each kept
structure's indexes still equal ones rebuilt from its own rows.
"""

import random

import pytest

from repro.cq.evaluate import atom_relation, evaluate
from repro.cq.parser import parse_query
from repro.cq.query import Atom, Var
from repro.datalog.engine import evaluate_seminaive
from repro.datalog.incremental import IncrementalEvaluation
from repro.datalog.library import transitive_closure_program

TC = transitive_closure_program()

READS = [
    parse_query("Q(X, Z) :- E(X, Y), T(Y, Z)."),
    parse_query("Q(X, Y) :- T(X, Z), E(Z, Y)."),
    parse_query("Q(X, Z) :- E(X, Y), E(Y, Z)."),
]


def assert_indexes_match_rows(structure):
    for predicate in ("E", "T"):
        rows = structure.relation(predicate)
        relation = atom_relation(Atom(predicate, (Var("A"), Var("B"))), structure)
        for positions, index in relation.row_memo.indexes.items():
            rebuilt: dict = {}
            for row in rows:
                rebuilt.setdefault(tuple(row[i] for i in positions), []).append(row)
            assert {k: sorted(v) for k, v in index.items()} == {
                k: sorted(v) for k, v in rebuilt.items()
            }, (predicate, positions)


@pytest.mark.parametrize("seed", range(8))
def test_kept_structures_keep_their_indexes(seed):
    rng = random.Random(seed)
    edges = {(rng.randrange(8), rng.randrange(8)) for _ in range(10)}
    engine = IncrementalEvaluation(TC, {"E": edges})
    kept = []
    for _ in range(8):
        structure = engine.as_structure()
        for query in READS:
            evaluate(query, structure)
        kept.append(structure)
        deletes = set(rng.sample(sorted(edges), k=min(len(edges), rng.randrange(3))))
        inserts = {(rng.randrange(8), rng.randrange(8)) for _ in range(rng.randrange(3))}
        engine.apply(inserts={"E": inserts}, deletes={"E": deletes})
        edges = (edges - deletes) | inserts
        for structure in kept:
            assert_indexes_match_rows(structure)
    assert engine.value("T") == evaluate_seminaive(TC, {"E": edges})["T"]
