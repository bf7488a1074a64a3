"""Datalog evaluation under every join strategy against one oracle.

``evaluate_naive(..., strategy="textbook+scan")`` joins every rule body in
its written order by nested loops and projects the head at the end, so it
never takes the indexed kernel, which projects while it joins.  ``evaluate_seminaive`` under
every order × execution, and ``IncrementalEvaluation`` under the default,
``wcoj`` and ``textbook+scan`` strategies through a stream of
insert/delete batches, must derive exactly its facts — on transitive
closure, non-2-colourability, and a program with a fact, a constant head
term, a repeated head variable and a Boolean head.
"""

import random

import pytest

from repro.datalog.engine import evaluate_naive, evaluate_seminaive
from repro.datalog.incremental import IncrementalEvaluation
from repro.datalog.library import (
    non_two_colorability_program,
    transitive_closure_program,
)
from repro.datalog.parser import parse_program
from repro.relational.planner import EXECUTIONS, STRATEGIES

HEADS = parse_program(
    """
    S(0, 1).
    R(X, Y) :- S(X, Y).
    R(X, Y) :- R(X, Z), E(Z, Y).
    Tag(X, marked) :- R(X, 2).
    Pair(X, X) :- E(X, Y), E(Y, X).
    Loop :- E(X, X).
    """,
    goal="R",
)

PROGRAMS = {
    "closure": transitive_closure_program(),
    "non2col": non_two_colorability_program(),
    "heads": HEADS,
}

SPECS = [f"{order}+{execution}" for order in STRATEGIES for execution in EXECUTIONS]

MAINTAINED = [None, "wcoj", "textbook+scan"]


def oracle(program, edges):
    return evaluate_naive(program, {"E": edges}, strategy="textbook+scan")


def random_edges(rng, nodes=5):
    return {(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(rng.randrange(1, 9))}


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_seminaive_matches_the_oracle_under_every_strategy(name, spec):
    program = PROGRAMS[name]
    rng = random.Random(f"{name} {spec}")
    for _ in range(6):
        edges = random_edges(rng)
        assert evaluate_seminaive(program, {"E": edges}, strategy=spec) == oracle(
            program, edges
        ), edges


@pytest.mark.parametrize("strategy", MAINTAINED)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_maintenance_matches_the_oracle_under_every_strategy(name, strategy):
    program = PROGRAMS[name]
    rng = random.Random(f"{name} {strategy}")
    edges = random_edges(rng)
    inc = IncrementalEvaluation(program, {"E": edges}, strategy=strategy)
    assert inc.idb_values() == oracle(program, edges)
    for _ in range(8):
        inserts = random_edges(rng)
        deletes = set(rng.sample(sorted(edges), k=min(len(edges), rng.randrange(3))))
        inc.apply(inserts={"E": inserts}, deletes={"E": deletes})
        edges = (edges - deletes) | inserts
        assert inc.idb_values() == oracle(program, edges), (inserts, deletes)
