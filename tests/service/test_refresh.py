"""The refresh wall: a cache entry a batch made stale is brought forward
from the batch's deltas on its next probe, and the refreshed answer is
the answer uncached evaluation gives on the new state.

Hypothesis draws random conjunctive queries — constants, repeated body
and head variables, Boolean heads, self-joins, a predicate in several
atoms — over the transitive-closure program and the coherence wall's
non-recursive program, both maintained by DRed.  Each example asks a
query, applies one mixed insert/delete batch (no-ops included) and asks
the query again.  The fixed cases pin the one-generation semantics: what
a second batch drops, what an untouched entry keeps, which tiers refresh,
that handed-out answers never change, and when the superseded structure
is released.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.containment import minimize
from repro.cq.evaluate import atom_relation, evaluate
from repro.cq.parser import parse_query
from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.datalog.library import transitive_closure_program
from repro.datalog.parser import parse_program
from repro.relational.relation import Relation
from repro.relational.stats import collect_stats
from repro.service.cache import ResultCache
from repro.service.core import QueryService

NODES = 5

#: The coherence wall's non-recursive program.
NONREC = parse_program(
    """
    H(X, Z) :- E(X, Y), E(Y, Z).
    M(X, Z) :- H(X, Z), L(X).
    """,
    goal="M",
)

#: (program, EDB predicate -> arity)
SETUPS = {
    "tc-dred": (transitive_closure_program(), {"E": 2}),
    "nonrec-dred": (NONREC, {"E": 2, "L": 1}),
}

VARIABLES = [Var(f"V{i}") for i in range(4)]
#: Terms: variables twice as likely as each constant.
TERMS = st.sampled_from([*VARIABLES, *VARIABLES, 0, 1, 2])


@st.composite
def queries(draw, arities: dict[str, int]) -> ConjunctiveQuery:
    predicates = sorted(arities)
    body = [
        Atom(p, [draw(TERMS) for _ in range(arities[p])])
        for p in draw(st.lists(st.sampled_from(predicates), min_size=1, max_size=4))
    ]
    variables = list(dict.fromkeys(v for atom in body for v in atom.variables()))
    head = draw(st.lists(st.sampled_from(variables), max_size=3)) if variables else []
    return ConjunctiveQuery("Q", head, body)


def rows(arity: int):
    return st.tuples(*[st.integers(0, NODES - 1)] * arity)


@st.composite
def states(draw, edb: dict[str, int]) -> dict[str, set]:
    return {p: draw(st.sets(rows(a), max_size=2 * NODES)) for p, a in edb.items()}


@st.composite
def batches(draw, state: dict[str, set], edb: dict[str, int]) -> tuple[dict, dict]:
    """Random inserts and deletes per EDB predicate, with re-inserts of
    present facts and deletes of absent ones among them."""
    inserts, deletes = {}, {}
    for p, arity in edb.items():
        ins = draw(st.sets(rows(arity), max_size=3))
        dels = draw(st.sets(rows(arity), max_size=2))
        present = sorted(state[p])
        if present:
            ins |= draw(st.sets(st.sampled_from(present), max_size=2))
            dels |= draw(st.sets(st.sampled_from(present), max_size=3))
        inserts[p], deletes[p] = ins, dels
    return inserts, deletes


@pytest.mark.parametrize("setup", sorted(SETUPS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_refreshed_answer_is_the_answer_on_the_new_state(setup, data):
    program, edb = SETUPS[setup]
    query = data.draw(queries(program.arities()), label="query")
    state = data.draw(states(edb), label="state")
    service = QueryService(program, state)
    assert service.ask(query).outcome == "miss"

    inserts, deletes = data.draw(batches(state, edb), label="batch")
    report = service.update(inserts=inserts, deletes=deletes)
    refreshes = service.cache.stats.refreshes
    answer = service.ask(query)

    touched = report.dirty & {a.predicate for a in minimize(query).body}
    assert answer.outcome != "miss"
    assert service.cache.stats.refreshes == refreshes + (1 if touched else 0)
    assert answer.result == evaluate(query, service.engine.as_structure())


def tc_service(edges=((1, 2), (2, 3))):
    return QueryService(transitive_closure_program(), {"E": set(edges)})


def test_an_entry_stale_across_a_second_batch_is_a_miss():
    svc = tc_service()
    svc.ask("Q(X, Y) :- T(X, Y).")
    svc.update(inserts={"E": {(3, 4)}})
    svc.update(deletes={"E": {(1, 2)}})
    answer = svc.ask("Q(X, Y) :- T(X, Y).")
    assert answer.outcome == "miss"
    assert svc.cache.stats.refreshes == 0
    assert sorted(answer.result.tuples) == [(2, 3), (2, 4), (3, 4)]


def test_an_entry_the_batch_did_not_touch_stays_a_hit_without_a_refresh():
    svc = QueryService(NONREC, {"E": {(1, 2), (2, 3)}, "L": {(1,)}})
    first = svc.ask("Q(X) :- L(X).")
    report = svc.update(inserts={"E": {(3, 4)}})
    assert "L" not in report.dirty and report.dirty
    again = svc.ask("P(A) :- L(A).")
    assert again.outcome == "equivalence"
    assert again.result.tuples is first.result.tuples
    assert svc.cache.stats.refreshes == 0


def test_a_projection_probe_refreshes_the_wider_entry():
    svc = tc_service()
    svc.ask("Q(X, Y) :- T(X, Y).")
    svc.update(inserts={"E": {(0, 1)}})
    answer = svc.ask("P(A) :- T(A, B).")
    assert answer.outcome == "projection"
    assert svc.cache.stats.refreshes == 1
    assert answer.result == evaluate(
        parse_query("P(A) :- T(A, B)."), svc.engine.as_structure()
    )
    assert sorted(answer.result.tuples) == [(0,), (1,), (2,)]


def cycle_query(length: int = 11, tag: str = "") -> ConjunctiveQuery:
    """The Boolean directed cycle of prime length over ``E``: a core with no
    canonical key, so it is cached in the keyless containment tier."""
    vs = [Var(f"{tag}v{i}") for i in range(length)]
    body = [Atom("E", (vs[i], vs[(i + 1) % length])) for i in range(length)]
    return ConjunctiveQuery("Q", (), body)


def test_a_keyless_probe_refreshes_the_entry_it_matches():
    svc = tc_service()
    assert not svc.ask(cycle_query()).result  # no closed walk of length 11
    svc.update(inserts={"E": {(4, 4)}})  # a self-loop walks any length
    answer = svc.ask(cycle_query(tag="renamed_"))
    assert answer.outcome == "equivalence"
    assert svc.cache.stats.containment_probes >= 1
    assert svc.cache.stats.refreshes == 1
    assert answer.result.tuples == frozenset({()})


@pytest.mark.parametrize(
    "text, after",
    [
        ("Q(X, Y) :- T(X, Y).", [(2, 3), (2, 4), (3, 4)]),
        ("Q(X, Z) :- E(X, Y), T(Y, Z).", [(2, 4)]),
    ],
)
def test_answers_handed_out_earlier_never_change(text, after):
    svc = tc_service()
    first = svc.ask(text)
    rows_before = set(first.result.tuples)
    svc.update(inserts={"E": {(3, 4)}}, deletes={"E": {(1, 2)}})
    second = svc.ask(text)
    assert second.outcome == "exact"
    assert second.result is not first.result
    assert set(first.result.tuples) == rows_before
    assert sorted(second.result.tuples) == after


def test_the_previous_structure_is_released_once_no_entry_is_stale():
    svc = tc_service()
    svc.ask("Q(X, Y) :- T(X, Y).")
    svc.ask("Q(X, Z) :- E(X, Y), E(Y, Z).")
    before = svc.engine.as_structure()
    svc.update(inserts={"E": {(3, 4)}})
    assert svc.cache.stale == 2
    assert svc._previous[0] is before
    svc.ask("Q(X, Y) :- T(X, Y).")
    assert svc.cache.stale == 1 and svc._previous is not None
    svc.ask("Q(X, Z) :- E(X, Y), E(Y, Z).")
    assert svc.cache.stale == 0 and svc._previous is None


def test_an_update_keeps_nothing_for_an_empty_cache(monkeypatch):
    svc = tc_service()
    built = []
    as_structure = svc.engine.as_structure
    monkeypatch.setattr(svc.engine, "as_structure", lambda: built.append(1) or as_structure())
    svc.update(inserts={"E": {(3, 4)}})
    assert built == [] and svc._previous is None


def test_a_warm_generation_refreshes_without_building_an_index():
    """Refreshes start from the deltas and probe indexes warmed on the
    maintained relations, which the pools adopt and keep current: once the
    first batches have taught the pools their keys, refreshing the six
    serve-read templates builds no index at all, and evaluates nothing."""
    templates = [
        "Q(X, Y) :- T(X, Y).",
        "Q(X, Z) :- E(X, Y), E(Y, Z).",
        "Q(X, Y, Z) :- E(X, Y), E(Y, Z), T(X, Z).",
        "Q(X, Z) :- E(X, Y), T(Y, Z).",
        "Q(Y) :- E(X, Y), T(Y, W).",
        "Q(X, W) :- E(X, Y), E(Y, Z), T(Z, W).",
    ]
    rng = random.Random(5)
    parent = {child: rng.randrange(child // 2, child) for child in range(1, 300)}
    svc = QueryService(
        transitive_closure_program(), {"E": {(p, c) for c, p in parent.items()}}
    )
    for text in templates:
        svc.ask(text)
    for batch in range(4):
        child = rng.randrange(150, 300)
        new_parent = rng.choice([p for p in range(child // 2, child) if p != parent[child]])
        svc.update(
            inserts={"E": {(new_parent, child)}}, deletes={"E": {(parent[child], child)}}
        )
        parent[child] = new_parent
        refreshes = svc.cache.stats.refreshes
        with collect_stats() as stats:
            answers = [svc.ask(text) for text in templates]
        assert svc.cache.stats.refreshes == refreshes + len(templates)
        assert all(a.outcome == "exact" for a in answers)
        structure = svc.engine.as_structure()
        for text, answer in zip(templates, answers):
            assert answer.result == evaluate(parse_query(text), structure), text
        if batch >= 2:
            assert stats.index_builds == 0, batch
    # An atom whose variables are all bound tests membership in its rows:
    # no full-row twin of the (0, 1) key is indexed over E or T.
    structure = svc.engine.as_structure()
    for predicate in ("E", "T"):
        memo = atom_relation(Atom(predicate, (Var("A"), Var("B"))), structure).row_memo
        assert (1, 0) not in memo.indexes, predicate


@pytest.mark.parametrize("strategy", ["wcoj", "textbook+scan"])
def test_a_refresh_runs_on_the_default_fold_whatever_the_strategy(strategy):
    svc = QueryService(
        transitive_closure_program(), {"E": {(1, 2), (2, 3), (3, 1)}}, strategy=strategy
    )
    text = "Q(X, Y, Z) :- E(X, Y), E(Y, Z), T(X, Z)."
    svc.ask(text)
    svc.update(inserts={"E": {(3, 4)}}, deletes={"E": {(3, 1)}})
    answer = svc.ask(text)
    assert answer.outcome == "exact" and svc.cache.stats.refreshes == 1
    assert answer.result == evaluate(parse_query(text), svc.engine.as_structure(), strategy)


def test_without_a_refresher_a_fresh_answer_supersedes_the_stale_one():
    """A cache without a refresher misses on a stale entry; the answer
    stored for an equivalent probe then takes over the entry's key, so
    the next probe hits instead of missing again."""
    cache = ResultCache()
    first = minimize(parse_query("Q(X, Y) :- E(X, Y)."))
    cache.store(first, Relation(("X", "Y"), [(1, 2)]))
    cache.invalidate({"E"})
    probe = minimize(parse_query("P(A, B) :- E(A, B)."))
    assert cache.lookup(probe) == ("miss", None)
    cache.store(probe, Relation(("A", "B"), [(1, 2), (2, 3)]))
    outcome, result = cache.lookup(probe)
    assert outcome == "exact" and len(result) == 2
    assert cache.stale == 0 and len(cache) == 1
