"""QueryService: query answers always match direct evaluation (cached or
not), updates invalidate, latencies land in the histograms."""

import random

import pytest

from repro.cq.evaluate import evaluate
from repro.cq.parser import parse_query
from repro.datalog.library import transitive_closure_program
from repro.errors import VocabularyError
from repro.relational.stats import collect_stats
from repro.service.core import QueryService

EDGES = {(1, 2), (2, 3), (3, 4), (2, 5)}


def make_service(**kwargs):
    return QueryService(transitive_closure_program(), {"E": EDGES}, **kwargs)


def test_answers_match_direct_evaluation_hit_or_miss():
    svc = make_service()
    variants = [
        "Q(X, Y) :- T(X, Y).",
        "P(A, B) :- T(A, B).",
        "R(U, V) :- T(U, V), T(U, W).",  # redundant atom, still equivalent
    ]
    reference = evaluate(
        parse_query(variants[0]), svc.engine.as_structure()
    ).tuples
    outcomes = []
    for text in variants:
        answer = svc.ask(text)
        outcomes.append(answer.outcome)
        assert answer.result.tuples == reference
    assert outcomes[0] == "miss"
    assert set(outcomes[1:]) == {"equivalence"}
    assert svc.ask(variants[0]).outcome == "exact"


def test_equivalence_hits_return_the_cached_rows_by_identity():
    import pickle

    svc = make_service()
    texts = [
        "Q(X, Y) :- T(X, Y), E(Y, Z).",
        "P(A, B) :- E(B, C), T(A, B).",
        "R(U, V) :- T(U, V), E(V, W), E(V, W2).",
    ]
    first = svc.ask(texts[0])
    svc.update(inserts={"E": {(4, 6)}})
    first = svc.ask(texts[0])
    assert first.outcome == "exact" and svc.cache.stats.refreshes == 1
    # An uncached oracle: the same state without any memoized derivations.
    fresh = pickle.loads(pickle.dumps(svc.engine.as_structure()))
    for text in texts[1:]:
        answer = svc.ask(text)
        assert answer.outcome == "equivalence"
        assert answer.result.tuples is first.result.tuples
        assert answer.result == evaluate(parse_query(text), fresh)


def test_update_invalidates_and_answers_track_new_state():
    svc = make_service()
    assert (1, 9) not in svc.query("Q(X, Y) :- T(X, Y).").tuples
    report = svc.update(inserts={"E": {(4, 9)}})
    assert "T" in report.dirty
    answer = svc.ask("Q(X, Y) :- T(X, Y).")
    assert answer.outcome == "exact" and svc.cache.stats.refreshes == 1  # refreshed
    assert (1, 9) in answer.result.tuples


def test_untouched_predicates_keep_their_cache_entries():
    svc = QueryService(
        transitive_closure_program(), {"E": EDGES}
    )
    svc.ask("Q(X, Y) :- T(X, Y).")
    report = svc.update(inserts={"E": {(1, 2)}})  # already present: no-op
    assert report.dirty == frozenset()
    assert svc.ask("P(A, B) :- T(A, B).").outcome == "equivalence"


def test_latency_histograms_fill():
    svc = make_service()
    svc.ask("Q(X) :- E(X, Y).")
    svc.update(inserts={"E": {(7, 8)}})
    assert svc.query_latency.count == 1
    assert svc.update_latency.count == 1
    stats = svc.stats()
    assert stats["query_latency"]["count"] == 1
    assert stats["query_latency"]["p99"] >= stats["query_latency"]["p50"] > 0
    assert stats["cache"]["misses"] == 1
    assert stats["generation"] == 1


def test_query_over_edb_and_idb_predicates():
    svc = make_service()
    two_hop = svc.query("Q(X, Z) :- E(X, Y), E(Y, Z).")
    assert (1, 3) in two_hop.tuples
    assert (1, 4) not in two_hop.tuples


def test_constructor_validation_propagates():
    with pytest.raises(VocabularyError):
        QueryService(transitive_closure_program(), {"E": {(1, 2, 3)}})  # E is binary


def test_update_validation_propagates():
    svc = make_service()
    with pytest.raises(VocabularyError):
        svc.update(inserts={"T": {(1, 2)}})


def test_accepts_parsed_query_objects():
    svc = make_service()
    q = parse_query("Q(X, Y) :- T(X, Y).")
    assert svc.ask(q).result.tuples == svc.ask("P(A, B) :- T(A, B).").result.tuples


def test_repeated_head_variables_are_answered_and_cached():
    """``Q(X, X)`` is answered (not rejected for a non-distinct scheme), and
    a renamed variant is an equivalence hit over the same rows."""
    svc = make_service()
    first = svc.ask("Q(X, X) :- E(X, Y).")
    assert first.outcome == "miss"
    assert first.result.attributes == ("X", "X#2")
    assert first.result.tuples == {(x, x) for x, _ in EDGES}
    second = svc.ask("P(A, A) :- E(A, B), E(A, C).")
    assert second.outcome == "equivalence"
    assert second.result.attributes == ("A", "A#2")
    assert second.result.tuples is first.result.tuples


#: The six query shapes of the serve-read benchmark workload.
SERVE_READ_TEMPLATES = (
    "Q(X, Y) :- T(X, Y).",
    "Q(X, Z) :- E(X, Y), E(Y, Z).",
    "Q(X, Y, Z) :- E(X, Y), E(Y, Z), T(X, Z).",
    "Q(X, Z) :- E(X, Y), T(Y, Z).",
    "Q(Y) :- E(X, Y), T(Y, W).",
    "Q(X, W) :- E(X, Y), E(Y, Z), T(Z, W).",
)


def test_a_fresh_generation_reads_the_maintained_indexes():
    """After an update, the templates build no more indexes than on a warm
    generation: the base indexes their first evaluation built are adopted
    by the maintenance plane, kept current through the batch, and handed
    to the next generation's atom relations."""
    rng = random.Random(3)
    parent = {child: rng.randrange(child) for child in range(1, 300)}
    svc = QueryService(
        transitive_closure_program(), {"E": {(p, c) for c, p in parent.items()}}
    )
    queries = [parse_query(text) for text in SERVE_READ_TEMPLATES]

    def index_builds() -> int:
        structure = svc.engine.as_structure()
        with collect_stats() as stats:
            for query in queries:
                evaluate(query, structure)
        return stats.index_builds

    index_builds()  # the first generation builds its base indexes
    child = 250
    new_parent = next(p for p in range(1, child) if p != parent[child])
    svc.update(
        inserts={"E": {(new_parent, child)}}, deletes={"E": {(parent[child], child)}}
    )
    fresh = index_builds()
    warm = index_builds()
    assert fresh == warm


def test_a_miss_and_its_store_key_the_query_once(monkeypatch):
    """``store`` reuses the canonical key ``lookup`` computed for the same
    query; each head prefix still gets its own key."""
    from repro.service import cache as cache_module

    keyed = []
    canonical_key = cache_module.canonical_key
    monkeypatch.setattr(
        cache_module, "canonical_key", lambda q: keyed.append(q) or canonical_key(q)
    )
    svc = make_service()
    assert svc.ask("Q(X, Y, Z) :- E(X, Y), T(Y, Z).").outcome == "miss"
    assert sorted(len(q.distinguished) for q in keyed) == [0, 1, 2, 3]
