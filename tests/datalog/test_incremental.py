"""The incremental-maintenance differential wall: after *any* interleaved
stream of insert/delete batches, the maintained fixpoint equals
``evaluate_seminaive`` recomputed from scratch on the final EDB — for DRed
on recursive and non-recursive programs, and batches that kill and
rederive facts through alternative supports.  After every batch
the report is the exact net change of every value, and every pooled index
equals one rebuilt from the current rows."""

import random

import pytest

from repro.datalog.engine import evaluate_seminaive
from repro.datalog.incremental import IncrementalEvaluation
from repro.datalog.library import (
    non_two_colorability_program,
    transitive_closure_program,
)
from repro.datalog.parser import parse_program
from repro.errors import VocabularyError

TC = transitive_closure_program()

#: A non-recursive program (two-hop + marker join) over two EDB predicates.
NONREC = parse_program(
    """
    H(X, Z) :- E(X, Y), E(Y, Z).
    M(X, Z) :- H(X, Z), L(X).
    """,
    goal="M",
)


def from_scratch(program, edb):
    return evaluate_seminaive(program, edb)


def random_stream(rng, nodes, n_batches, predicates=("E",), arity=2, noise=None):
    """A random interleaved insert/delete stream plus its cumulative EDB.

    With ``noise``, a second generator (so ``rng``'s draws, and with them
    every batch's net effect, stay the same), batches also carry changes
    that change nothing: a re-insert of a present fact, a delete of an
    absent one, and a delete plus re-insert of one present fact."""
    state = {p: set() for p in predicates}
    batches = []
    for _ in range(n_batches):
        inserts = {}
        deletes = {}
        for p in predicates:
            ins = {
                tuple(rng.randrange(nodes) for _ in range(arity))
                for _ in range(rng.randrange(4))
            }
            if state[p] and rng.random() < 0.7:
                dels = set(
                    rng.sample(sorted(state[p]), k=min(len(state[p]), rng.randrange(1, 3)))
                )
            else:
                dels = set()
            if noise is not None:
                kept = sorted(state[p] - dels)
                if kept and noise.random() < 0.5:
                    ins.add(noise.choice(kept))  # a re-insert
                if kept and noise.random() < 0.5:
                    fact = noise.choice(kept)  # deleted and re-inserted at once
                    dels.add(fact)
                    ins.add(fact)
                if noise.random() < 0.5:
                    absent = tuple(noise.randrange(nodes + 2) for _ in range(arity))
                    if absent not in state[p]:
                        dels.add(absent)
            # A fact both deleted and inserted in one batch ends up present
            # (apply() deletes before inserting) — keep the mirror in sync.
            state[p] -= dels
            state[p] |= ins
            if ins:
                inserts[p] = ins
            if dels:
                deletes[p] = dels
        batches.append((inserts, deletes))
    return batches, state


def apply_checked(inc, inserts, deletes):
    """Apply one batch, then check its report against the value diffs and
    every index pool against the current rows."""
    predicates = inc.program.arities()
    before = {p: inc.value(p) for p in predicates}
    report = inc.apply(inserts, deletes)
    idbs = inc.program.idb_predicates()
    for p in predicates:
        now = inc.value(p)
        added = report.idb_added if p in idbs else report.edb_added
        removed = report.idb_removed if p in idbs else report.edb_removed
        assert added.get(p, frozenset()) == now - before[p], p
        assert removed.get(p, frozenset()) == before[p] - now, p
    assert report.dirty == {p for p in predicates if inc.value(p) != before[p]}
    for p, pool in inc._pools.items():
        rows = inc.value(p)
        assert pool.rows == rows, p
        for positions, index in pool.indexes.items():
            rebuilt: dict = {}
            for row in rows:
                rebuilt.setdefault(tuple(row[i] for i in positions), []).append(row)
            assert {k: sorted(v) for k, v in index.items()} == {
                k: sorted(v) for k, v in rebuilt.items()
            }, (p, positions)
    return report


@pytest.mark.parametrize("seed", range(100))
def test_dred_matches_from_scratch_on_transitive_closure(seed):
    rng = random.Random(seed)
    inc = IncrementalEvaluation(TC, {})
    batches, state = random_stream(
        rng, nodes=7, n_batches=6, noise=random.Random(f"no-ops {seed}")
    )
    for inserts, deletes in batches:
        apply_checked(inc, inserts, deletes)
    expected = from_scratch(TC, {p: frozenset(v) for p, v in state.items()})
    assert inc.idb_values() == expected
    assert inc.edb_values() == {"E": frozenset(state["E"])}


@pytest.mark.parametrize("seed", range(60))
def test_dred_matches_from_scratch_on_nonrecursive(seed):
    rng = random.Random(1000 + seed)
    inc = IncrementalEvaluation(NONREC, {})
    batches, state = random_stream(
        rng, nodes=6, n_batches=5, predicates=("E",), noise=random.Random(f"no-ops {seed}")
    )
    # Interleave unary L updates by hand (random_stream is binary-only).
    for inserts, deletes in batches:
        if rng.random() < 0.6:
            l_ins = {(rng.randrange(6),) for _ in range(rng.randrange(3))}
            inserts = dict(inserts, L=l_ins)
        apply_checked(inc, inserts, deletes)
    edb = {"E": frozenset(state["E"]), "L": inc.value("L")}
    assert inc.idb_values() == from_scratch(NONREC, edb)


@pytest.mark.parametrize("seed", range(40))
def test_dred_matches_from_scratch_on_odd_walks(seed):
    """The 4-Datalog non-2-colorability program: mutually recursive through
    longer joins, exercising multi-delta rules under deletion."""
    program = non_two_colorability_program()
    rng = random.Random(2000 + seed)
    inc = IncrementalEvaluation(program, {})
    batches, state = random_stream(
        rng, nodes=5, n_batches=4, noise=random.Random(f"no-ops {seed}")
    )
    for inserts, deletes in batches:
        apply_checked(inc, inserts, deletes)
    expected = from_scratch(program, {"E": frozenset(state["E"])})
    assert inc.idb_values() == expected


def test_kill_and_rederive_through_alternative_support():
    """Deleting one edge of a diamond kills nothing reachable via the other
    path: DRed over-deletes, then rederivation rescues."""
    inc = IncrementalEvaluation(
        TC, {"E": {(0, 1), (1, 3), (0, 2), (2, 3)}}
    )
    assert (0, 3) in inc.value("T")
    report = inc.apply(deletes={"E": {(1, 3)}})
    # (0,3) survives via 0→2→3; (1,3) the T-fact dies with its only edge.
    assert (0, 3) in inc.value("T")
    assert (1, 3) not in inc.value("T")
    assert (1, 3) in report.idb_removed["T"]
    assert inc.idb_values() == from_scratch(TC, {"E": inc.value("E")})


def test_cycle_only_support_stays_dead():
    """Facts whose remaining 'support' is a derivation cycle must die:
    cutting the chain into a 2-cycle's tail removes reachability."""
    inc = IncrementalEvaluation(TC, {"E": {(0, 1), (1, 2), (2, 1)}})
    assert (0, 2) in inc.value("T")
    inc.apply(deletes={"E": {(0, 1)}})
    assert inc.idb_values() == from_scratch(TC, {"E": {(1, 2), (2, 1)}})
    assert (0, 2) not in inc.value("T")


def test_redundant_updates_are_no_ops():
    inc = IncrementalEvaluation(TC, {"E": {(1, 2)}})
    before_gen = inc.generation
    report = inc.apply(inserts={"E": {(1, 2)}}, deletes={"E": {(9, 9)}})
    assert report.dirty == frozenset()
    assert report.rows_added == 0 and report.rows_removed == 0
    assert inc.generation == before_gen


def test_generation_bumps_and_structure_memo_refreshes():
    inc = IncrementalEvaluation(TC, {"E": {(1, 2)}})
    s0 = inc.as_structure()
    assert inc.as_structure() is s0
    inc.apply(inserts={"E": {(2, 3)}})
    s1 = inc.as_structure()
    assert s1 is not s0
    assert s1.relation("T") == inc.value("T")


@pytest.mark.parametrize("read_between", [False, True])
def test_structure_domain_follows_the_batches(read_between):
    """The domain the structure carries is every value in some row, whether
    it was counted once at the end or kept current batch by batch."""
    from repro.relational.structure import Structure, Vocabulary

    rng = random.Random(17)
    inc = IncrementalEvaluation(TC, {})
    batches, _ = random_stream(rng, nodes=7, n_batches=10)
    for inserts, deletes in batches:
        inc.apply(inserts, deletes)
        if read_between:
            inc.as_structure()
    values = {**inc.edb_values(), **inc.idb_values()}
    domain = {v for rows in values.values() for row in rows for v in row}
    structure = inc.as_structure()
    assert structure == Structure(Vocabulary(TC.arities()), domain, values)
    assert structure.relation("T") is inc.value("T")


def test_delete_then_insert_same_fact_in_one_batch_keeps_it():
    inc = IncrementalEvaluation(TC, {"E": {(1, 2)}})
    report = inc.apply(inserts={"E": {(1, 2)}}, deletes={"E": {(1, 2)}})
    assert (1, 2) in inc.value("E")
    assert (1, 2) in inc.value("T")
    assert report.dirty == frozenset()


def test_updates_must_target_edb_predicates():
    inc = IncrementalEvaluation(TC, {"E": {(1, 2)}})
    with pytest.raises(VocabularyError):
        inc.apply(inserts={"T": {(5, 6)}})
    with pytest.raises(VocabularyError):
        inc.apply(inserts={"Nope": {(1,)}})


def test_value_rejects_unknown_predicate():
    inc = IncrementalEvaluation(TC, {})
    with pytest.raises(VocabularyError):
        inc.value("Nope")


def test_update_report_counts_are_exact():
    inc = IncrementalEvaluation(TC, {"E": {(1, 2)}})
    report = inc.apply(inserts={"E": {(2, 3)}})
    assert report.edb_added == {"E": frozenset({(2, 3)})}
    assert report.idb_added["T"] == frozenset({(2, 3), (1, 3)})
    assert report.rows_added == 3
    assert sorted(report.dirty) == ["E", "T"]
