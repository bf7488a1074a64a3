"""The projected fold: ``join_all(..., attributes=A)`` is ``π_A`` of the join.

Under the indexed execution the projection is pushed into the fold — each
step keeps only the columns the answer or a later operand still mentions —
and every other execution projects once at the end.  Either way the result
must be exactly ``project(join_all(rels, s), A)``, for every order and
execution, including empty operands, operands sharing no attribute
(Cartesian steps), the empty answer scheme, and answer schemes that reorder
the joined columns.  A seeded join, ``join_all(rels, attributes=A,
seed=s)``, is ``π_A`` of the join of ``[s, *rels]`` the same way, though
the indexed execution runs it on its own planner-free kernel.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cq.evaluate import atom_relation, evaluate
from repro.cq.parser import parse_query
from repro.datalog.library import transitive_closure_program
from repro.datalog.parser import parse_program
from repro.errors import SchemaError, VocabularyError
from repro.relational.algebra import join_all, project
from repro.relational.planner import EXECUTIONS, STRATEGIES
from repro.cq.query import Atom, Var
from repro.relational.relation import Relation
from repro.relational.stats import collect_stats
from repro.relational.structure import Structure
from repro.service.core import QueryService

SPECS = [f"{order}+{execution}" for order in STRATEGIES for execution in EXECUTIONS]

# "a".."d" overlap often; "e" and "f" give operands sharing no attribute.
ATTRS = ("a", "b", "c", "d", "e", "f")
VALUES = st.integers(min_value=0, max_value=3)


@st.composite
def operands(draw):
    """One to four relations over small schemes, sometimes one of them
    empty, sometimes two of them disconnected from each other."""
    count = draw(st.integers(min_value=1, max_value=4))
    relations = []
    for _ in range(count):
        arity = draw(st.integers(min_value=1, max_value=3))
        scheme = draw(st.permutations(ATTRS).map(lambda p: tuple(p[:arity])))
        rows = draw(st.lists(st.tuples(*[VALUES] * arity), max_size=6))
        relations.append(Relation(scheme, rows))
    if draw(st.booleans()):
        victim = draw(st.integers(min_value=0, max_value=count - 1))
        relations[victim] = Relation.empty(relations[victim].attributes)
    return relations


@st.composite
def fold_cases(draw):
    """Operands plus an answer scheme: a reordered subset of the joined
    scheme, possibly empty."""
    relations = draw(operands())
    joined = sorted({a for r in relations for a in r.attributes})
    answer = draw(st.permutations(joined))
    size = draw(st.integers(min_value=0, max_value=len(joined)))
    return relations, tuple(answer[:size])


@settings(max_examples=60, deadline=None)
@given(fold_cases())
def test_projected_fold_is_the_projected_join(case):
    relations, answer = case
    for spec in SPECS:
        expected = project(join_all(relations, spec), answer)
        assert join_all(relations, spec, attributes=answer) == expected, spec


@st.composite
def seeded_cases(draw):
    """Operands, a seed and an answer scheme.  The seed is sometimes
    empty, sometimes shares no attribute with the operands (a Cartesian
    first step), and sometimes covers an operand's whole scheme (a
    membership step)."""
    relations = draw(operands())
    joined = sorted({a for r in relations for a in r.attributes})
    kind = draw(st.sampled_from(["overlap", "disjoint", "covering"]))
    if kind == "disjoint":
        pool = [a for a in ATTRS if a not in joined] or list(ATTRS)
    elif kind == "covering":
        pool = list(draw(st.sampled_from(relations)).attributes)
    else:
        pool = list(ATTRS)
    scheme = tuple(draw(st.permutations(pool)))
    if kind != "covering":
        scheme = scheme[: draw(st.integers(min_value=1, max_value=min(3, len(scheme))))]
    rows = draw(st.lists(st.tuples(*[VALUES] * len(scheme)), max_size=5))
    seed = Relation(scheme, rows)
    every = sorted(set(joined) | set(scheme))
    answer = draw(st.permutations(every))
    size = draw(st.integers(min_value=0, max_value=len(every)))
    return relations, seed, tuple(answer[:size])


def indexes_held(relations):
    return sum(len(r.row_memo.indexes) for r in relations)


@settings(max_examples=80, deadline=None)
@given(seeded_cases())
def test_seeded_join_is_the_projected_join(case):
    """The kernel's answer is the projected join and the nested-loop
    oracle's; a cold run charges one index build per index it leaves
    memoized and one ``natural_join`` per step, a warm run builds none."""
    relations, seed, answer = case
    cold = [Relation(r.attributes, r.tuples) for r in relations]
    with collect_stats() as stats:
        result = join_all(cold, attributes=answer, seed=seed)
    assert stats.index_builds == indexes_held(cold)
    assert stats.joins <= len(cold)
    if result:
        assert stats.joins == len(cold)
    with collect_stats() as warm:
        assert join_all(cold, attributes=answer, seed=seed) == result
    assert warm.index_builds == 0 and warm.joins == stats.joins

    expected = project(join_all([seed, *relations]), answer)
    assert result == expected
    assert project(join_all([seed, *relations], "textbook+scan"), answer) == expected
    for spec in SPECS:
        assert join_all(relations, spec, attributes=answer, seed=seed) == expected, spec


TERMS = st.one_of(st.sampled_from([Var("X"), Var("Y"), Var("Z"), Var("W")]), VALUES)


@st.composite
def atom_cases(draw):
    """Atoms over a small database, with constants and repeated
    variables, one of them read over a few changed rows as the seed."""
    arities = {"E": 2, "R": 3}
    database = Structure(
        arities,
        range(4),
        {
            p: draw(st.lists(st.tuples(*[VALUES] * n), max_size=12))
            for p, n in arities.items()
        },
    )
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        predicate = draw(st.sampled_from(sorted(arities)))
        arity = arities[predicate]
        atoms.append(Atom(predicate, draw(st.lists(TERMS, min_size=arity, max_size=arity))))
    first = atoms[0]
    changed = Structure(
        arities,
        range(4),
        {first.predicate: draw(st.lists(st.tuples(*[VALUES] * first.arity), max_size=4))},
    )
    seed = atom_relation(first, changed)
    variables = sorted({v.name for atom in atoms for v in atom.variables()})
    answer = draw(st.permutations(variables))
    size = draw(st.integers(min_value=0, max_value=len(variables)))
    return [atom_relation(atom, database) for atom in atoms[1:]], seed, tuple(answer[:size])


@settings(max_examples=80, deadline=None)
@given(atom_cases())
def test_seeded_join_over_atoms_with_constants_and_repeats(case):
    relations, seed, answer = case
    result = join_all(relations, attributes=answer, seed=seed)
    assert result == project(join_all([seed, *relations]), answer)
    assert result == project(join_all([seed, *relations], "textbook+scan"), answer)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize(
    "relations, answer",
    [
        # A chain with the middle variable dead after the second step.
        (
            [
                Relation(("x", "y"), [(1, 2), (2, 3), (3, 4)]),
                Relation(("y", "z"), [(2, 5), (3, 6), (3, 7)]),
                Relation(("z", "w"), [(5, 8), (7, 9)]),
            ],
            ("w", "x"),
        ),
        # Disconnected operands: a Cartesian step, and a Boolean answer.
        (
            [Relation(("x",), [(1,), (2,)]), Relation(("y",), [(3,), (4,)])],
            (),
        ),
        (
            [Relation(("x",), [(1,), (2,)]), Relation(("y",), [(3,), (4,)])],
            ("y", "x"),
        ),
        # An empty operand empties the answer whatever it projects onto.
        (
            [Relation(("x", "y"), [(1, 2)]), Relation.empty(("y", "z"))],
            ("z",),
        ),
        (
            [Relation(("x", "y"), [(1, 2)]), Relation.empty(("y", "z"))],
            (),
        ),
        # Interleaved answer columns from both sides of the last step.
        (
            [
                Relation(("x", "y"), [(1, 2), (1, 3)]),
                Relation(("y", "z", "w"), [(2, 4, 5), (3, 6, 7)]),
            ],
            ("z", "x", "w", "y"),
        ),
    ],
)
def test_projected_fold_examples(relations, answer, spec):
    expected = project(join_all(relations, spec), answer)
    assert join_all(relations, spec, attributes=answer) == expected


def test_projected_fold_rejects_bad_answer_schemes():
    relations = [Relation(("x", "y"), [(1, 2)]), Relation(("y", "z"), [(2, 3)])]
    for spec in SPECS:
        with pytest.raises(VocabularyError):
            join_all(relations, spec, attributes=("q",))
        with pytest.raises(SchemaError):
            join_all(relations, spec, attributes=("x", "x"))


def test_identity_projection_returns_the_operand():
    r = Relation(("x", "y"), [(1, 2), (1, 3)])
    assert project(r, r.attributes) is r
    assert project(r, ("y", "x")) == Relation(("y", "x"), [(2, 1), (3, 1)])


def test_single_atom_body_returns_the_predicate_rows_themselves():
    service = QueryService(transitive_closure_program(), {"E": {(1, 2), (2, 3)}})
    database = service.engine.as_structure()
    answer = evaluate(parse_query("Q(X, Y) :- T(X, Y)."), database)
    assert answer.tuples is database.relation("T")
    # A dead column still projects; a swapped head still reorders.
    assert evaluate(parse_query("Q(X) :- T(X, Y)."), database).tuples == {(1,), (2,)}
    assert evaluate(parse_query("Q(Y, X) :- T(X, Y)."), database).tuples == {
        (2, 1), (3, 1), (3, 2)
    }


def test_dead_variables_leave_the_fold_on_the_serve_read_forest():
    """``Q(Y) :- E(X, Y), T(Y, W)`` over the serve-read benchmark's seed-1
    forest: the unprojected fold materializes ``E ⋈ T`` (5906 rows), the
    projected one never holds more rows than ``E`` — with the same number
    of recorded joins."""
    from perfbench.workloads import FORESTS, TC_PROGRAM, forest_stream

    edges, _ = forest_stream("serve-read", 1)
    assert len(edges) == FORESTS["serve-read"]["nodes"] - 1
    service = QueryService(parse_program(TC_PROGRAM, goal="T"), {"E": edges})
    database = service.engine.as_structure()
    query = parse_query("Q(Y) :- E(X, Y), T(Y, W).")

    with collect_stats() as projected:
        answer = evaluate(query, database)
    relations = [atom_relation(atom, database) for atom in query.body]
    with collect_stats() as unprojected:
        joined = join_all(relations)
    assert project(joined, ("Y",)) == answer
    assert unprojected.max_intermediate == 5906
    assert projected.max_intermediate <= len(edges)
    assert projected.joins == unprojected.joins == 2
    assert len(projected.intermediate_sizes) == len(unprojected.intermediate_sizes)


def test_indexes_the_fold_builds_on_base_operands_are_index_on_indexes():
    """A hash table the projected fold builds over an operand is published
    into the operand's row memo: ``index_on`` then returns it, equal to the
    index a fresh copy of the rows builds, and the next fold builds none."""
    small = Relation(("x", "y"), [(1, 2), (1, 3), (2, 3)])
    large = Relation(("y", "z"), [(2, 5), (3, 6), (3, 7), (4, 8)])
    with collect_stats() as stats:
        answer = join_all([small, large], attributes=("x", "z"))
    assert stats.index_builds == 1
    assert answer == project(join_all([small, large], "scan"), ("x", "z"))
    assert small.has_index(("y",)) and not large.has_index(("y",))
    copy = Relation(small.attributes, small.tuples)
    assert small.index_on(("y",)) == copy.index_on(("y",))
    with collect_stats() as again:
        join_all([small, large], attributes=("x", "z"))
    assert again.index_builds == 0


def test_an_all_bound_operand_is_a_membership_test():
    """A step whose key is an operand's whole scheme tests membership in
    its rows: the answer is the projected join, and no full-row index is
    built on that operand."""
    pairs = Relation(("x", "y"), [(1, 2), (2, 3), (3, 4)])
    edges = Relation(("y", "z"), [(2, 5), (3, 6), (4, 7)])
    closure = Relation(("x", "z"), [(1, 5), (2, 6), (9, 9), (8, 8)])
    with collect_stats() as stats:
        answer = join_all([pairs, edges, closure], "textbook", attributes=("x", "z"))
    assert answer == project(join_all([pairs, edges, closure], "scan"), ("x", "z"))
    assert sorted(answer.tuples) == [(1, 5), (2, 6)]
    assert stats.index_builds == 1  # the y key only
    assert not closure.has_index(("x", "z"))


def test_a_free_operand_is_probed_by_the_smaller_side():
    """When both operands of a step are free to probe — one indexed on the
    key, the other with the key as its whole scheme — the smaller probes."""
    bound = Relation(("y",), [(2,)])
    edges = Relation(("y", "z"), [(y, y + 1) for y in range(50)])
    edges.index_on(("y",))
    with collect_stats() as stats:
        answer = join_all([bound, edges], "textbook", attributes=("z",))
    assert sorted(answer.tuples) == [(3,)]
    assert stats.hash_probes == 1 and stats.index_builds == 0


def test_a_seeded_join_runs_no_planner(monkeypatch):
    """A seeded join and a delta rule application never call the planner:
    the seed drives the join, and each step warms the key it probes on
    the operand it binds most — none for an operand whose variables are
    all bound by then (a membership test)."""
    from repro.cq.evaluate import _seeded_join
    from repro.datalog.engine import _apply_rule, _atom_to_relation, evaluate_seminaive
    from repro.relational import algebra, planner
    from repro.relational.structure import Structure, Vocabulary

    program = transitive_closure_program()
    edges = {(i, i + 1) for i in range(8)} | {(0, 5), (2, 7)}
    values = {"E": frozenset(edges), **evaluate_seminaive(program, {"E": edges})}
    domain = {v for rows in values.values() for row in rows for v in row}
    database = Structure(Vocabulary(program.arities()), domain, values)
    plans = []
    plan_join = planner.plan_join

    def counted(relations, strategy="greedy"):
        plans.append(len(relations))
        return plan_join(relations, strategy)

    monkeypatch.setattr(algebra, "plan_join", counted)
    monkeypatch.setattr(planner, "plan_join", counted)

    body = parse_query("Q(X, Y) :- T(X, Z), E(Z, Y).").body
    seed = Relation(("X", "Y"), [(0, 3), (1, 4)])
    with collect_stats() as stats:
        rows = _seeded_join(seed, body, database, ("X", "Y"))
    assert sorted(rows) == [(0, 3), (1, 4)]
    assert plans == [] and stats.index_builds == 1
    assert [sorted(atom_relation(atom, database).row_memo.indexes) for atom in body] == [
        [],
        [(1,)],
    ]

    plans.clear()
    rule = program.rules[1]  # T(X, Y) :- T(X, Z), E(Z, Y).
    cache: dict = {}
    delta = {"T": frozenset({(0, 1), (3, 4)})}
    with collect_stats() as stats:
        derived = _apply_rule(rule, values, delta_atom_index=0, delta=delta, cache=cache)
    assert sorted(derived) == [(0, 2), (3, 5)]
    assert plans == [] and stats.index_builds == 1
    edge_relation = _atom_to_relation(rule.body[1], values["E"], cache)
    assert sorted(edge_relation.row_memo.indexes) == [(0,)]
