"""Conjunctive-query evaluation Q(D)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cq.evaluate import (
    atom_relation,
    atom_shape,
    evaluate,
    evaluate_boolean,
    satisfying_assignments,
    share_row_memo,
)
from repro.cq.parser import parse_atom, parse_query
from repro.cq.query import Var
from repro.errors import VocabularyError
from repro.relational.planner import EXECUTIONS, STRATEGIES
from repro.relational.relation import Relation
from repro.relational.structure import Structure


def db(edges, nodes=None):
    nodes = nodes if nodes is not None else sorted({v for e in edges for v in e})
    return Structure({"E": 2}, nodes, {"E": edges})


PATH = db([(1, 2), (2, 3), (3, 4)])


class TestAtomRelation:
    def test_plain_atom(self):
        rel = atom_relation(parse_atom("E(X, Y)"), PATH)
        assert rel.attributes == ("X", "Y")
        assert len(rel) == 3

    def test_constant_selection(self):
        rel = atom_relation(parse_atom("E(X, 2)"), PATH)
        assert rel.tuples == frozenset({(1,)})

    def test_repeated_variable_selects_diagonal(self):
        loop_db = db([(1, 1), (1, 2)])
        rel = atom_relation(parse_atom("E(X, X)"), loop_db)
        assert rel.tuples == frozenset({(1,)})

    def test_unknown_predicate_raises(self):
        with pytest.raises(VocabularyError):
            atom_relation(parse_atom("F(X)"), PATH)

    def test_all_constants(self):
        rel = atom_relation(parse_atom("E(1, 2)"), PATH)
        assert rel.attributes == ()
        assert len(rel) == 1  # satisfied: nullary relation containing ()


class TestEvaluate:
    def test_two_hop(self):
        q = parse_query("Q(X, Y) :- E(X, Z), E(Z, Y).")
        answers = evaluate(q, PATH)
        assert answers.tuples == frozenset({(1, 3), (2, 4)})

    def test_projection_collapses(self):
        q = parse_query("Q(X) :- E(X, Z), E(Z, Y).")
        answers = evaluate(q, PATH)
        assert answers.tuples == frozenset({(1,), (2,)})

    def test_boolean_query(self):
        q = parse_query("Q() :- E(X, Y), E(Y, X).")
        assert not evaluate_boolean(q, PATH)
        assert evaluate_boolean(q, db([(1, 2), (2, 1)]))

    def test_cyclic_pattern(self):
        q = parse_query("Q(X) :- E(X, Y), E(Y, Z), E(Z, X).")
        triangle = db([(1, 2), (2, 3), (3, 1)])
        assert evaluate(q, triangle).tuples == frozenset({(1,), (2,), (3,)})
        assert not evaluate(q, PATH)

    def test_constants_in_query(self):
        q = parse_query("Q(X) :- E(1, X).")
        assert evaluate(q, PATH).tuples == frozenset({(2,)})

    def test_satisfying_assignments(self):
        q = parse_query("Q(X) :- E(X, Y).")
        assignments = list(satisfying_assignments(q, PATH))
        assert {(a[Var("X")], a[Var("Y")]) for a in assignments} == {
            (1, 2),
            (2, 3),
            (3, 4),
        }

    def test_self_join(self):
        q = parse_query("Q(X) :- E(X, Y), E(X, Z).")
        fan = db([(1, 2), (1, 3)])
        assert evaluate(q, fan).tuples == frozenset({(1,)})

    def test_empty_database(self):
        q = parse_query("Q(X) :- E(X, Y).")
        assert not evaluate(q, db([], nodes=[1]))


def filter_and_project(atom, rows):
    """Oracle: keep the rows that match the atom's constants and repeated
    variables, one column per distinct variable."""
    variables = atom.variables()
    out = set()
    for row in rows:
        env = {}
        if all(
            env.setdefault(term, value) == value
            if isinstance(term, Var)
            else term == value
            for term, value in zip(atom.terms, row)
        ):
            out.add(tuple(env[v] for v in variables))
    return Relation(tuple(v.name for v in variables), out)


SHAPES = ["E(X, Y)", "E(X, X)", "E(X, 2)", "E(2, X)", "E(1, 2)"]
RENAMED = ["E(A, B)", "E(B, B)", "E(B, 2)", "E(2, B)", "E(1, 2)"]


@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
def test_atom_relation_matches_filter_and_project(edges):
    structure = Structure({"E": 2}, range(4), {"E": edges})
    for text in SHAPES + RENAMED:
        atom = parse_atom(text)
        assert atom_relation(atom, structure) == filter_and_project(atom, edges), text


def test_atom_shape_ignores_variable_names_only():
    shapes = [atom_shape(parse_atom(text)) for text in SHAPES]
    assert len({shape for shape, _ in shapes}) == len(SHAPES)
    for text, renamed in zip(SHAPES, RENAMED):
        (shape, names), (other, other_names) = (
            atom_shape(parse_atom(text)),
            atom_shape(parse_atom(renamed)),
        )
        assert shape == other
        assert len(names) == len(other_names)
    assert atom_shape(parse_atom("E(X, 0)"))[0] != atom_shape(parse_atom("E(X, Y)"))[0]


def test_atom_with_the_wrong_arity_is_rejected():
    with pytest.raises(VocabularyError):
        atom_relation(parse_atom("E(X)"), PATH)


REPEATED_HEADS = [
    "Q(X, X) :- E(X, Y).",
    "Q(X, Y, X) :- E(X, Y), E(Y, Z).",
    "Q(Y, X, Y, Y) :- E(X, Y), E(Y, X).",
    "Q(X, X) :- E(X, Y), E(Y, Z), E(Z, X).",
]


@pytest.mark.parametrize("text", REPEATED_HEADS)
def test_repeated_head_variables_match_the_scan_oracle(text):
    """A head variable written twice repeats its column: the first
    occurrence keeps the variable's name, each repeat gets a derived one,
    and every strategy returns the rows of the textbook nested-loop plan."""
    query = parse_query(text)
    database = db([(1, 2), (2, 1), (2, 3), (3, 1), (3, 3)])
    oracle = evaluate(query, database, strategy="textbook+scan")
    assert oracle.attributes == query.answer_columns()
    assert len(set(oracle.attributes)) == len(query.distinguished)
    assert oracle  # every query above has answers on this database
    for row in oracle:
        for i, v in enumerate(query.distinguished):
            assert row[i] == row[query.distinguished.index(v)]
    specs = list(STRATEGIES) + list(EXECUTIONS) + ["auto"]
    for spec in specs:
        assert evaluate(query, database, strategy=spec) == oracle, spec


def test_auto_projects_an_acyclic_body_as_it_joins():
    """``auto``'s Yannakakis route joins the reduced body under the head's
    columns, so its largest intermediate is no larger than the default
    strategy's: joined over every variable, the 4-star's held 425,632
    rows here against the default's 120."""
    from repro.generators.graphs import random_digraph
    from repro.generators.queries import star_query
    from repro.relational.stats import collect_stats

    database = random_digraph(120, 0.05, seed=1)
    query = star_query(4)
    with collect_stats() as default_stats:
        expected = evaluate(query, database)
    with collect_stats() as auto_stats:
        assert evaluate(query, database, strategy="auto") == expected
    assert [d["route"] for d in auto_stats.routing_decisions] == ["yannakakis"]
    assert auto_stats.max_intermediate <= default_stats.max_intermediate


def test_share_row_memo_serves_distinct_variable_atoms_from_the_shared_relation():
    db = Structure({"E": 2}, {1, 2, 3}, {"E": {(1, 2), (2, 3)}})
    with pytest.raises(ValueError):
        share_row_memo(db, "E", Relation(("a", "b"), [(1, 2)]))
    shared = Relation.from_trusted_rows(("a", "b"), db.relation("E"))
    shared.index_on(("b",))
    share_row_memo(db, "E", shared)
    view = atom_relation(parse_atom("E(X, Y)"), db)
    assert view.attributes == ("X", "Y")
    assert view.row_memo is shared.row_memo and view.has_index(("Y",))
    # Other shapes of the predicate still translate on their own.
    assert atom_relation(parse_atom("E(X, X)"), db).row_memo is not shared.row_memo
