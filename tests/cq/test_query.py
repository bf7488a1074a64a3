"""Conjunctive query AST and parser."""

import pytest

from repro.cq.parser import parse_atom, parse_query
from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.errors import ParseError


class TestVarAtom:
    def test_var_identity(self):
        assert Var("X") == Var("X")
        assert Var("X") != Var("Y")

    def test_atom_variables_in_order(self):
        a = Atom("R", (Var("Y"), 3, Var("X"), Var("Y")))
        assert a.variables() == (Var("Y"), Var("X"))
        assert a.constants() == (3,)
        assert a.arity == 4


class TestConjunctiveQuery:
    def test_paper_example(self):
        q = parse_query("Q(X1, X2) :- P(X1, Z1, Z2), R(Z2, Z3), R(Z3, X2).")
        assert q.head_name == "Q"
        assert q.distinguished == (Var("X1"), Var("X2"))
        assert len(q.body) == 3
        assert q.predicates() == {"P": 3, "R": 2}

    def test_boolean_query(self):
        q = ConjunctiveQuery("Q", (), [Atom("E", (Var("X"), Var("Y")))])
        assert q.is_boolean

    def test_unsafe_head_rejected(self):
        with pytest.raises(ParseError):
            ConjunctiveQuery("Q", (Var("X"),), [Atom("E", (Var("Y"), Var("Z")))])

    def test_non_variable_head_rejected(self):
        with pytest.raises(ParseError):
            ConjunctiveQuery("Q", (3,), [Atom("E", (3, Var("X")))])

    def test_variables_distinguished_first(self):
        q = parse_query("Q(Y) :- E(X, Y), E(Y, Z).")
        assert q.variables()[0] == Var("Y")
        assert set(q.existential_variables()) == {Var("X"), Var("Z")}

    def test_arity_clash_detected(self):
        q = ConjunctiveQuery(
            "Q", (), [Atom("E", (Var("X"),)), Atom("E", (Var("X"), Var("Y")))]
        )
        with pytest.raises(ParseError):
            q.predicates()

    def test_rename_apart(self):
        q = parse_query("Q(X) :- E(X, Y).")
        r = q.rename_apart("_1")
        assert r.distinguished == (Var("X_1"),)
        assert not set(v.name for v in q.variables()) & set(
            v.name for v in r.variables()
        )

    def test_equality_ignores_body_order(self):
        q1 = parse_query("Q(X) :- E(X, Y), F(Y).")
        q2 = parse_query("Q(X) :- F(Y), E(X, Y).")
        assert q1 == q2


class TestParser:
    def test_constants(self):
        a = parse_atom("R(X, alice, 42, 'bob cat')")
        assert a.terms == (Var("X"), "alice", 42, "bob cat")

    def test_underscore_is_variable(self):
        a = parse_atom("R(_x)")
        assert a.terms == (Var("_x"),)

    def test_nullary_atom(self):
        assert parse_atom("Q()").arity == 0

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("R(X) junk")

    def test_missing_period_ok(self):
        q = parse_query("Q(X) :- E(X, Y)")
        assert len(q.body) == 1

    def test_constant_in_head_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Q(a) :- E(a, X).")

    def test_bad_tokens(self):
        with pytest.raises(ParseError):
            parse_query("Q(X) :- E(X @ Y).")

    def test_negative_integer_constant(self):
        a = parse_atom("R(-5)")
        assert a.terms == (-5,)


def test_answer_columns_name_repeats_apart():
    assert parse_query("Q(X, Y) :- E(X, Y).").answer_columns() == ("X", "Y")
    assert parse_query("Q(X, Y, X, X) :- E(X, Y).").answer_columns() == (
        "X", "Y", "X#2", "X#3",
    )
    assert parse_query("Q() :- E(X, Y).").answer_columns() == ()
