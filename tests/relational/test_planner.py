"""Unit tests for the join order: ``plan_join`` and its step rule."""

import pytest

from repro.errors import SolverError
from repro.relational.algebra import join_all
from repro.relational.planner import (
    EXECUTIONS,
    STRATEGIES,
    next_operand,
    parse_strategy,
    plan_join,
)
from repro.relational.relation import Relation


def rel(attrs, rows):
    return Relation(attrs, rows)


class TestPlans:
    def test_textbook_keeps_given_order(self):
        rels = [rel(("a",), [(i,) for i in range(n)]) for n in (5, 1, 3)]
        assert plan_join(rels, "textbook") == (0, 1, 2)

    def test_greedy_starts_with_smallest_relation(self):
        rels = [
            rel(("x", "y"), [(i, i) for i in range(9)]),
            rel(("y", "z"), [(0, 0)]),
            rel(("z", "w"), [(i, i) for i in range(4)]),
        ]
        assert plan_join(rels, "greedy")[0] == 1

    def test_greedy_breaks_a_size_tie_by_position(self):
        rels = [
            rel(("x", "y"), [(i, i) for i in range(9)]),
            rel(("y", "z"), [(0, 0), (1, 1)]),
            rel(("z", "w"), [(2, 2), (3, 3)]),
        ]
        assert plan_join(rels, "greedy")[0] == 1

    def test_greedy_avoids_cartesian_products(self):
        # A chain R(a,b)–S(b,c)–T(c,d): after R, joining T would be a pure
        # product; greedy must pick the connected S first.
        r = rel(("a", "b"), [(i, i) for i in range(2)])
        s = rel(("b", "c"), [(i, i) for i in range(5)])
        t = rel(("c", "d"), [(i, i) for i in range(5)])
        assert plan_join([r, s, t], "greedy") == (0, 1, 2)

    def test_greedy_prefers_empty_relation_first(self):
        rels = [
            rel(("x", "y"), [(i, i) for i in range(5)]),
            Relation.empty(("y", "z")),
        ]
        assert plan_join(rels, "greedy")[0] == 1

    def test_plan_is_a_permutation(self):
        rels = [rel(("a", "b"), [(1, 2)]), rel(("b", "c"), [(2, 3)]),
                rel(("a", "c"), [(1, 3)]), rel(("d",), [(9,)])]
        for strategy in STRATEGIES:
            assert sorted(plan_join(rels, strategy)) == [0, 1, 2, 3]

    def test_empty_input(self):
        for strategy in STRATEGIES:
            assert plan_join([], strategy) == ()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SolverError):
            plan_join([rel(("a",), [(1,)])], "quantum")

    def test_deterministic(self):
        rels = [rel(("a", "b"), [(i, j) for i in range(3) for j in range(2)]),
                rel(("b", "c"), [(i, i) for i in range(4)]),
                rel(("c", "a"), [(i, 0) for i in range(3)])]
        plans = {plan_join(rels, "greedy") for _ in range(5)}
        assert len(plans) == 1


class TestStepRule:
    def test_an_all_bound_operand_goes_first(self):
        pending = [
            rel(("y", "z"), [(1, 2)]),
            rel(("x", "y"), [(i, i) for i in range(9)]),
        ]
        # (y, z) has one of its variables bound and (x, y) both: the
        # all-bound one wins despite its size.
        assert next_operand({"x", "y"}, pending) == 1

    def test_most_bound_variables_then_fewer_rows_then_position(self):
        pending = [
            rel(("a", "q"), [(1, 2), (2, 3)]),
            rel(("a", "b", "q"), [(1, 2, 3), (2, 3, 4)]),
            rel(("b", "r"), [(1, 1)]),
            rel(("a", "s"), [(1, 1)]),
        ]
        assert next_operand({"a", "b"}, pending) == 1
        assert next_operand({"a"}, pending) == 3
        assert next_operand({"a"}, pending[:3]) == 0
        assert next_operand(set(), pending[2:]) == 0

    def test_greedy_applies_the_step_rule_from_the_smallest(self):
        # The triangle's smallest edge set binds (x, y); the closing
        # atom over (x, z) and the one over (y, z) each bind one variable,
        # and the smaller of the two goes next.
        xy = rel(("x", "y"), [(0, 1)])
        yz = rel(("y", "z"), [(i, i) for i in range(6)])
        xz = rel(("x", "z"), [(i, i) for i in range(4)])
        assert plan_join([yz, xz, xy], "greedy") == (2, 1, 0)


def test_smallest_is_no_longer_an_order():
    with pytest.raises(SolverError, match="greedy") as excinfo:
        parse_strategy("smallest")
    assert "textbook" in str(excinfo.value)
    with pytest.raises(SolverError):
        plan_join([rel(("a",), [(1,)])], "smallest")


def test_columnar_is_no_longer_an_execution():
    assert EXECUTIONS == ("indexed", "scan", "wcoj")
    with pytest.raises(SolverError, match="indexed") as excinfo:
        parse_strategy("columnar")
    assert "scan" in str(excinfo.value) and "wcoj" in str(excinfo.value)
    for operands in ([rel(("a",), [(1,)])], []):
        with pytest.raises(SolverError):
            join_all(operands, execution="columnar")
