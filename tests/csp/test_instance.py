"""CSP instances: semantics and Section 2's normalizations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csp.instance import Constraint, CSPInstance
from repro.errors import ArityError, DomainError

NE = {(0, 1), (1, 0)}


class TestConstraint:
    def test_basic(self):
        c = Constraint(("x", "y"), NE)
        assert c.arity == 2
        assert c.variables() == frozenset({"x", "y"})

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            Constraint(("x",), [(1, 2)])

    def test_satisfied_by(self):
        c = Constraint(("x", "y"), NE)
        assert c.satisfied_by({"x": 0, "y": 1})
        assert not c.satisfied_by({"x": 0, "y": 0})

    def test_consistent_with_partial(self):
        c = Constraint(("x", "y"), NE)
        assert c.consistent_with({"x": 0})
        assert c.consistent_with({})
        assert not c.consistent_with({"x": 0, "y": 0})

    def test_equality_and_hash(self):
        assert Constraint(("x",), [(0,)]) == Constraint(("x",), {(0,)})
        assert hash(Constraint(("x",), [(0,)])) == hash(Constraint(("x",), [(0,)]))

    def test_repeated_scope_variable_allowed_pre_normalization(self):
        c = Constraint(("x", "x"), [(0, 0), (0, 1)])
        assert c.arity == 2


class TestCSPInstance:
    def test_basic(self):
        inst = CSPInstance(["x", "y"], [0, 1], [Constraint(("x", "y"), NE)])
        assert inst.is_solution({"x": 0, "y": 1})
        assert not inst.is_solution({"x": 0, "y": 0})

    def test_rejects_duplicate_variables(self):
        with pytest.raises(DomainError):
            CSPInstance(["x", "x"], [0], [])

    def test_rejects_unknown_scope_variable(self):
        with pytest.raises(DomainError):
            CSPInstance(["x"], [0], [Constraint(("z",), [(0,)])])

    def test_rejects_out_of_domain_constraint_value(self):
        with pytest.raises(DomainError):
            CSPInstance(["x"], [0], [Constraint(("x",), [(7,)])])

    def test_solution_must_be_total(self):
        inst = CSPInstance(["x", "y"], [0, 1], [])
        assert not inst.is_solution({"x": 0})

    def test_solution_must_stay_in_domain(self):
        inst = CSPInstance(["x"], [0, 1], [])
        assert not inst.is_solution({"x": 5})

    def test_partial_solution(self):
        inst = CSPInstance(["x", "y", "z"], [0, 1], [Constraint(("x", "y"), NE)])
        assert inst.is_partial_solution({"x": 0})
        assert inst.is_partial_solution({"x": 0, "y": 1})
        assert not inst.is_partial_solution({"x": 0, "y": 0})
        # A constraint whose scope is not fully covered is ignored.
        assert inst.is_partial_solution({"y": 0, "z": 0})

    def test_constraints_on(self):
        c1 = Constraint(("x", "y"), NE)
        c2 = Constraint(("y",), [(0,)])
        inst = CSPInstance(["x", "y"], [0, 1], [c1, c2])
        assert inst.constraints_on("x") == [c1]
        assert set(inst.constraints_on("y")) == {c1, c2}

    def test_max_arity_and_size(self):
        inst = CSPInstance(["x", "y"], [0, 1], [Constraint(("x", "y"), NE)])
        assert inst.max_arity() == 2
        assert inst.size() == 2 + 2 + 4


class TestNormalization:
    def test_consolidates_same_scope(self):
        c1 = Constraint(("x", "y"), {(0, 1), (1, 0)})
        c2 = Constraint(("x", "y"), {(0, 1), (1, 1)})
        inst = CSPInstance(["x", "y"], [0, 1], [c1, c2]).normalize()
        assert len(inst.constraints) == 1
        assert inst.constraints[0].relation == frozenset({(0, 1)})

    def test_removes_repeated_scope_variables(self):
        # (x, x) with R = {(0,0), (0,1)}: rows disagreeing on the repeats drop.
        c = Constraint(("x", "x"), {(0, 0), (0, 1)})
        inst = CSPInstance(["x"], [0, 1], [c]).normalize()
        assert inst.constraints[0].scope == ("x",)
        assert inst.constraints[0].relation == frozenset({(0,)})

    def test_normalization_preserves_solutions(self):
        c = Constraint(("x", "x", "y"), {(0, 0, 1), (0, 1, 1), (1, 1, 0)})
        inst = CSPInstance(["x", "y"], [0, 1], [c])
        norm = inst.normalize()
        for x in (0, 1):
            for y in (0, 1):
                assignment = {"x": x, "y": y}
                assert inst.is_solution(assignment) == norm.is_solution(assignment)

    def test_is_normalized(self):
        inst = CSPInstance(["x", "y"], [0, 1], [Constraint(("x", "y"), NE)])
        assert inst.is_normalized()
        dup = CSPInstance(
            ["x", "y"], [0, 1], [Constraint(("x", "y"), NE), Constraint(("x", "y"), NE)]
        )
        assert not dup.is_normalized()
        rep = CSPInstance(["x"], [0, 1], [Constraint(("x", "x"), [(0, 0)])])
        assert not rep.is_normalized()

    def test_normalize_returns_normalized_input_itself(self):
        inst = CSPInstance(["x", "y"], [0, 1], [Constraint(("x", "y"), NE)])
        assert inst.normalize() is inst

    def test_normalize_copies_input_that_is_not_normalized(self):
        dup = CSPInstance(
            ["x", "y"], [0, 1], [Constraint(("x", "y"), NE), Constraint(("y", "y"), [(0, 0)])]
        )
        norm = dup.normalize()
        assert norm is not dup and norm.is_normalized()
        assert [c.scope for c in dup.constraints] == [("x", "y"), ("y", "y")]
        assert [c.scope for c in norm.constraints] == [("x", "y"), ("y",)]
        assert norm.normalize() is norm

    def test_normalize_is_idempotent(self):
        inst = CSPInstance(
            ["x", "y"], [0, 1], [Constraint(("x", "y"), NE), Constraint(("x", "y"), NE)]
        )
        once = inst.normalize()
        twice = once.normalize()
        assert [c.scope for c in once.constraints] == [c.scope for c in twice.constraints]
        assert once.is_normalized()


@st.composite
def random_instance(draw):
    n = draw(st.integers(1, 4))
    variables = list(range(n))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        arity = draw(st.integers(1, 3))
        scope = tuple(draw(st.sampled_from(variables)) for _ in range(arity))
        rows = draw(
            st.lists(st.tuples(*[st.integers(0, 1)] * arity), max_size=6)
        )
        constraints.append(Constraint(scope, rows))
    return CSPInstance(variables, [0, 1], constraints)


@settings(max_examples=80, deadline=None)
@given(random_instance())
def test_normalize_preserves_solution_set(instance):
    from itertools import product

    norm = instance.normalize()
    assert norm.is_normalized()
    assert norm.normalize() is norm
    assert (norm is instance) == instance.is_normalized()
    for values in product([0, 1], repeat=len(instance.variables)):
        assignment = dict(zip(instance.variables, values))
        assert instance.is_solution(assignment) == norm.is_solution(assignment)
