"""Structures, vocabularies, and the σ₁+σ₂ sum encoding."""

import pytest

from repro.errors import ArityError, DomainError, VocabularyError
from repro.relational.structure import (
    SUM_DOMAIN_LEFT,
    SUM_DOMAIN_RIGHT,
    Structure,
    Vocabulary,
    sum_structure,
)


class TestVocabulary:
    def test_arity_lookup(self):
        v = Vocabulary({"E": 2, "P": 1})
        assert v.arity("E") == 2
        assert v.max_arity() == 2
        assert len(v) == 2
        assert "E" in v

    def test_unknown_symbol(self):
        with pytest.raises(VocabularyError):
            Vocabulary({"E": 2}).arity("F")

    def test_invalid_names_and_arities(self):
        with pytest.raises(VocabularyError):
            Vocabulary({"": 1})
        with pytest.raises(VocabularyError):
            Vocabulary({"E": -1})

    def test_equality_and_hash(self):
        assert Vocabulary({"E": 2}) == Vocabulary({"E": 2})
        assert hash(Vocabulary({"E": 2})) == hash(Vocabulary({"E": 2}))
        assert Vocabulary({"E": 2}) != Vocabulary({"E": 3})

    def test_empty_vocabulary_max_arity(self):
        assert Vocabulary({}).max_arity() == 0

    def test_iteration_sorted(self):
        v = Vocabulary({"Z": 1, "A": 1})
        assert list(v) == ["A", "Z"]


class TestStructure:
    def test_basic(self):
        s = Structure({"E": 2}, [0, 1], {"E": [(0, 1)]})
        assert s.relation("E") == frozenset({(0, 1)})
        assert s.domain == frozenset({0, 1})

    def test_plain_dict_vocabulary_accepted(self):
        s = Structure({"E": 2}, [0], {})
        assert s.relation("E") == frozenset()

    def test_missing_relations_are_empty(self):
        s = Structure({"E": 2, "P": 1}, [0], {"E": []})
        assert s.relation("P") == frozenset()

    def test_rejects_unknown_relation(self):
        with pytest.raises(VocabularyError):
            Structure({"E": 2}, [0], {"F": []})

    def test_rejects_wrong_arity(self):
        with pytest.raises(ArityError):
            Structure({"E": 2}, [0], {"E": [(0,)]})

    def test_rejects_out_of_domain_value(self):
        with pytest.raises(DomainError):
            Structure({"E": 2}, [0], {"E": [(0, 7)]})

    def test_facts_sorted_iteration(self):
        s = Structure({"E": 2, "P": 1}, [0, 1], {"E": [(0, 1)], "P": [(1,)]})
        assert list(s.facts()) == [("E", (0, 1)), ("P", (1,))]

    def test_sizes(self):
        s = Structure({"E": 2}, [0, 1, 2], {"E": [(0, 1), (1, 2)]})
        assert s.total_tuples() == 2
        assert s.size() == 5
        assert s.active_domain() == frozenset({0, 1, 2})

    def test_restrict(self):
        s = Structure({"E": 2}, [0, 1, 2], {"E": [(0, 1), (1, 2)]})
        sub = s.restrict([0, 1])
        assert sub.domain == frozenset({0, 1})
        assert sub.relation("E") == frozenset({(0, 1)})

    def test_with_relation_adds_symbol(self):
        s = Structure({"E": 2}, [0, 1], {"E": [(0, 1)]})
        t = s.with_relation("P", 1, [(0,)])
        assert t.relation("P") == frozenset({(0,)})
        assert t.relation("E") == s.relation("E")

    def test_with_relation_arity_conflict(self):
        s = Structure({"E": 2}, [0, 1], {})
        with pytest.raises(VocabularyError):
            s.with_relation("E", 3, [])

    def test_equality_and_hash(self):
        s1 = Structure({"E": 2}, [0, 1], {"E": [(0, 1)]})
        s2 = Structure({"E": 2}, {1, 0}, {"E": {(0, 1)}})
        assert s1 == s2
        assert hash(s1) == hash(s2)


class TestSumStructure:
    def setup_method(self):
        self.a = Structure({"E": 2}, [0, 1], {"E": [(0, 1)]})
        self.b = Structure({"E": 2}, ["x"], {"E": [("x", "x")]})

    def test_domain_is_tagged_disjoint_union(self):
        s = sum_structure(self.a, self.b)
        assert (0, 0) in s.domain and (0, 1) in s.domain and (1, "x") in s.domain
        assert len(s.domain) == 3

    def test_marker_predicates(self):
        s = sum_structure(self.a, self.b)
        assert s.relation(SUM_DOMAIN_LEFT) == frozenset({((0, 0),), ((0, 1),)})
        assert s.relation(SUM_DOMAIN_RIGHT) == frozenset({((1, "x"),)})

    def test_relation_copies(self):
        s = sum_structure(self.a, self.b)
        assert s.relation("E_1") == frozenset({((0, 0), (0, 1))})
        assert s.relation("E_2") == frozenset({((1, "x"), (1, "x"))})

    def test_vocabulary_mismatch_raises(self):
        other = Structure({"F": 1}, [0], {})
        with pytest.raises(VocabularyError):
            sum_structure(self.a, other)


class TestDerivedMemo:
    """The identity-scoped derived-value memo: cached per object, excluded
    from equality/hash/pickling."""

    def make(self):
        return Structure({"E": 2}, [1, 2], {"E": [(1, 2)]})

    def test_build_runs_once_per_key(self):
        s = self.make()
        calls = []
        assert s.derived("k", lambda: calls.append(1) or "value") == "value"
        assert s.derived("k", lambda: calls.append(1) or "other") == "value"
        assert len(calls) == 1
        assert s.derived("k2", lambda: "second") == "second"

    def test_memo_is_identity_state_not_content(self):
        a, b = self.make(), self.make()
        a.derived("k", lambda: "cached")
        assert a == b and hash(a) == hash(b)
        assert b.derived("k", lambda: "fresh") == "fresh"

    def test_pickle_drops_the_memo_and_keeps_the_facts(self):
        import pickle

        s = self.make()
        s.derived("k", lambda: object())  # unpicklable value must not travel
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s and hash(clone) == hash(s)
        assert clone.derived("k", lambda: "rebuilt") == "rebuilt"

    def test_atom_relations_are_shared_across_queries(self):
        from repro.cq.evaluate import atom_relation
        from repro.cq.parser import parse_atom

        s = self.make()
        r1 = atom_relation(parse_atom("E(X, Y)"), s)
        r2 = atom_relation(parse_atom("E(X, Y)"), s)
        assert r1 is r2
        other = atom_relation(parse_atom("E(A, B)"), s)
        assert other is not r1 and other.attributes == ("A", "B")
        # One shape, one translation: the renamed view shares the
        # structure's rows and the positional row memo.
        assert other.tuples is r1.tuples is s.relation("E")
        assert not other.has_index(("B",))
        index = r1.index_on(("Y",))
        assert other.has_index(("B",)) and other.index_on(("B",)) is index
        # Different shapes translate separately and share nothing.
        for text in ("E(X, X)", "E(X, 2)", "E(2, X)", "E(1, 2)"):
            shaped = atom_relation(parse_atom(text), s)
            assert shaped.tuples is not r1.tuples, text
            assert shaped.row_memo is not r1.row_memo, text
        assert atom_relation(parse_atom("E(Y, Y)"), s).tuples is (
            atom_relation(parse_atom("E(X, X)"), s).tuples
        )
