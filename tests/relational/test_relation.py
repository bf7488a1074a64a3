"""Unit tests for the Relation value type."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ArityError, SchemaError, VocabularyError
from repro.relational.algebra import rename
from repro.relational.relation import Relation


class TestConstruction:
    def test_basic(self):
        r = Relation(("x", "y"), [(1, 2), (2, 3)])
        assert r.arity == 2
        assert len(r) == 2
        assert (1, 2) in r

    def test_duplicate_rows_collapse(self):
        r = Relation(("x",), [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_rows_are_tuples_whatever_the_input(self):
        r = Relation(("x", "y"), [[1, 2]])
        assert (1, 2) in r

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(SchemaError):
            Relation(("x", "x"), [])

    def test_rejects_empty_attribute_name(self):
        with pytest.raises(SchemaError):
            Relation(("",), [])

    def test_rejects_non_string_attribute(self):
        with pytest.raises(SchemaError):
            Relation((1,), [])

    def test_rejects_wrong_arity_row(self):
        with pytest.raises(ArityError):
            Relation(("x", "y"), [(1,)])

    def test_empty(self):
        r = Relation.empty(("a", "b"))
        assert not r
        assert r.arity == 2

    def test_unit_contains_empty_tuple(self):
        u = Relation.unit()
        assert len(u) == 1
        assert () in u
        assert u.arity == 0

    def test_from_mappings(self):
        r = Relation.from_mappings(("x", "y"), [{"x": 1, "y": 2}, {"y": 4, "x": 3}])
        assert r.tuples == frozenset({(1, 2), (3, 4)})


class TestProtocol:
    def test_equality_requires_same_scheme(self):
        a = Relation(("x",), [(1,)])
        b = Relation(("y",), [(1,)])
        assert a != b

    def test_equality_and_hash(self):
        a = Relation(("x", "y"), [(1, 2)])
        b = Relation(("x", "y"), {(1, 2)})
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_yields_rows(self):
        r = Relation(("x",), [(1,), (2,)])
        assert sorted(r) == [(1,), (2,)]

    def test_bool(self):
        assert not Relation.empty(("x",))
        assert Relation(("x",), [(1,)])

    def test_repr_small_and_large(self):
        small = Relation(("x",), [(1,)])
        assert "(1,)" in repr(small)
        large = Relation(("x",), [(i,) for i in range(10)])
        assert "+6" in repr(large)


class TestViews:
    def test_rows_as_mappings(self):
        r = Relation(("x", "y"), [(1, 2)])
        assert list(r.rows_as_mappings()) == [{"x": 1, "y": 2}]

    def test_active_domain(self):
        r = Relation(("x", "y"), [(1, 2), (2, 3)])
        assert r.active_domain() == frozenset({1, 2, 3})

    def test_column(self):
        r = Relation(("x", "y"), [(1, 2), (2, 3)])
        assert r.column("x") == frozenset({1, 2})
        assert r.column("y") == frozenset({2, 3})

    def test_index_of_unknown_raises(self):
        r = Relation(("x",), [])
        with pytest.raises(VocabularyError) as exc:
            r.index_of("z")
        assert "'z'" in str(exc.value) and "'x'" in str(exc.value)

    def test_has_attribute(self):
        r = Relation(("x",), [])
        assert r.has_attribute("x")
        assert not r.has_attribute("y")


class TestHashIndexes:
    def test_index_groups_rows_by_key(self):
        r = Relation(("x", "y"), [(1, 2), (1, 3), (2, 2)])
        index = r.index_on(("x",))
        assert set(index) == {(1,), (2,)}
        assert sorted(index[(1,)]) == [(1, 2), (1, 3)]
        assert index[(2,)] == [(2, 2)]

    def test_index_key_order_matters(self):
        r = Relation(("x", "y"), [(1, 2)])
        assert set(r.index_on(("x", "y"))) == {(1, 2)}
        assert set(r.index_on(("y", "x"))) == {(2, 1)}

    def test_index_is_memoized(self):
        r = Relation(("x", "y"), [(1, 2), (2, 3)])
        assert not r.has_index(("y",))
        first = r.index_on(("y",))
        assert r.has_index(("y",))
        assert r.index_on(("y",)) is first

    def test_empty_key_indexes_all_rows(self):
        r = Relation(("x",), [(1,), (2,)])
        index = r.index_on(())
        assert set(index) == {()}
        assert sorted(index[()]) == [(1,), (2,)]

    def test_index_on_unknown_attribute_raises(self):
        r = Relation(("x",), [(1,)])
        with pytest.raises(VocabularyError):
            r.index_on(("ghost",))

    def test_index_covers_every_row_exactly_once(self):
        r = Relation(("x", "y"), [(i % 3, i) for i in range(9)])
        index = r.index_on(("x",))
        flattened = [t for bucket in index.values() for t in bucket]
        assert sorted(flattened) == sorted(r.tuples)


rows_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12
)


@given(rows_strategy)
def test_relation_is_a_set(rows):
    r = Relation(("x", "y"), rows)
    assert r.tuples == frozenset(map(tuple, rows))


@given(rows_strategy, rows_strategy)
def test_relation_equality_is_extensional(rows1, rows2):
    r1 = Relation(("x", "y"), rows1)
    r2 = Relation(("x", "y"), rows2)
    assert (r1 == r2) == (set(map(tuple, rows1)) == set(map(tuple, rows2)))


# -- renaming is a view: rows and their positional memo are shared ---------

names_strategy = st.lists(
    st.sampled_from("xyzab"), min_size=2, max_size=2, unique=True
).map(tuple)
positions_strategy = st.lists(st.integers(0, 1), max_size=2, unique=True).map(tuple)


@given(rows_strategy, names_strategy)
def test_renamed_equals_the_rebuilt_relation_and_shares_its_rows(rows, names):
    r = Relation(("x", "y"), rows)
    view = r.renamed(names)
    rebuilt = Relation(names, r.tuples)
    assert view == rebuilt and hash(view) == hash(rebuilt)
    assert view.tuples is r.tuples
    assert view.row_memo is r.row_memo


@given(rows_strategy, names_strategy, positions_strategy, st.booleans())
def test_an_index_built_through_either_name_serves_both(rows, names, key, on_view):
    r = Relation(("x", "y"), rows)
    view = r.renamed(names)
    builder, other = (view, r) if on_view else (r, view)
    builder_key = tuple(builder.attributes[i] for i in key)
    other_key = tuple(other.attributes[i] for i in key)
    assert not other.has_index(other_key)
    index = builder.index_on(builder_key)
    assert other.has_index(other_key) and other.index_on(other_key) is index
    scratch = Relation(other.attributes, rows).index_on(other_key)
    assert {k: sorted(v) for k, v in index.items()} == {
        k: sorted(v) for k, v in scratch.items()
    }


@given(st.lists(st.sampled_from("abc"), max_size=4))
def test_renamed_rejects_duplicate_names_and_wrong_arity(names):
    r = Relation(("x", "y"), [(1, 2)])
    if len(set(names)) != len(names):
        with pytest.raises(SchemaError):
            r.renamed(names)
    elif len(names) != 2:
        with pytest.raises(ArityError):
            r.renamed(names)
    else:
        assert r.renamed(names).attributes == tuple(names)


@given(rows_strategy, st.dictionaries(st.sampled_from("xy"), st.sampled_from("xyz")))
def test_algebra_rename_is_a_view_and_raises_on_collapse(rows, mapping):
    r = Relation(("x", "y"), rows)
    new_attrs = tuple(mapping.get(a, a) for a in r.attributes)
    if len(set(new_attrs)) < 2:
        with pytest.raises(SchemaError):
            rename(r, mapping)
        return
    renamed = rename(r, mapping)
    assert renamed == Relation(new_attrs, rows)
    assert renamed.tuples is r.tuples


def test_renaming_to_the_same_scheme_is_the_identity():
    r = Relation(("x", "y"), [(1, 2)])
    assert r.renamed(("x", "y")) is r
    assert rename(r, {}) is r


@given(rows_strategy, names_strategy)
def test_pickling_a_renamed_relation_drops_the_memo(rows, names):
    r = Relation(("x", "y"), rows)
    view = r.renamed(names)
    view.index_on(names[:1])
    view.parts_on(names[:1], names[1:])
    restored = pickle.loads(pickle.dumps(view))
    assert restored == view
    assert not restored.has_index(names[:1])
    assert restored.row_memo is not view.row_memo
    assert not restored.row_memo.parts
    assert r.has_index(("x",))  # the original keeps what it shares
    assert len(pickle.dumps(view)) == len(pickle.dumps(Relation(names, rows)))
