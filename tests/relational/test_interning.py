"""Tests for the interning layer: dense-int codecs and code-space encoding.

The codec contract the execution layer leans on:

* bijectivity — ``decode(encode(x)) == x`` for every domain value, on raw
  values, rows, structures, and CSP instances (hypothesis-checked on mixed
  ``str``/``int``/``tuple`` value universes);
* order preservation — codes ascend in the values' ``repr`` order, so
  iterating codes numerically visits values exactly as the plain engines'
  ``sorted(..., key=repr)`` loops do;
* strictness — unknown values/codes raise :class:`~repro.errors.DomainError`
  instead of silently corrupting code space.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.propagation import ColumnarEngine, InternedEngine
from repro.csp.instance import Constraint, CSPInstance
from repro.errors import DomainError
from repro.relational.interning import (
    Codec,
    bit_positions,
    decode_instance,
    decode_structure,
    encode_instance,
    encode_structure,
)
from repro.relational.structure import Structure

# Mixed-type universes: strings, ints, and tuples are all realistic CSP
# domain values (coloring labels, indices, composite keys).
VALUES = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.text(alphabet="abcxyz", min_size=0, max_size=3),
    st.tuples(st.integers(min_value=0, max_value=5), st.booleans()),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(VALUES, min_size=0, max_size=12))
def test_codec_roundtrip_and_density(values):
    codec = Codec(values)
    universe = set(values)
    assert len(codec) == len(universe)
    for v in universe:
        code = codec.encode(v)
        assert 0 <= code < len(codec)
        assert codec.decode(code) == v
    # Codes are dense: every int below len(codec) decodes.
    assert {codec.encode(v) for v in universe} == set(range(len(codec)))


@settings(max_examples=120, deadline=None)
@given(st.lists(VALUES, min_size=0, max_size=12))
def test_codec_code_order_is_repr_order(values):
    """Ascending code order == repr order of the decoded values, on the full
    universe and on any subset (so bit-iteration replaces repr sorts)."""
    codec = Codec(values)
    decoded = [codec.decode(c) for c in range(len(codec))]
    assert decoded == sorted(set(values), key=repr)


@settings(max_examples=100, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=10), st.data())
def test_codec_mask_roundtrip(values, data):
    codec = Codec(values)
    subset = set(data.draw(st.lists(st.sampled_from(sorted(set(values), key=repr)))))
    mask = codec.mask_of(subset)
    assert codec.set_of(mask) == subset
    assert mask.bit_count() == len(subset)
    # bit_positions enumerates exactly the set bits, ascending.
    positions = list(bit_positions(mask))
    assert positions == sorted(positions)
    assert {codec.decode(p) for p in positions} == subset


def test_codec_rejects_unknown_values_and_codes():
    codec = Codec(["a", "b"])
    with pytest.raises(DomainError):
        codec.encode("c")
    with pytest.raises(DomainError):
        codec.decode(2)
    with pytest.raises(DomainError):
        codec.decode(-1)


def test_full_mask_covers_universe():
    codec = Codec([3, 1, 2])
    assert codec.full_mask == 0b111
    assert codec.set_of(codec.full_mask) == {1, 2, 3}
    assert Codec([]).full_mask == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(VALUES, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=10),
)
def test_structure_roundtrip(domain_values, row_picks):
    domain = sorted(set(domain_values), key=repr)
    rows = [
        (domain[i % len(domain)], domain[(i + 1) % len(domain)]) for i in row_picks
    ]
    unary = [(domain[i % len(domain)],) for i in row_picks[:3]]
    structure = Structure({"E": 2, "U": 1}, domain, {"E": rows, "U": unary})
    encoded, codec = encode_structure(structure)
    # Same vocabulary, int domain, encoded rows.
    assert encoded.vocabulary == structure.vocabulary
    assert set(encoded.domain) == set(range(len(codec)))
    assert decode_structure(encoded, codec) == structure


@settings(max_examples=60, deadline=None)
@given(
    st.lists(VALUES, min_size=1, max_size=5),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_instance_roundtrip(domain_values, n_vars, data):
    domain = sorted(set(domain_values), key=repr)
    variables = [f"v{i}" for i in range(n_vars)]
    constraints = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        arity = data.draw(st.integers(min_value=1, max_value=min(2, n_vars)))
        scope = tuple(data.draw(st.permutations(variables))[:arity])
        rows = data.draw(
            st.lists(
                st.tuples(*[st.sampled_from(domain)] * arity), max_size=6
            )
        )
        constraints.append(Constraint(scope, rows))
    instance = CSPInstance(variables, domain, constraints)
    encoded, codec = encode_instance(instance)
    assert encoded.variables == instance.variables  # variables untouched
    assert set(encoded.domain) == set(range(len(codec)))
    restored = decode_instance(encoded, codec)
    assert restored.variables == instance.variables
    assert restored.domain == instance.domain
    assert set(restored.constraints) == set(instance.constraints)
    # The bitset engines encode the rows in one pass; they must agree with
    # the instance-level encoding, constraint for constraint.
    norm = instance.normalize()
    expected = [(c.scope, c.relation) for c in encode_instance(norm)[0].constraints]
    for engine in (InternedEngine(instance), ColumnarEngine(instance)):
        assert engine.code_constraints == expected


def test_shared_codec_reuse():
    """Passing an explicit codec interns against the shared table — values
    outside it are rejected, and codes agree across encodings."""
    codec = Codec(["x", "y", "z"])
    s1 = Structure({"E": 2}, ["x", "y"], {"E": [("x", "y")]})
    s2 = Structure({"E": 2}, ["y", "z"], {"E": [("z", "y")]})
    e1, c1 = encode_structure(s1, codec)
    e2, c2 = encode_structure(s2, codec)
    assert c1 is codec and c2 is codec
    assert e1.relation("E") != e2.relation("E")
    bad = Structure({"E": 2}, ["w"], {"E": []})
    with pytest.raises(DomainError):
        encode_structure(bad, codec)


def test_bit_positions_empty_and_sparse():
    assert list(bit_positions(0)) == []
    assert list(bit_positions(0b1)) == [0]
    assert list(bit_positions((1 << 70) | 0b101)) == [0, 2, 70]
