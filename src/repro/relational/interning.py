"""Dense-integer value interning — the code-space data plane.

Every algorithm in the tutorial (Props 2.1/2.2, Theorems 4.3/5.2) is stated
over abstract domains, so a bijective value ↔ int encoding is semantics-free:
any structure or CSP instance can be mapped onto the domain ``0..n-1``, run
through kernels that work on machine ints and bitmasks, and mapped back.
The :class:`Codec` assigns codes in ``repr`` order, which makes ascending
code order coincide with the ``repr``-keyed sorts the rest of the codebase
uses for determinism — interned kernels can iterate numerically (or by
ascending bit) and still reproduce the exact observable orderings of the
set-based paths.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.csp.instance import Constraint, CSPInstance
from repro.errors import DomainError
from repro.relational.structure import Structure

__all__ = [
    "Codec",
    "bit_positions",
    "encode_structure",
    "decode_structure",
    "encode_instance",
    "decode_instance",
]


def bit_positions(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order.

    Under a :class:`Codec` this is ascending code order, i.e. the original
    ``repr`` order of the decoded values.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Codec:
    """A bijection between arbitrary hashable values and dense int codes.

    Codes are assigned in sorted-by-``repr`` order, so for any subset of the
    interned universe, ascending code order equals the ``sorted(..., key=repr)``
    order used throughout the plain-value paths.
    """

    __slots__ = ("_values", "_codes")

    def __init__(self, values: Iterable[Any]):
        ordered = sorted(set(values), key=repr)
        self._values: Tuple[Any, ...] = tuple(ordered)
        self._codes: Dict[Any, int] = {v: i for i, v in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return value in self._codes

    @property
    def values(self) -> Tuple[Any, ...]:
        """All interned values in ascending code (== ``repr``) order."""
        return self._values

    @property
    def code_map(self) -> Dict[Any, int]:
        """The ``value → code`` dict, for probe loops that treat an absent
        value as "cannot match" instead of an error (callers must not
        mutate it)."""
        return self._codes

    @property
    def full_mask(self) -> int:
        """Bitmask with one bit set per interned value."""
        return (1 << len(self._values)) - 1

    def encode(self, value: Any) -> int:
        try:
            return self._codes[value]
        except KeyError:
            raise DomainError(
                f"value {value!r} is not in the interned universe"
            ) from None

    def decode(self, code: int) -> Any:
        if not 0 <= code < len(self._values):
            raise DomainError(
                f"code {code!r} is outside the interned range 0..{len(self._values) - 1}"
            )
        return self._values[code]

    def encode_row(self, row: Iterable[Any]) -> Tuple[int, ...]:
        codes = self._codes
        try:
            return tuple(codes[v] for v in row)
        except KeyError as exc:
            raise DomainError(
                f"value {exc.args[0]!r} is not in the interned universe"
            ) from None

    def decode_row(self, row: Iterable[int]) -> Tuple[Any, ...]:
        return tuple(self.decode(c) for c in row)

    def mask_of(self, values: Iterable[Any]) -> int:
        """Bitmask of a subset of the interned universe."""
        mask = 0
        for value in values:
            mask |= 1 << self.encode(value)
        return mask

    def set_of(self, mask: int) -> set:
        """Decode a bitmask back to the value set it represents."""
        values = self._values
        return {values[c] for c in bit_positions(mask)}


def encode_structure(
    structure: Structure, codec: Optional[Codec] = None
) -> Tuple[Structure, Codec]:
    """Rebuild ``structure`` over the dense-code domain ``0..n-1``.

    The vocabulary is preserved; only domain elements are renamed.  The
    result is isomorphic to the input via ``codec.decode``.
    """
    if codec is None:
        codec = Codec(structure.domain)
    relations = {
        symbol: {codec.encode_row(row) for row in rows}
        for symbol, rows in structure.relations().items()
    }
    encoded = Structure(
        structure.vocabulary,
        [codec.encode(v) for v in structure.domain],
        relations,
    )
    return encoded, codec


def decode_structure(structure: Structure, codec: Codec) -> Structure:
    """Invert :func:`encode_structure`."""
    relations = {
        symbol: {codec.decode_row(row) for row in rows}
        for symbol, rows in structure.relations().items()
    }
    return Structure(
        structure.vocabulary,
        [codec.decode(c) for c in structure.domain],
        relations,
    )


def encode_instance(
    instance: CSPInstance, codec: Optional[Codec] = None
) -> Tuple[CSPInstance, Codec]:
    """Rebuild ``instance`` over the dense-code domain; variables unchanged."""
    if codec is None:
        codec = Codec(instance.domain)
    constraints = [
        Constraint(c.scope, {codec.encode_row(row) for row in c.relation})
        for c in instance.constraints
    ]
    encoded = CSPInstance(
        instance.variables,
        [codec.encode(v) for v in instance.domain],
        constraints,
    )
    return encoded, codec


def decode_instance(instance: CSPInstance, codec: Codec) -> CSPInstance:
    """Invert :func:`encode_instance`."""
    constraints = [
        Constraint(c.scope, {codec.decode_row(row) for row in c.relation})
        for c in instance.constraints
    ]
    return CSPInstance(
        instance.variables,
        [codec.decode(c) for c in instance.domain],
        constraints,
    )


def decode_domains(domains: Dict[Any, int], codec: Codec) -> Dict[Any, set]:
    """Decode per-variable bitmask domains to per-variable value sets."""
    return {variable: codec.set_of(mask) for variable, mask in domains.items()}
