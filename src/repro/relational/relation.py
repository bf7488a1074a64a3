"""Named-attribute relations — the basic value type of the library.

A :class:`Relation` is an immutable set of equal-length tuples together with
a *scheme*: a tuple of distinct attribute names, one per column.  This is the
classical named perspective of the relational model (Codd; see also
Abiteboul–Hull–Vianu, *Foundations of Databases*), and it is exactly the view
the tutorial takes in Section 2 when it reads a CSP constraint ``(t, R)`` as
"a relation ``R`` over the scheme ``t``".

Relations are hashable and comparable, so they can be shared freely between
the CSP, conjunctive-query, and structure representations that the library
converts between.

Rows, and everything derived from them, live by column *position*; the
scheme is a view over them.  The memoized hash indexes and bucket
projections sit in one :class:`RowMemo` keyed by column positions,
and :meth:`Relation.renamed` hands out the same rows under another scheme
in O(1), sharing both the row set and that memo — so an index built
through one variable naming is probed through every other.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

from repro.errors import ArityError, SchemaError, VocabularyError

__all__ = ["Relation", "RowMemo"]


class RowMemo:
    """The derived state of one row set, keyed by column positions.

    Every relation sharing a row set through :meth:`Relation.renamed`
    shares this memo, so whatever one naming builds, every other naming
    finds.  ``indexes`` maps a tuple of key positions to the
    :meth:`Relation.index_on` index over those columns; ``parts`` maps a
    pair of key and column positions to the :meth:`Relation.parts_on`
    projections of that index's buckets.  The memo only ever gains
    entries, and its indexes and their buckets are never mutated while
    the relation can still be handed out; the one exception is a
    maintenance pool's batch-private index, edited in place once the
    mid-batch snapshot it was published to is unreachable
    (:mod:`repro.datalog.incremental`).
    """

    __slots__ = ("indexes", "parts")

    def __init__(self) -> None:
        self.indexes: dict[tuple[int, ...], dict[tuple[Any, ...], list[tuple[Any, ...]]]] = {}
        self.parts: dict[tuple[tuple[int, ...], tuple[int, ...]], _BucketParts] = {}


class _BucketParts(dict):
    """``key → distinct projections of the key's bucket`` onto the columns
    at ``positions``, computed on first lookup (empty for a key the index
    lacks), so each bucket is projected once however many probes hit it."""

    __slots__ = ("index", "positions")

    def __init__(self, index: Mapping[tuple, list], positions: Sequence[int]):
        super().__init__()
        self.index = index
        self.positions = positions

    def __missing__(self, key: tuple) -> frozenset | set:
        bucket = self.index.get(key)
        part = self[key] = frozenset() if bucket is None else set(_take(bucket, self.positions))
        return part


def _take(rows: Iterable[tuple], positions: Sequence[int]) -> Iterable[tuple]:
    """The columns at ``positions`` of every row, as tuples.

    One :func:`operator.itemgetter` mapped over the rows, so no Python
    frame runs per row (a single column is re-wrapped into 1-tuples by
    ``zip``).
    """
    if len(positions) > 1:
        return map(itemgetter(*positions), rows)
    if positions:
        return zip(map(itemgetter(positions[0]), rows))
    return (() for _ in rows)


def _check_scheme(attributes: Sequence[str]) -> tuple[str, ...]:
    attrs = tuple(attributes)
    if len(set(attrs)) != len(attrs):
        raise SchemaError(f"attribute names must be distinct, got {attrs!r}")
    for name in attrs:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"attribute names must be non-empty strings, got {name!r}")
    return attrs


class Relation:
    """An immutable relation over a scheme of named attributes.

    Parameters
    ----------
    attributes:
        The scheme — a sequence of distinct, non-empty attribute names.
    tuples:
        The rows.  Every row must have exactly ``len(attributes)`` entries.
        Rows may contain any hashable Python values.

    Examples
    --------
    >>> r = Relation(("x", "y"), [(1, 2), (2, 3)])
    >>> r.arity
    2
    >>> (1, 2) in r
    True
    """

    __slots__ = ("_attributes", "_tuples", "_hash", "_memo", "_keys")

    def __init__(self, attributes: Sequence[str], tuples: Iterable[Sequence[Any]] = ()):
        self._attributes = _check_scheme(attributes)
        arity = len(self._attributes)
        rows = set()
        for row in tuples:
            t = tuple(row)
            if len(t) != arity:
                raise ArityError(
                    f"tuple {t!r} has {len(t)} entries but the scheme "
                    f"{self._attributes!r} has arity {arity}"
                )
            rows.add(t)
        self._tuples: frozenset[tuple[Any, ...]] = frozenset(rows)
        self._hash: int | None = None
        self._memo: RowMemo | None = None
        self._keys: dict[tuple[str, ...], tuple[int, ...]] = {}

    # -- basic protocol ---------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        """The scheme of this relation (a tuple of distinct attribute names)."""
        return self._attributes

    @property
    def tuples(self) -> frozenset[tuple[Any, ...]]:
        """The set of rows."""
        return self._tuples

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self._attributes)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._tuples)

    def __contains__(self, row: object) -> bool:
        return row in self._tuples

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._attributes == other._attributes and self._tuples == other._tuples

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._attributes, self._tuples))
        return self._hash

    def __repr__(self) -> str:
        shown = sorted(self._tuples, key=repr)[:4]
        more = "" if len(self._tuples) <= 4 else f", …(+{len(self._tuples) - 4})"
        body = ", ".join(repr(t) for t in shown)
        return f"Relation({self._attributes!r}, {{{body}{more}}})"

    # -- pickling ----------------------------------------------------------
    #
    # Only the scheme and the rows travel: the row memo (hash indexes and
    # bucket projections) is derived state, rebuilt lazily on the other
    # side, so a pickled relation costs no more than its rows.

    def __getstate__(self) -> tuple[tuple[str, ...], frozenset[tuple[Any, ...]]]:
        return (self._attributes, self._tuples)

    def __setstate__(
        self, state: tuple[tuple[str, ...], frozenset[tuple[Any, ...]]]
    ) -> None:
        self._attributes, self._tuples = state
        self._hash = None
        self._memo = None
        self._keys = {}

    # -- construction helpers ---------------------------------------------

    @classmethod
    def empty(cls, attributes: Sequence[str]) -> "Relation":
        """The empty relation over the given scheme."""
        return cls(attributes, ())

    @classmethod
    def unit(cls) -> "Relation":
        """The nullary relation containing the empty tuple.

        This is the identity of the natural join: joining any relation with
        ``Relation.unit()`` returns that relation unchanged.
        """
        return cls((), [()])

    @classmethod
    def from_trusted_rows(
        cls, attributes: tuple[str, ...], rows: frozenset[tuple[Any, ...]]
    ) -> "Relation":
        """Wrap an already-validated row set without copying it.

        The caller vouches that ``attributes`` is a well-formed scheme and
        every row in ``rows`` is a tuple of matching arity — the invariant a
        :class:`~repro.relational.structure.Structure` maintains for its
        predicate values.  The frozenset is shared, not copied, which is
        what makes rebuilding an atom relation over an unchanged predicate
        value O(1) instead of O(rows).
        """
        relation = cls.__new__(cls)
        relation._attributes = attributes
        relation._tuples = rows if isinstance(rows, frozenset) else frozenset(rows)
        relation._hash = None
        relation._memo = None
        relation._keys = {}
        return relation

    def renamed(self, attributes: Sequence[str]) -> "Relation":
        """The same rows under the scheme ``attributes``, in O(1).

        Columns correspond positionally.  The result shares this
        relation's row set and :class:`RowMemo`, so indexes built through
        either scheme serve both; equality and
        hashing still see the new names.  Renaming to the current scheme
        returns ``self``.  A scheme with repeated names raises
        :class:`~repro.errors.SchemaError`, one of the wrong length
        :class:`~repro.errors.ArityError`.

        >>> r = Relation(("x", "y"), [(1, 2)])
        >>> s = r.renamed(("a", "b"))
        >>> s.attributes, s.tuples is r.tuples
        (('a', 'b'), True)
        """
        attrs = tuple(attributes)
        if attrs == self._attributes:
            return self
        _check_scheme(attrs)
        if len(attrs) != len(self._attributes):
            raise ArityError(
                f"scheme {attrs!r} has arity {len(attrs)} but the relation "
                f"has arity {len(self._attributes)}"
            )
        relation = Relation.from_trusted_rows(attrs, self._tuples)
        relation._memo = self.row_memo
        return relation

    @classmethod
    def from_mappings(
        cls, attributes: Sequence[str], rows: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build a relation from dict-like rows keyed by attribute name."""
        attrs = tuple(attributes)
        return cls(attrs, (tuple(row[a] for a in attrs) for row in rows))

    # -- row/value views ---------------------------------------------------

    def rows_as_mappings(self) -> Iterator[dict[str, Any]]:
        """Iterate the rows as ``{attribute: value}`` dictionaries."""
        for t in self._tuples:
            yield dict(zip(self._attributes, t))

    def active_domain(self) -> frozenset[Any]:
        """All values appearing anywhere in the relation."""
        return frozenset(v for t in self._tuples for v in t)

    def column(self, attribute: str) -> frozenset[Any]:
        """The set of values appearing in the named column."""
        idx = self.index_of(attribute)
        return frozenset(t[idx] for t in self._tuples)

    def index_of(self, attribute: str) -> int:
        """Position of ``attribute`` in the scheme.

        Raises :class:`~repro.errors.VocabularyError` (naming the attribute
        and the scheme) when the attribute is absent.
        """
        try:
            return self._attributes.index(attribute)
        except ValueError:
            raise VocabularyError(
                f"attribute {attribute!r} not in scheme {self._attributes!r}"
            ) from None

    def has_attribute(self, attribute: str) -> bool:
        """Whether ``attribute`` occurs in the scheme."""
        return attribute in self._attributes

    # -- hash indexes ------------------------------------------------------
    #
    # Indexes are memoized in the shared RowMemo by key *positions*, so a
    # renamed view of the same rows probes the indexes this naming built.
    # Key names resolve to positions through the per-instance ``_keys``.

    @property
    def row_memo(self) -> RowMemo:
        """The :class:`RowMemo` this relation shares with every
        :meth:`renamed` view of its rows (created on first use)."""
        if self._memo is None:
            self._memo = RowMemo()
        return self._memo

    def _positions(self, attributes: tuple[str, ...]) -> tuple[int, ...]:
        """Column positions of the key ``attributes`` (memoized in
        ``_keys``); raises :class:`~repro.errors.VocabularyError` like
        :meth:`index_of`."""
        positions = self._keys.get(attributes)
        if positions is None:
            positions = tuple(self.index_of(a) for a in attributes)
            self._keys[attributes] = positions
        return positions

    def index_on(
        self, attributes: Sequence[str]
    ) -> Mapping[tuple[Any, ...], Sequence[tuple[Any, ...]]]:
        """A hash index on the given key columns: ``key-tuple → rows``.

        The index maps each tuple of key-column values (in the order the
        attributes are given) to the list of full rows carrying those
        values.  Indexes are built lazily on first request and memoized by
        key positions in the row memo — relations are immutable, so a
        built index is valid forever and is shared by every later
        join/semijoin probing the same key, through this scheme or any
        :meth:`renamed` view of the rows.  The empty key indexes every row
        under ``()``.

        Callers must not mutate the returned mapping or its row lists.

        >>> r = Relation(("x", "y"), [(1, 2), (1, 3), (2, 2)])
        >>> sorted(r.index_on(("x",))[(1,)])
        [(1, 2), (1, 3)]
        """
        # _positions inlined: residual-support revision calls this per probe.
        attrs = tuple(attributes)
        positions = self._keys.get(attrs)
        if positions is None:
            positions = self._positions(attrs)
        indexes = (self._memo or self.row_memo).indexes
        cached = indexes.get(positions)
        if cached is not None:
            return cached
        index: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
        rows = self._tuples
        for key, t in zip(_take(rows, positions), rows):
            index.setdefault(key, []).append(t)
        indexes[positions] = index
        return index

    def parts_on(
        self, key: Sequence[str], columns: Sequence[str]
    ) -> Mapping[tuple[Any, ...], Collection[tuple[Any, ...]]]:
        """A mapping from each key tuple to the distinct projections onto
        ``columns`` of the rows carrying it — empty for a key no row
        carries — over :meth:`index_on`'s index on ``key`` (built if
        missing).

        Each key's entry is computed on its first lookup and memoized with
        the index, by key and column positions, so a join step that keeps
        only some of a probed relation's columns projects each bucket once
        per row set, not once per join.  Callers must not mutate the
        returned mapping or its entries.

        >>> r = Relation(("x", "y", "z"), [(1, 2, 0), (1, 3, 0), (1, 3, 1)])
        >>> sorted(r.parts_on(("x",), ("y",))[(1,)]), r.parts_on(("x",), ("y",))[(9,)]
        ([(2,), (3,)], frozenset())
        """
        columns = tuple(columns)
        spot = (self._positions(tuple(key)), self._positions(columns))
        parts = self.row_memo.parts.get(spot)
        if parts is None:
            parts = _BucketParts(self.index_on(key), spot[1])
            self.row_memo.parts[spot] = parts
        return parts

    def has_index(self, attributes: Sequence[str]) -> bool:
        """Whether :meth:`index_on` has already been built (and memoized)
        for exactly these key columns, through any naming of the rows."""
        if self._memo is None:
            return False
        try:
            return self._positions(tuple(attributes)) in self._memo.indexes
        except VocabularyError:
            return False
