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
scheme is a view over them.  The memoized hash indexes, code indexes and
per-column distinct counts sit in one :class:`RowMemo` keyed by column
positions, and :meth:`Relation.renamed` hands out the same rows under
another scheme in O(1), sharing both the row set and that memo — so an
index built through one variable naming is probed through every other.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

from repro.errors import ArityError, SchemaError, VocabularyError

__all__ = ["Relation", "RowMemo", "CodeIndex", "DENSE_KEY_SPACE_CAP"]

#: Largest packed-key space for which :meth:`Relation.code_index_on` uses a
#: dense array (plus membership bitmap) instead of a dict of packed keys.
DENSE_KEY_SPACE_CAP = 1 << 16


class CodeIndex:
    """A hash index whose keys are radix-packed dense ints, not tuples.

    Built by :meth:`Relation.code_index_on`: the key-column values are
    interned to codes ``0..base-1`` and each row's key becomes the single
    int ``((c₀·base + c₁)·base + c₂)…`` — so a probe costs one small-int
    arithmetic fold and one lookup, with no per-probe tuple allocation or
    tuple hashing.  When the packed key space ``base**len(key)`` is small
    (≤ :data:`DENSE_KEY_SPACE_CAP`) the buckets live in a plain list indexed
    by the packed key and a membership bitmap answers semijoin probes with
    one shift-and-mask; otherwise a dict of packed ints is used.

    Attributes
    ----------
    encode:
        ``value → code`` for the key-column universe of the build side.
        A probe value absent from this map cannot match any row.
    base:
        The radix (``max(1, |universe|)``).
    dense:
        Whether ``buckets`` is a list (dense array) or a dict.
    buckets:
        ``packed-key → list of rows`` (list with ``None`` holes when dense).
    member_mask:
        Dense mode only: bit ``packed`` is set iff the key occurs.
    words:
        64-bit words held by the membership bitmap (0 in dict mode).
    """

    __slots__ = ("encode", "base", "dense", "buckets", "member_mask", "words")

    def __init__(self, tuples, positions):
        universe = sorted({t[i] for t in tuples for i in positions}, key=repr)
        self.encode = {v: i for i, v in enumerate(universe)}
        self.base = max(1, len(universe))
        space = self.base ** len(positions)
        self.dense = space <= DENSE_KEY_SPACE_CAP
        encode, base = self.encode, self.base
        if self.dense:
            buckets: list = [None] * space
            member_mask = 0
            for t in tuples:
                packed = 0
                for i in positions:
                    packed = packed * base + encode[t[i]]
                bucket = buckets[packed]
                if bucket is None:
                    buckets[packed] = [t]
                    member_mask |= 1 << packed
                else:
                    bucket.append(t)
            self.buckets = buckets
            self.member_mask = member_mask
            self.words = (space + 63) // 64
        else:
            grouped: dict = {}
            for t in tuples:
                packed = 0
                for i in positions:
                    packed = packed * base + encode[t[i]]
                grouped.setdefault(packed, []).append(t)
            self.buckets = grouped
            self.member_mask = 0
            self.words = 0

    def lookup(self):
        """The packed-key → bucket-or-None lookup callable (branch hoisted
        out of probe loops: list indexing when dense, ``dict.get`` else)."""
        return self.buckets.__getitem__ if self.dense else self.buckets.get


class RowMemo:
    """The derived state of one row set, keyed by column positions.

    Every relation sharing a row set through :meth:`Relation.renamed`
    shares this memo, so whatever one naming builds, every other naming
    finds.  ``indexes`` and ``code_indexes`` map a tuple of key positions
    to the :meth:`Relation.index_on` / :meth:`Relation.code_index_on`
    structure over those columns; ``parts`` maps a pair of key and column
    positions to the :meth:`Relation.parts_on` projections of that index's
    buckets; ``distinct`` holds the per-column distinct-value counts behind
    :func:`repro.relational.planner.profile` (``None`` until first
    requested).  The memo only ever gains entries, and its indexes and
    their buckets are never mutated while the relation can still be
    handed out; the one exception is a maintenance pool's batch-private
    index, edited in place once the mid-batch snapshot it was published
    to is unreachable (:mod:`repro.datalog.incremental`).
    """

    __slots__ = ("indexes", "code_indexes", "parts", "distinct")

    def __init__(self) -> None:
        self.indexes: dict[tuple[int, ...], dict[tuple[Any, ...], list[tuple[Any, ...]]]] = {}
        self.code_indexes: dict[tuple[int, ...], CodeIndex] = {}
        self.parts: dict[tuple[tuple[int, ...], tuple[int, ...]], _BucketParts] = {}
        self.distinct: tuple[float, ...] | None = None


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

    __slots__ = ("_attributes", "_tuples", "_hash", "_memo", "_keys", "_column_store")

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
        self._column_store: Any = None

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
    # Only the scheme and the rows travel: the row memo (hash indexes, code
    # indexes, distinct counts) and the column store are derived state,
    # rebuilt lazily on the other side of the wire — a sharded worker
    # re-derives exactly what it probes, and a pickled relation costs no
    # more than its rows
    # (tests/parallel/test_pickling.py pins the size regression).

    def __getstate__(self) -> tuple[tuple[str, ...], frozenset[tuple[Any, ...]]]:
        return (self._attributes, self._tuples)

    def __setstate__(
        self, state: tuple[tuple[str, ...], frozenset[tuple[Any, ...]]]
    ) -> None:
        self._attributes, self._tuples = state
        self._hash = None
        self._memo = None
        self._keys = {}
        self._column_store = None

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
        relation._column_store = None
        return relation

    def renamed(self, attributes: Sequence[str]) -> "Relation":
        """The same rows under the scheme ``attributes``, in O(1).

        Columns correspond positionally.  The result shares this
        relation's row set and :class:`RowMemo`, so indexes and planner
        statistics built through either scheme serve both; equality and
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

    def code_index_on(self, attributes: Sequence[str]) -> CodeIndex:
        """The interned fast-path counterpart of :meth:`index_on`.

        Returns a :class:`CodeIndex` whose keys are single radix-packed
        ints over a dense interning of the key-column values.  Like
        :meth:`index_on` it is built lazily and memoized by key positions
        in the row memo, so the codec and the packed buckets are shared by
        every later interned join/semijoin probing the same key.
        """
        positions = self._positions(tuple(attributes))
        code_indexes = self.row_memo.code_indexes
        cached = code_indexes.get(positions)
        if cached is not None:
            return cached
        index = CodeIndex(self._tuples, positions)
        code_indexes[positions] = index
        return index

    def has_code_index(self, attributes: Sequence[str]) -> bool:
        """Whether :meth:`code_index_on` has already been memoized for
        exactly these key columns, through any naming of the rows."""
        if self._memo is None:
            return False
        try:
            return self._positions(tuple(attributes)) in self._memo.code_indexes
        except VocabularyError:
            return False

    def has_column_store(self) -> bool:
        """Whether :func:`repro.relational.columnar.column_store` has
        already built (and memoized) this relation's struct-of-arrays
        column store.  Unlike the positional indexes in the row memo, the
        store carries the scheme, so it lives on the instance — built
        lazily, valid forever."""
        return self._column_store is not None
