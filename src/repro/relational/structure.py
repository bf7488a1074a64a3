"""Finite relational structures over a relational vocabulary.

Section 2 of the tutorial recasts every CSP instance as a *homomorphism
problem* between two finite relational structures, and Section 4 encodes a
pair ``(A, B)`` of σ-structures as the single σ₁+σ₂-structure ``A + B``.
Both constructions live here.

A :class:`Vocabulary` assigns an arity to each relation symbol.  A
:class:`Structure` interprets each symbol as a set of tuples over its domain.
Structures are immutable and hashable.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import ArityError, DomainError, VocabularyError

__all__ = ["Vocabulary", "Structure", "sum_structure", "SUM_DOMAIN_LEFT", "SUM_DOMAIN_RIGHT"]

#: Unary symbols marking the two halves of a sum structure ``A + B`` (the
#: ``D₁``/``D₂`` predicates of Section 4 of the tutorial).
SUM_DOMAIN_LEFT = "D1"
SUM_DOMAIN_RIGHT = "D2"


class Vocabulary:
    """A finite relational vocabulary: relation symbols with fixed arities.

    >>> sigma = Vocabulary({"E": 2})
    >>> sigma.arity("E")
    2
    """

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int]):
        for name, arity in arities.items():
            if not isinstance(name, str) or not name:
                raise VocabularyError(f"relation symbols must be non-empty strings: {name!r}")
            if not isinstance(arity, int) or arity < 0:
                raise VocabularyError(f"arity of {name!r} must be a non-negative int: {arity!r}")
        self._arities: dict[str, int] = dict(arities)

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self._arities)

    def arity(self, symbol: str) -> int:
        try:
            return self._arities[symbol]
        except KeyError:
            raise VocabularyError(f"unknown relation symbol {symbol!r}") from None

    def max_arity(self) -> int:
        """The largest arity in the vocabulary (0 for the empty vocabulary)."""
        return max(self._arities.values(), default=0)

    def items(self) -> Iterable[tuple[str, int]]:
        return self._arities.items()

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._arities

    def __len__(self) -> int:
        return len(self._arities)

    def __iter__(self):
        return iter(sorted(self._arities))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._arities == other._arities

    def __hash__(self) -> int:
        return hash(frozenset(self._arities.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}/{a}" for s, a in sorted(self._arities.items()))
        return f"Vocabulary({{{inner}}})"


class Structure:
    """A finite relational structure: a domain plus an interpretation of each
    symbol of a :class:`Vocabulary` as a relation (set of tuples) on the domain.

    Parameters
    ----------
    vocabulary:
        The vocabulary, or a plain ``{symbol: arity}`` mapping.
    domain:
        The universe.  May be any iterable of hashable values; it is allowed
        to be larger than the active domain of the relations.
    relations:
        ``{symbol: iterable-of-tuples}``.  Symbols omitted from the mapping
        are interpreted as empty.  Tuples must match their symbol's arity and
        use only domain elements.
    """

    __slots__ = ("_vocabulary", "_domain", "_relations", "_hash", "_derived")

    def __init__(
        self,
        vocabulary: Vocabulary | Mapping[str, int],
        domain: Iterable[Any],
        relations: Mapping[str, Iterable[tuple]] | None = None,
    ):
        if not isinstance(vocabulary, Vocabulary):
            vocabulary = Vocabulary(vocabulary)
        self._vocabulary = vocabulary
        self._domain = frozenset(domain)

        interp: dict[str, frozenset[tuple]] = {}
        relations = relations or {}
        for symbol in relations:
            if symbol not in vocabulary:
                raise VocabularyError(f"relation {symbol!r} not in {vocabulary!r}")
        for symbol in vocabulary:
            arity = vocabulary.arity(symbol)
            rows = set()
            for row in relations.get(symbol, ()):
                t = tuple(row)
                if len(t) != arity:
                    raise ArityError(
                        f"tuple {t!r} in {symbol!r} has length {len(t)}, expected {arity}"
                    )
                for v in t:
                    if v not in self._domain:
                        raise DomainError(f"value {v!r} in {symbol!r} not in the domain")
                rows.add(t)
            interp[symbol] = frozenset(rows)
        self._relations = interp
        self._hash: int | None = None
        self._derived: dict[Any, Any] = {}

    @classmethod
    def from_trusted(
        cls,
        vocabulary: Vocabulary,
        domain: frozenset[Any],
        relations: Mapping[str, frozenset[tuple]],
    ) -> "Structure":
        """Wrap already-validated parts without checking or copying them.

        The caller vouches for the invariant the constructor establishes:
        ``relations`` interprets exactly the symbols of ``vocabulary``,
        each as a frozenset of tuples of the symbol's arity over values of
        ``domain``.  The domain and the frozensets are shared, not copied —
        only the mapping is, so the caller may go on rebinding its own.
        Like :meth:`~repro.relational.relation.Relation.from_trusted_rows`
        for relations, this is what lets
        :meth:`~repro.datalog.incremental.IncrementalEvaluation.as_structure`
        hand out each generation in O(delta + domain) instead of O(state).
        """
        structure = cls.__new__(cls)
        structure._vocabulary = vocabulary
        structure._domain = domain
        structure._relations = dict(relations)
        structure._hash = None
        structure._derived = {}
        return structure

    # -- accessors ---------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def domain(self) -> frozenset[Any]:
        return self._domain

    def relation(self, symbol: str) -> frozenset[tuple]:
        """The interpretation of ``symbol`` (raises for unknown symbols)."""
        try:
            return self._relations[symbol]
        except KeyError:
            raise VocabularyError(f"unknown relation symbol {symbol!r}") from None

    def relations(self) -> Mapping[str, frozenset[tuple]]:
        """All interpretations, as a read-only mapping view."""
        return dict(self._relations)

    def facts(self) -> Iterable[tuple[str, tuple]]:
        """Iterate all facts as ``(symbol, tuple)`` pairs, sorted by symbol."""
        for symbol in sorted(self._relations):
            for t in sorted(self._relations[symbol], key=repr):
                yield symbol, t

    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(r) for r in self._relations.values())

    def size(self) -> int:
        """``|domain| + total tuples`` — the usual size measure for structures."""
        return len(self._domain) + self.total_tuples()

    def active_domain(self) -> frozenset[Any]:
        """Domain elements that occur in at least one tuple."""
        return frozenset(v for rows in self._relations.values() for t in rows for v in t)

    # -- derived structures --------------------------------------------------

    def restrict(self, subdomain: Iterable[Any]) -> "Structure":
        """The induced substructure on ``subdomain`` ∩ domain."""
        sub = frozenset(subdomain) & self._domain
        rels = {
            symbol: (t for t in rows if all(v in sub for v in t))
            for symbol, rows in self._relations.items()
        }
        return Structure(self._vocabulary, sub, rels)

    def with_relation(self, symbol: str, arity: int, rows: Iterable[tuple]) -> "Structure":
        """A copy of this structure with one relation added or replaced."""
        arities = dict(self._vocabulary.items())
        if symbol in arities and arities[symbol] != arity:
            raise VocabularyError(
                f"cannot change arity of {symbol!r} from {arities[symbol]} to {arity}"
            )
        arities[symbol] = arity
        rels: dict[str, Iterable[tuple]] = dict(self._relations)
        rels[symbol] = rows
        return Structure(Vocabulary(arities), self._domain, rels)

    # -- derived-value memo ---------------------------------------------------

    def derived(self, key: Any, build: Any) -> Any:
        """Memoize a value derived from this (immutable) structure.

        ``build`` is a zero-argument callable run on the first request for
        ``key``; later requests return the stored value.  Because the
        structure never changes, a derived value can be cached for its
        lifetime — :func:`repro.cq.evaluate.atom_relation` uses this to
        translate each atom *shape* once and hand every atom of that shape
        a renamed view of the result, so the positional row memo (hash
        indexes, bucket projections) that one query's joins build is probed
        (not rebuilt) by every later query, whatever its variable names.
        The memo is identity state: it is excluded from equality, hashing,
        and pickling.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = build()
            self._derived[key] = value
            return value

    # -- pickling -------------------------------------------------------------
    #
    # Only the vocabulary, domain, and relations travel; the cached hash and
    # the derived-value memo are rebuilt lazily on the other side of the
    # wire, so a shipped structure costs no more than its facts.

    def __getstate__(self) -> tuple:
        return (self._vocabulary, self._domain, self._relations)

    def __setstate__(self, state: tuple) -> None:
        self._vocabulary, self._domain, self._relations = state
        self._hash = None
        self._derived = {}

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._vocabulary == other._vocabulary
            and self._domain == other._domain
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._vocabulary, self._domain, frozenset(self._relations.items()))
            )
        return self._hash

    def __repr__(self) -> str:
        counts = ", ".join(f"{s}:{len(r)}" for s, r in sorted(self._relations.items()))
        return f"Structure(|dom|={len(self._domain)}, {counts})"


def sum_structure(left: Structure, right: Structure) -> Structure:
    """The σ₁+σ₂ encoding ``A + B`` of a pair of σ-structures (Section 4).

    The domain is the disjoint union, realised by tagging each element with
    ``0`` (left) or ``1`` (right).  Each σ-symbol ``R`` appears twice, as
    ``R_1`` (the left copy) and ``R_2`` (the right copy), and the unary
    symbols ``D1``/``D2`` mark the two halves.
    """
    if left.vocabulary != right.vocabulary:
        raise VocabularyError("sum_structure requires structures over the same vocabulary")

    arities: dict[str, int] = {SUM_DOMAIN_LEFT: 1, SUM_DOMAIN_RIGHT: 1}
    for symbol, arity in left.vocabulary.items():
        arities[f"{symbol}_1"] = arity
        arities[f"{symbol}_2"] = arity

    domain = {(0, a) for a in left.domain} | {(1, b) for b in right.domain}
    relations: dict[str, list[tuple]] = {
        SUM_DOMAIN_LEFT: [((0, a),) for a in left.domain],
        SUM_DOMAIN_RIGHT: [((1, b),) for b in right.domain],
    }
    for symbol in left.vocabulary:
        relations[f"{symbol}_1"] = [
            tuple((0, v) for v in t) for t in left.relation(symbol)
        ]
        relations[f"{symbol}_2"] = [
            tuple((1, v) for v in t) for t in right.relation(symbol)
        ]
    return Structure(Vocabulary(arities), domain, relations)
