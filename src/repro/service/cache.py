"""The containment-keyed result cache — Props 2.2/2.3 as cache coherence.

Entries are keyed on :func:`repro.cq.canonical.canonical_key` of the
*minimized* query.  Because the core of a conjunctive query is unique up
to isomorphism and the canonical key is an isomorphism invariant, two
equivalent queries — however differently written — collide on the same
key, so the cache answers the second one without touching the data.  Three
probe tiers, cheapest first:

1. **exact/equivalence** — the probe's canonical key indexes straight into
   an entry.  A hit is *exact* when the minimized bodies are syntactically
   identical, *equivalence* when they only agree up to variable renaming.
2. **projection** — an entry whose distinguished tuple extends the probe's
   positionally can answer by projecting its cached relation, when the
   probe's key equals the canonical key of the entry's query re-headed to
   that prefix (sound: equal keys mean isomorphic queries, and projection
   commutes with isomorphism).
3. **containment probe** — queries too symmetric for a canonical key
   (:data:`~repro.cq.canonical.CANONICAL_KEY_PERMUTATION_CAP`) fall back
   to explicit Chandra–Merlin equivalence checks against a bounded number
   of keyless entries.

Entries survive updates for one generation.  Each entry records the
predicates its body mentions, and :meth:`ResultCache.invalidate` marks
*stale* exactly the entries touching a dirty predicate (dropping the ones
still stale from the batch before).  Whichever tier reaches a stale entry
first asks the cache's *refresher* to bring the entry's answer forward —
the :mod:`repro.service` front does it from the batch's deltas
(:func:`~repro.cq.evaluate.refresh_answer`) — and then answers from it as
a hit of that tier.  A cache without a refresher treats a stale entry as
a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.cq.canonical import canonical_key
from repro.cq.containment import are_equivalent
from repro.cq.query import ConjunctiveQuery
from repro.relational.relation import Relation
from repro.telemetry.registry import MetricSet, derived

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats(MetricSet):
    """Monotone counters of one :class:`ResultCache`'s lifetime."""

    exact_hits: int = 0
    equivalence_hits: int = 0
    projection_hits: int = 0

    @derived
    def hits(self) -> int:
        """Lookups answered by any tier."""
        return self.exact_hits + self.equivalence_hits + self.projection_hits

    misses: int = 0

    @derived
    def lookups(self) -> int:
        """Hits plus misses."""
        return self.hits + self.misses

    @derived
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    stores: int = 0
    evictions: int = 0
    invalidations: int = 0
    containment_probes: int = 0
    refreshes: int = 0


@dataclass
class _Entry:
    query: ConjunctiveQuery  # minimized
    key: str | None
    result: Relation
    predicates: frozenset[str]
    prefix_keys: dict[int, str]  # head-prefix length -> canonical key
    stale: bool = False  # a batch since the answer dirtied its body


#: Brings a stale entry's answer forward: ``refresh(query, answer)`` is the
#: minimized query's answer on the current state, or ``None`` when it
#: cannot be had without evaluating.
Refresher = Callable[[ConjunctiveQuery, Relation], "Relation | None"]


class ResultCache:
    """A bounded FIFO cache of minimized-query results.

    Parameters
    ----------
    capacity:
        Entries kept before the oldest is evicted.
    containment_probes:
        Per-lookup budget of explicit equivalence checks in the
        containment tier (only keyless entries are probed — keyed entries
        that could match would already have hit tier 1).
    refresh:
        The :data:`Refresher` a stale entry is brought forward with before
        it answers; without one a stale entry is a miss.
    """

    def __init__(
        self,
        capacity: int = 512,
        containment_probes: int = 8,
        refresh: Refresher | None = None,
    ):
        self.capacity = capacity
        self.containment_probes = containment_probes
        self.stats = CacheStats()
        self._refresh = refresh
        self._entries: dict[ConjunctiveQuery, _Entry] = {}
        self._by_key: dict[str, ConjunctiveQuery] = {}
        self._by_prefix: dict[tuple[str, int], ConjunctiveQuery] = {}
        self._by_predicate: dict[str, set[ConjunctiveQuery]] = {}
        self._stale: set[ConjunctiveQuery] = set()
        # The last probe and its canonical key, which a miss's store reuses.
        self._probe: tuple[ConjunctiveQuery | None, str | None] = (None, None)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stale(self) -> int:
        """How many entries await a refresh."""
        return len(self._stale)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, minimized: ConjunctiveQuery) -> tuple[str, Relation | None]:
        """Probe the cache with a *minimized* query.

        Returns ``(outcome, relation)`` where ``outcome`` is one of
        ``"exact"``, ``"equivalence"``, ``"projection"``, ``"miss"``; on a
        hit the relation's attributes are already renamed to the probe's
        distinguished variable names.
        """
        key = canonical_key(minimized)
        self._probe = (minimized, key)
        arity = len(minimized.distinguished)
        if key is not None:
            holder = self._by_key.get(key)
            if holder is not None and self._current(self._entries[holder]):
                entry = self._entries[holder]
                if entry.query == minimized:
                    self.stats.exact_hits += 1
                    outcome = "exact"
                else:
                    self.stats.equivalence_hits += 1
                    outcome = "equivalence"
                return outcome, self._rename(entry.result, minimized)
            prefix_holder = self._by_prefix.get((key, arity))
            if prefix_holder is not None and self._current(self._entries[prefix_holder]):
                entry = self._entries[prefix_holder]
                self.stats.projection_hits += 1
                prefix_attrs = tuple(
                    v.name for v in entry.query.distinguished[:arity]
                )
                from repro.relational.algebra import project

                projected = project(entry.result, prefix_attrs)
                return "projection", self._rename(projected, minimized)
        else:
            # No canonical key (orbit explosion): bounded Chandra–Merlin
            # probes against the other keyless entries of the same arity.
            budget = self.containment_probes
            for entry in self._entries.values():
                if budget <= 0:
                    break
                if entry.key is not None or len(entry.query.distinguished) != arity:
                    continue
                budget -= 1
                self.stats.containment_probes += 1
                if are_equivalent(minimized, entry.query) and self._current(entry):
                    self.stats.equivalence_hits += 1
                    return "equivalence", self._rename(entry.result, minimized)
        self.stats.misses += 1
        return "miss", None

    def _current(self, entry: _Entry) -> bool:
        """Whether ``entry`` answers for the current state, refreshing it
        first if it is stale (``False`` when it cannot be refreshed).  The
        refreshed answer is a new relation: answers handed out before
        never change."""
        if not entry.stale:
            return True
        result = self._refresh(entry.query, entry.result) if self._refresh else None
        if result is None:
            return False
        entry.result = result
        entry.stale = False
        self._stale.discard(entry.query)
        self.stats.refreshes += 1
        return True

    @staticmethod
    def _rename(result: Relation, probe: ConjunctiveQuery) -> Relation:
        """The cached relation viewed over the probe's answer columns
        (:meth:`~repro.cq.query.ConjunctiveQuery.answer_columns`).

        O(1): :meth:`Relation.renamed` shares the cached rows and their
        memoized indexes, so a hit never touches the data (columns
        correspond positionally; equal canonical keys guarantee matching
        head shapes, repeated head variables included, so the renaming is
        always well-formed)."""
        return result.renamed(probe.answer_columns())

    # -- store / invalidate ---------------------------------------------------

    def store(self, minimized: ConjunctiveQuery, result: Relation) -> None:
        """Insert one minimized query's result (evicting FIFO at capacity).

        The canonical key :meth:`lookup` just computed for the same query
        is reused, so a miss and its store key the full query once."""
        if minimized in self._entries:
            self._drop(minimized)
        probe, key = self._probe
        if probe is not minimized:
            key = canonical_key(minimized)
        if key is not None:
            holder = self._by_key.get(key)
            if holder is not None and self._entries[holder].stale:
                self._drop(holder)  # superseded by the fresh answer
        prefix_keys: dict[int, str] = {}
        distinguished = minimized.distinguished
        for k in range(len(distinguished)):
            prefix = distinguished[:k]
            if len(set(prefix)) != len(prefix):
                continue  # repeated head variable: projection is ambiguous
            prefix_query = ConjunctiveQuery(
                minimized.head_name, prefix, minimized.body
            )
            pk = canonical_key(prefix_query)
            if pk is not None:
                prefix_keys[k] = pk
        entry = _Entry(
            minimized,
            key,
            result,
            frozenset(a.predicate for a in minimized.body),
            prefix_keys,
        )
        while len(self._entries) >= self.capacity:
            self._drop(next(iter(self._entries)))
            self.stats.evictions += 1
        self._entries[minimized] = entry
        if key is not None:
            self._by_key.setdefault(key, minimized)
        for k, pk in prefix_keys.items():
            self._by_prefix.setdefault((pk, k), minimized)
        for predicate in entry.predicates:
            self._by_predicate.setdefault(predicate, set()).add(minimized)
        self.stats.stores += 1

    def invalidate(self, dirty: Iterable[str]) -> int:
        """Record one dirty batch: drop every entry still stale from the
        batch before, then mark stale every entry whose body mentions a
        dirty predicate; returns how many entries were marked."""
        leftover, self._stale = self._stale, set()
        for query in leftover:
            self._drop(query)
        victims: set[ConjunctiveQuery] = set()
        for predicate in dirty:
            victims |= self._by_predicate.get(predicate, set())
        for query in victims:
            self._entries[query].stale = True
        self._stale = victims
        self.stats.invalidations += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Drop everything (counters are kept — they are lifetime totals)."""
        self._entries.clear()
        self._by_key.clear()
        self._by_prefix.clear()
        self._by_predicate.clear()
        self._stale.clear()

    def _drop(self, query: ConjunctiveQuery) -> None:
        entry = self._entries.pop(query, None)
        if entry is None:
            return
        self._stale.discard(query)
        if entry.key is not None and self._by_key.get(entry.key) == query:
            del self._by_key[entry.key]
        for k, pk in entry.prefix_keys.items():
            if self._by_prefix.get((pk, k)) == query:
                del self._by_prefix[(pk, k)]
        for predicate in entry.predicates:
            holders = self._by_predicate.get(predicate)
            if holders is not None:
                holders.discard(query)
                if not holders:
                    del self._by_predicate[predicate]
