"""Incremental view maintenance: semi-naive insertion deltas, DRed and
counting deletion.

A :class:`IncrementalEvaluation` keeps the least fixpoint of a Datalog
program *materialized* while the EDB changes underneath it — the
"millions of users, heavy traffic" regime where refixpointing from scratch
per update is the dominant cost.  Three classical algorithms cooperate:

* **Insertions** run the semi-naive delta closure
  (:func:`repro.datalog.engine.seminaive_closure`) seeded with the freshly
  inserted EDB facts: every new derivation uses at least one new fact, so
  an update batch touches only the affected part of the fixpoint, and the
  persistent atom-relation cache keeps the warmed hash indexes of the
  unchanged predicates alive across batches.
* **Deletions** under ``deletion="dred"`` use *delete-and-rederive*
  (Gupta–Mumick–Subrahmanian): first an over-deletion pass propagates the
  deleted facts through the rules against the pre-update state (anything
  with a derivation using a deleted fact is provisionally removed), then a
  rederivation pass re-proves the over-deleted facts that still have
  support in the surviving state, and the batch's one insertion closure
  cascades the rescues along with the inserted facts.  Facts whose only
  remaining "support" is a derivation cycle through other deleted facts
  correctly stay dead.  A batch's EDB deletions and insertions land in
  one copy of each value, and over-deleted facts leave their value at
  that closure's fold, so a batch copies each changed value once.
* **Deletions** under ``deletion="counting"`` maintain per-fact derivation
  counts for non-recursive programs: each update batch is telescoped into
  signed per-position delta joins, counts are adjusted, and a fact dies
  exactly when its count reaches zero.  Counting is rejected for recursive
  programs (a fact can participate in its own count — the classical
  restriction), where DRed remains the safe default.

Every batch is traced: the ``datalog.update`` span carries the deletion
mode and per-batch row deltas, and all joins charge the ambient
:class:`~repro.relational.stats.EvalStats` exactly as the from-scratch
evaluators do.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Mapping

from repro.cq.evaluate import atom_shape, share_row_memo, translate_atom
from repro.cq.query import Atom
from repro.datalog.engine import (
    Facts,
    _apply_rule,
    _atom_to_relation,
    _edb_facts,
    _instantiate,
    seminaive_closure,
)
from repro.datalog.syntax import Program, Rule
from repro.errors import DomainError, VocabularyError
from repro.relational.algebra import join_all
from repro.relational.relation import Relation, RowMemo, _take
from repro.relational.structure import Structure, Vocabulary
from repro.telemetry.spans import span

__all__ = ["DELETION_MODES", "IncrementalEvaluation", "UpdateReport"]

#: The deletion algorithms :class:`IncrementalEvaluation` accepts.
DELETION_MODES = ("dred", "counting")


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`IncrementalEvaluation.apply` batch changed.

    ``edb_added``/``edb_removed`` are the base-fact changes that actually
    took effect (inserting a present fact or deleting an absent one is a
    no-op); ``idb_added``/``idb_removed`` the induced changes to the
    materialized views.  ``dirty`` names every predicate whose value
    changed — the invalidation signal the :mod:`repro.service` result
    cache consumes.  ``rounds`` counts the delta rounds the batch ran
    (over-deletion, rederivation, and insertion rounds combined).
    """

    edb_added: dict[str, frozenset] = field(default_factory=dict)
    edb_removed: dict[str, frozenset] = field(default_factory=dict)
    idb_added: dict[str, frozenset] = field(default_factory=dict)
    idb_removed: dict[str, frozenset] = field(default_factory=dict)
    rounds: int = 0

    @property
    def dirty(self) -> frozenset[str]:
        """Predicates whose value changed in this batch."""
        return frozenset(
            p
            for changes in (
                self.edb_added,
                self.edb_removed,
                self.idb_added,
                self.idb_removed,
            )
            for p, rows in changes.items()
            if rows
        )

    @property
    def rows_added(self) -> int:
        return sum(len(r) for r in self.edb_added.values()) + sum(
            len(r) for r in self.idb_added.values()
        )

    @property
    def rows_removed(self) -> int:
        return sum(len(r) for r in self.edb_removed.values()) + sum(
            len(r) for r in self.idb_removed.values()
        )


def _fold_rows(
    index: dict[tuple, list],
    positions: tuple[int, ...],
    added: set,
    removed: set,
) -> None:
    """Drop ``removed`` rows from ``index`` and append ``added`` ones, in
    place: the batch's rows are grouped by key and each touched bucket is
    replaced by a new list once — a bucket list is never mutated, so a
    copy of the dict that shares it is unaffected."""
    gone: dict[tuple, set] = {}
    for key, row in zip(_take(removed, positions), removed):
        gone.setdefault(key, set()).add(row)
    new: dict[tuple, list] = {}
    for key, row in zip(_take(added, positions), added):
        new.setdefault(key, []).append(row)
    for key in gone.keys() | new.keys():
        bucket = index.get(key, ())
        dropped = gone.get(key)
        rows = [t for t in bucket if t not in dropped] if dropped else list(bucket)
        rows += new.get(key, ())
        if rows:
            index[key] = rows
        else:
            index.pop(key, None)


class _PredicateIndexPool:
    """Join-key hash indexes over one predicate's current value, maintained
    across update batches by copy-on-write deltas.

    The from-scratch engine amortizes index builds within one fixpoint via
    the atom cache; across update batches every predicate value is a *new*
    frozenset, so without the pool each batch pays a full O(rows) rebuild
    of every join-key index on every large relation it touches.  The pool
    keeps the index dicts alive between batches and folds each phase's net
    delta in with :func:`_fold_rows`, so a small update costs O(delta)
    bucket edits plus, once per batch, one pointer-copy of each dict —
    never a rescan of the rows.  The first sync of a batch copies an index
    (``copied`` names the copies); later syncs edit that batch-private
    copy in place.  The index the batch started from is never mutated:
    the structure the batch superseded still reads it.  A snapshot
    relation published mid-batch sees its index move at the next sync;
    the atom cache keys values by identity, and no caller keeps a
    mid-batch value, so such a relation is never handed out again.  The
    delta is read off the batch's journal
    (:meth:`IncrementalEvaluation.apply`): the rows touched since the
    pool's last sync (``synced`` counts the journal entries already
    folded), each kept when it entered or left the value — the snapshots
    themselves are never diffed.  Indexes are keyed by column positions,
    exactly as in a relation's :class:`~repro.relational.relation.RowMemo`,
    and per-position distinct-value counts ride along so the planner's
    :func:`~repro.relational.planner.profile` statistics carry over too.
    The read side shares the snapshot relation's memo
    (:meth:`IncrementalEvaluation.as_structure`), so the pool publishes
    into it what reads probe and adopts from it what reads build.  Every
    rule body and read runs on the fused fold, which tests an atom whose
    variables are all bound by membership in its rows, so a pool holds
    partial-key indexes only (``E`` (0,), (1,) and ``T`` (0,), (1,) on
    transitive closure), never a full-row one.
    """

    __slots__ = ("rows", "arity", "indexes", "counters", "synced", "copied")

    def __init__(self, rows: frozenset, arity: int) -> None:
        self.rows = rows
        self.arity = arity
        self.indexes: dict[tuple[int, ...], dict[tuple, list]] = {}
        self.counters: list[Counter] | None = None
        self.synced = 0
        self.copied: set[tuple[int, ...]] = set()

    def begin_batch(self) -> None:
        """Start a new batch: no journal entry folded in, no index copied."""
        self.synced = 0
        self.copied.clear()

    def _count_from_scratch(self) -> list[Counter]:
        return [Counter(map(itemgetter(i), self.rows)) for i in range(self.arity)]

    def adopt(self, memo: RowMemo) -> None:
        """Take ownership of the indexes joins built on a relation over
        ``self.rows``."""
        for positions, index in memo.indexes.items():
            self.indexes.setdefault(positions, index)
        if self.indexes and self.counters is None:
            self.counters = self._count_from_scratch()

    def publish(self, memo: RowMemo) -> None:
        """Top up the memo of a relation over ``self.rows`` with the
        pooled indexes and distinct counts."""
        for positions, index in self.indexes.items():
            memo.indexes.setdefault(positions, index)
        if memo.distinct is None and self.counters is not None:
            memo.distinct = tuple(float(len(c)) for c in self.counters)

    def sync(self, rows: frozenset, touched: Iterable[frozenset | set]) -> None:
        """Move the pool to ``rows``, folding into every maintained index
        (and the distinct-value counters) the net change among the
        ``touched`` rows — which must hold every row that differs between
        the pool's snapshot and ``rows``."""
        if rows is self.rows:
            return
        added, removed = _net(touched, self.rows, rows)
        if added or removed:
            for positions, index in list(self.indexes.items()):
                if positions not in self.copied:
                    index = self.indexes[positions] = dict(index)
                    self.copied.add(positions)
                _fold_rows(index, positions, added, removed)
            if self.counters is not None:
                for i, counter in enumerate(self.counters):
                    for v in map(itemgetter(i), removed):
                        left = counter[v] - 1
                        if left:
                            counter[v] = left
                        else:
                            del counter[v]
                    counter.update(map(itemgetter(i), added))
        self.rows = rows


def _net(
    touched: Iterable[frozenset | set], before: frozenset, after: frozenset
) -> tuple[set, set]:
    """``(added, removed)``: the ``touched`` rows in ``after`` but not in
    ``before``, and the reverse — the exact net change between the two
    values when ``touched`` holds every row on which they differ, at a
    cost of O(touched) hash probes."""
    added: set = set()
    removed: set = set()
    for rows in touched:
        added |= (rows & after) - before
        removed |= (rows & before) - after
    return added, removed


class _BoundedAtomCache:
    """The persistent atom-relation cache of one incremental evaluation.

    Same keys as the per-evaluation cache in :mod:`repro.datalog.engine`
    (``(atom or shape, predicate value)``), but a value matches by
    identity, not equality, and the cache is bounded to a few values per
    atom or shape, so a long-lived service does not accumulate one
    relation per atom per update batch: an unchanged predicate keeps
    returning the same cached
    :class:`~repro.relational.relation.Relation` (with its warmed indexes)
    forever, while superseded values age out FIFO.  Identity keeps a
    snapshot relation whose pooled index has moved on since (see
    :class:`_PredicateIndexPool`) from answering for an equal value that
    comes back later, and spares hashing each new value.
    """

    PER_ATOM = 4

    __slots__ = ("_store",)

    def __init__(self) -> None:
        # atom or shape → id(value) → (value, relation); holding the value
        # keeps its id from being reused while the entry lives.
        self._store: dict[Any, dict[int, tuple[frozenset, Any]]] = {}

    def get(self, key: tuple[Any, frozenset]) -> Any:
        atom, value = key
        per_atom = self._store.get(atom)
        if per_atom is None:
            return None
        entry = per_atom.get(id(value))
        return None if entry is None else entry[1]

    def __setitem__(self, key: tuple[Any, frozenset], relation: Any) -> None:
        atom, value = key
        per_atom = self._store.setdefault(atom, {})
        if len(per_atom) >= self.PER_ATOM:
            per_atom.pop(next(iter(per_atom)))
        per_atom[id(value)] = (value, relation)


class IncrementalEvaluation:
    """A materialized least fixpoint maintained under EDB inserts/deletes.

    >>> from repro.datalog.library import transitive_closure_program
    >>> inc = IncrementalEvaluation(
    ...     transitive_closure_program(), {"E": {(1, 2), (2, 3)}}
    ... )
    >>> sorted(inc.value("T"))
    [(1, 2), (1, 3), (2, 3)]
    >>> report = inc.apply(deletes={"E": {(2, 3)}})
    >>> sorted(inc.value("T"))
    [(1, 2)]
    >>> sorted(report.dirty)
    ['E', 'T']

    Parameters
    ----------
    program:
        The Datalog program whose IDB views to materialize.
    database:
        The initial EDB (a :class:`~repro.relational.structure.Structure`
        or a ``{predicate: rows}`` mapping).
    strategy:
        Join order/execution passed through to the rule-body joins.
    deletion:
        ``"dred"`` (default, any program) or ``"counting"`` (non-recursive
        programs only).
    """

    def __init__(
        self,
        program: Program,
        database: Structure | Mapping[str, Any] | None = None,
        strategy: str | None = None,
        deletion: str = "dred",
    ):
        if deletion not in DELETION_MODES:
            raise DomainError(
                f"unknown deletion mode {deletion!r}; expected one of {DELETION_MODES}"
            )
        if deletion == "counting" and program.is_recursive():
            raise DomainError(
                "counting-based deletion requires a non-recursive program "
                "(a recursive fact can support its own derivation count); "
                "use deletion='dred'"
            )
        self._program = program
        self._strategy = strategy
        self._deletion = deletion
        self._idbs = program.idb_predicates()
        self._cache = _BoundedAtomCache()
        self._structure: Structure | None = None
        # Occurrences of each value across all rows — the structure's
        # domain — counted by the first ``as_structure`` and kept current
        # from each batch's net deltas after that.
        self._domain_counts: dict[Any, int] | None = None
        self._generation = 0
        # Body atoms whose terms are all distinct variables share their
        # predicate's raw rows (the `translate_atom` fast path) and one
        # shape per predicate, so their join-key indexes can be pooled
        # across update batches.  One such atom per predicate names it.
        self._identity_atoms: dict[str, Atom] = {
            atom.predicate: atom
            for rule in program.rules
            for atom in rule.body
            if len(atom.variables()) == len(atom.terms)
        }
        self._pools: dict[str, _PredicateIndexPool] = {}
        # The current batch's journal: per predicate, the row sets its
        # phases added to or removed from the value, in order.
        self._journal: dict[str, list] = {}
        with span("datalog.incremental.init", mode=deletion) as sp:
            values = _edb_facts(program, database or {})
            for idb in self._idbs:
                values[idb] = frozenset()
            delta: Facts = {idb: frozenset() for idb in self._idbs}
            with span("datalog.round", round=0):
                for rule in program.rules:
                    new = _apply_rule(rule, values, strategy=strategy, cache=self._cache)
                    delta[rule.head.predicate] = delta[rule.head.predicate] | frozenset(new)
                for idb in self._idbs:
                    values[idb] = delta[idb]
            rounds = 1 + seminaive_closure(
                program,
                values,
                delta,
                strategy=strategy,
                cache=self._cache,
            )
            self._values: Facts = values
            self._sync_pools()
            self._counts: dict[str, dict[tuple, int]] | None = None
            if deletion == "counting":
                self._counts = self._recount()
            if sp:
                sp.note(
                    rounds=rounds,
                    rows=sum(len(values[p]) for p in self._idbs),
                )

    # -- read side ----------------------------------------------------------

    @property
    def program(self) -> Program:
        return self._program

    @property
    def deletion(self) -> str:
        """The deletion algorithm in force (``"dred"`` or ``"counting"``)."""
        return self._deletion

    @property
    def generation(self) -> int:
        """Number of update batches applied so far."""
        return self._generation

    def value(self, predicate: str) -> frozenset:
        """The current value of any predicate (EDB or IDB)."""
        try:
            return self._values[predicate]
        except KeyError:
            raise VocabularyError(
                f"unknown predicate {predicate!r} for this program"
            ) from None

    def idb_values(self) -> Facts:
        """All materialized IDB values (same shape as the evaluators return)."""
        return {p: self._values[p] for p in self._idbs}

    def edb_values(self) -> Facts:
        """The current base facts."""
        return {p: self._values[p] for p in self._program.edb_predicates()}

    def as_structure(self) -> Structure:
        """The full current state (EDB + materialized IDB) as a structure.

        Memoized per update generation, so repeated conjunctive queries
        between updates share one structure — and, through
        :meth:`~repro.relational.structure.Structure.derived`, one set of
        atom relations with warmed indexes.

        A new generation costs O(delta + domain), not O(state): it shares
        the maintained frozensets through
        :meth:`~repro.relational.structure.Structure.from_trusted`, and its
        domain — every value occurring in some row — is read off per-value
        occurrence counts that each batch updates from its net deltas.
        Atoms over a pooled predicate whose terms are distinct variables
        translate to the pool's snapshot relation
        (:func:`~repro.cq.evaluate.share_row_memo`), so the first read
        after an update probes indexes and distinct counts maintained in
        O(delta), and the indexes reads build are adopted by the pool at
        the next batch.
        """
        if self._structure is None:
            counts = self._domain_counts
            if counts is None:
                counts = self._domain_counts = {}
                for rows in self._values.values():
                    _count(counts, rows, 1)
            structure = Structure.from_trusted(
                Vocabulary(self._program.arities()), frozenset(counts), self._values
            )
            for predicate, atom in self._identity_atoms.items():
                relation = self._pool_relation(atom, self._pools[predicate])
                share_row_memo(structure, predicate, relation)
            self._structure = structure
        return self._structure

    # -- update side ---------------------------------------------------------

    def apply(
        self,
        inserts: Mapping[str, Iterable] | None = None,
        deletes: Mapping[str, Iterable] | None = None,
    ) -> UpdateReport:
        """Apply one batch of EDB changes and restore the fixpoint.

        Deletions are applied before insertions, so a fact appearing in
        both ends up present (the batch's net EDB is
        ``(old − deletes) ∪ inserts``).  Returns an :class:`UpdateReport`
        with the net per-predicate changes.

        The batch costs O(|Δ| · fan-out) plus one copy of each changed
        predicate's row set.  Every phase records the rows it adds to or
        removes from a value in the batch's *journal*; the index pools fold
        in the journal's rows since their last sync, and the report keeps
        the journal's rows that entered or left a value — no whole value is
        diffed against another.
        """
        ins = self._normalize(inserts)
        dels = self._normalize(deletes)
        with span(
            "datalog.update", mode=self._deletion, batch=self._generation
        ) as sp:
            old = dict(self._values)
            self._journal = {}
            for pool in self._pools.values():
                pool.begin_batch()
            self._seed_pool_relations()
            if self._deletion == "counting":
                rounds = self._apply_counting(ins, dels)
                self._sync_pools()
            else:
                deleted, delta = self._apply_edb(dels, ins)
                rounds, removed = self._apply_dred(old, deleted, delta) if deleted else (0, {})
                rounds += self._close(delta, removed, max(rounds, 1))
                self._sync_pools()
            report = self._report(old, rounds)
            if report.dirty:
                self._structure = None
                self._generation += 1
                if self._domain_counts is not None:
                    for added in (report.edb_added, report.idb_added):
                        for rows in added.values():
                            _count(self._domain_counts, rows, 1)
                    for removed in (report.edb_removed, report.idb_removed):
                        for rows in removed.values():
                            _count(self._domain_counts, rows, -1)
            if sp:
                sp.note(
                    rounds=rounds,
                    rows_added=report.rows_added,
                    rows_removed=report.rows_removed,
                    dirty=",".join(sorted(report.dirty)),
                )
        return report

    def insert(self, predicate: str, *rows: tuple) -> UpdateReport:
        """Convenience single-predicate insert batch."""
        return self.apply(inserts={predicate: rows})

    def delete(self, predicate: str, *rows: tuple) -> UpdateReport:
        """Convenience single-predicate delete batch."""
        return self.apply(deletes={predicate: rows})

    # -- internals -----------------------------------------------------------

    def _normalize(self, changes: Mapping[str, Iterable] | None) -> Facts:
        arities = self._program.arities()
        edbs = self._program.edb_predicates()
        out: Facts = {}
        for predicate, rows in (changes or {}).items():
            if predicate not in edbs:
                raise VocabularyError(
                    f"only EDB predicates can be updated; {predicate!r} "
                    f"is {'an IDB' if predicate in self._idbs else 'unknown'}"
                )
            normalized = frozenset(map(tuple, rows))
            for t in normalized:
                if len(t) != arities[predicate]:
                    raise VocabularyError(
                        f"EDB fact {predicate}{t!r} has the wrong arity"
                    )
            if normalized:
                out[predicate] = normalized
        return out

    def _record(self, predicate: str, rows: frozenset | set) -> None:
        """Journal ``rows`` as added to or removed from ``predicate``."""
        self._journal.setdefault(predicate, []).append(rows)

    def _sync_pools(self) -> None:
        """Bring every predicate's index pool up to the current values,
        folding in the journal's rows since the pool's last sync.

        Before folding the delta in, indexes grown on the pool-snapshot
        relation (still resident in the atom cache) are adopted — by the
        last phase's joins, or by reads of the structure
        :meth:`as_structure` handed out, which share its memo — so the
        pool learns new join keys from whatever the joins actually
        probed: no rule analysis, no speculative builds.  A value the
        phase did not move is skipped, its journaled rows (DRed's
        over-deleted facts, still in the value) kept for the sync after
        its fold.
        """
        for predicate, atom in self._identity_atoms.items():
            rows = self._values.get(predicate)
            if rows is None:
                continue
            pool = self._pools.get(predicate)
            if pool is None:
                self._pools[predicate] = _PredicateIndexPool(rows, atom.arity)
                continue
            if rows is pool.rows:
                continue
            relation = self._cache.get((atom_shape(atom)[0], pool.rows))
            if relation is not None:
                pool.adopt(relation.row_memo)
            touched = self._journal.get(predicate, [])
            pool.sync(rows, touched[pool.synced :])
            pool.synced = len(touched)

    def _seed_pool_relations(self) -> None:
        """Make the atom cache's relation for each pooled snapshot carry the
        pool's maintained indexes (and planner statistics), so the phase's
        joins probe them instead of rebuilding O(rows) structures per
        update batch."""
        for predicate, atom in self._identity_atoms.items():
            pool = self._pools.get(predicate)
            if pool is None or not pool.indexes or pool.rows is not self._values.get(predicate):
                continue
            self._pool_relation(atom, pool)

    def _pool_relation(self, atom: Atom, pool: _PredicateIndexPool) -> Relation:
        """The atom cache's relation over the pool's snapshot, topped up
        with the pool's indexes and distinct counts."""
        key = (atom_shape(atom)[0], pool.rows)
        relation = self._cache.get(key)
        if relation is None:
            relation = translate_atom(atom, pool.rows)
            self._cache[key] = relation
        pool.publish(relation.row_memo)
        return relation

    def _report(self, old: Facts, rounds: int) -> UpdateReport:
        """The batch's net changes against the values ``old`` it started
        from, read off the journal."""
        edb_added: dict[str, frozenset] = {}
        edb_removed: dict[str, frozenset] = {}
        idb_added: dict[str, frozenset] = {}
        idb_removed: dict[str, frozenset] = {}
        for p, touched in self._journal.items():
            added, removed = _net(touched, old[p], self._values[p])
            target_add = idb_added if p in self._idbs else edb_added
            target_del = idb_removed if p in self._idbs else edb_removed
            if added:
                target_add[p] = frozenset(added)
            if removed:
                target_del[p] = frozenset(removed)
        return UpdateReport(edb_added, edb_removed, idb_added, idb_removed, rounds)

    def _apply_edb(self, deletes: Facts, inserts: Facts) -> tuple[Facts, Facts]:
        """Apply the batch's EDB changes in one copy of each changed value
        and bring the pools to them.  Returns the facts deleted and the
        facts inserted; a fact deleted and inserted at once is present
        afterwards but counts as both, so DRed retracts what was derived
        through it and the closure derives it again."""
        deleted: Facts = {}
        inserted: Facts = {}
        for predicate in deletes.keys() | inserts.keys():
            value = self._values[predicate]
            gone = deletes.get(predicate, frozenset()) & value
            rows = inserts.get(predicate, frozenset())
            new = (rows - value) | (rows & gone)
            toggled = (gone - new) | (new - value)
            if toggled:
                self._values[predicate] = frozenset(toggled).symmetric_difference(value)
            if gone:
                deleted[predicate] = gone
                self._record(predicate, gone)
            if new:
                inserted[predicate] = new
                self._record(predicate, new)
        self._sync_pools()
        self._seed_pool_relations()
        return deleted, inserted

    def _close(self, delta: Facts, removed: dict[str, set], first_round: int) -> int:
        """Run the batch's one semi-naive closure, seeded with ``delta``
        (the inserted EDB facts and DRed's rederived ones), the facts in
        ``removed`` leaving their values at its fold."""
        if not delta:
            for predicate, dead in removed.items():
                if dead:
                    self._values[predicate] = self._values[predicate] - dead
            return 0
        return seminaive_closure(
            self._program,
            self._values,
            delta,
            strategy=self._strategy,
            cache=self._cache,
            first_round=first_round,
            journal=self._journal,
            removed=removed,
        )

    def _apply_dred(
        self, old: Facts, deleted: Facts, delta: Facts
    ) -> tuple[int, dict[str, set]]:
        """Delete-and-rederive up to its cascade, after :meth:`_apply_edb`:
        over-delete from the ``deleted`` facts against the pre-update
        values ``old``, then re-prove what still has support over the
        current values, adding the rederived facts to ``delta`` (the
        cascade's seeds, which :meth:`_close` runs with the inserted
        facts).  Returns the rounds run and the over-deleted facts that
        were not rederived.  Those stay in their values, flagged as
        removed, until that closure's fold: the batch copies each IDB
        value once, not once per phase."""
        values = self._values
        delta_minus = deleted

        # Phase 1 — over-deletion.  Each rule fires with one body atom
        # reading the deletions and the rest reading the *pre-update*
        # values: every fact with some derivation through a deleted fact is
        # provisionally removed.  The loop is the semi-naive closure run on
        # the deletion deltas; its facts accumulate in ``over``.
        over: dict[str, set] = {}
        rounds = 0
        while delta_minus:
            with span("datalog.overdelete", round=rounds):
                derived: dict[str, set] = {}
                for rule in self._program.rules:
                    for pos, atom in enumerate(rule.body):
                        if atom.predicate in delta_minus:
                            derived.setdefault(rule.head.predicate, set()).update(
                                _apply_rule(
                                    rule,
                                    old,
                                    delta_atom_index=pos,
                                    delta=delta_minus,
                                    strategy=self._strategy,
                                    cache=self._cache,
                                )
                            )
                delta_minus = {}
                for predicate, facts in derived.items():
                    dead = over.setdefault(predicate, set())
                    gone = (facts & old[predicate]) - dead
                    if gone:
                        dead |= gone
                        delta_minus[predicate] = frozenset(gone)
            rounds += 1
        for predicate, dead in over.items():
            if dead:
                self._record(predicate, frozenset(dead))

        # Phase 2 — rederivation.  An over-deleted fact survives if some
        # rule still derives it from the *current* values: per rule, the
        # seeded derivation π_head(head restriction ⋈ body), the head
        # restriction being the rule head over the over-deleted facts,
        # with every valuation through a fact still over-deleted dropped.
        # The IDB values still hold the over-deleted facts, so their
        # pooled indexes stay as they were.  Phase 3, the cascade (a
        # rescued fact can re-prove further over-deleted facts), is the
        # batch's one closure.
        for rule in self._program.rules:
            candidates = over.get(rule.head.predicate)
            if not candidates:
                continue
            rescued = _apply_rule(
                rule,
                values,
                strategy=self._strategy,
                cache=self._cache,
                seed=_atom_to_relation(rule.head, frozenset(candidates), None),
                excluded=over,
            )
            if rescued:
                head = rule.head.predicate
                over[head] -= rescued
                delta[head] = delta.get(head, frozenset()) | rescued
        return rounds, over

    # -- counting maintenance -------------------------------------------------

    def _recount(self) -> dict[str, dict[tuple, int]]:
        """Derivation counts of every IDB fact under the current values."""
        counts: dict[str, dict[tuple, int]] = {idb: {} for idb in self._idbs}
        for rule in self._program.rules:
            per_head = counts[rule.head.predicate]
            sources = [
                self._values.get(atom.predicate, frozenset()) for atom in rule.body
            ]
            for fact in self._rule_derivations(rule, sources):
                per_head[fact] = per_head.get(fact, 0) + 1
        return counts

    def _rule_derivations(self, rule: Rule, sources: list[frozenset]) -> list[tuple]:
        """Head facts of one rule, one per satisfying valuation of the body
        (one entry per valuation — *not* deduplicated across valuations).
        ``sources[i]`` is the row set body atom ``i`` reads."""
        relations = [
            _atom_to_relation(atom, source, self._cache)
            for atom, source in zip(rule.body, sources)
        ]
        joined = join_all(relations, strategy=self._strategy)
        return list(_instantiate(rule.head, joined.attributes, joined.tuples))

    def _apply_counting(self, inserts: Facts, deletes: Facts) -> int:
        """Counting maintenance for non-recursive programs: telescope the
        batch into signed per-position delta joins and adjust derivation
        counts stratum by stratum."""
        assert self._counts is not None
        values = self._values
        old = dict(values)
        delta_plus: dict[str, frozenset] = {}
        delta_minus: dict[str, frozenset] = {}
        for predicate, rows in deletes.items():
            gone = rows & values[predicate]
            if gone:
                values[predicate] = values[predicate] - gone
                delta_minus[predicate] = gone
                self._record(predicate, gone)
        for predicate, rows in inserts.items():
            new = rows - values[predicate]
            if new:
                values[predicate] = values[predicate] | new
                delta_plus[predicate] = new
                self._record(predicate, new)

        for idb in self._topological_idbs():
            per_head = self._counts[idb]
            signed: dict[tuple, int] = {}
            for rule in self._program.rules:
                if rule.head.predicate != idb:
                    continue
                # Δ(A₁ ⋈ … ⋈ Aₙ) = Σᵢ new₁‥newᵢ₋₁ ⋈ ΔAᵢ ⋈ oldᵢ₊₁‥oldₙ —
                # each changed valuation is counted exactly once, at the
                # first position where it reads a changed fact.  Sources
                # are per *position*, so a predicate appearing both before
                # and after position ``i`` reads its new value on the left
                # and its old value on the right, as the identity requires.
                for i, atom in enumerate(rule.body):
                    plus = delta_plus.get(atom.predicate)
                    minus = delta_minus.get(atom.predicate)
                    if not plus and not minus:
                        continue
                    left = [
                        values.get(a.predicate, frozenset())
                        for a in rule.body[:i]
                    ]
                    right = [
                        old.get(a.predicate, frozenset())
                        for a in rule.body[i + 1 :]
                    ]
                    if plus:
                        for fact in self._rule_derivations(
                            rule, left + [plus] + right
                        ):
                            signed[fact] = signed.get(fact, 0) + 1
                    if minus:
                        for fact in self._rule_derivations(
                            rule, left + [minus] + right
                        ):
                            signed[fact] = signed.get(fact, 0) - 1
            added: set[tuple] = set()
            removed: set[tuple] = set()
            for fact, d in signed.items():
                before = per_head.get(fact, 0)
                after = before + d
                if after < 0:
                    raise DomainError(
                        f"negative derivation count for {idb}{fact!r} — "
                        "counting invariant violated"
                    )
                if after == 0:
                    per_head.pop(fact, None)
                else:
                    per_head[fact] = after
                if before == 0 and after > 0:
                    added.add(fact)
                elif before > 0 and after == 0:
                    removed.add(fact)
            if added:
                values[idb] = values[idb] | added
                delta_plus[idb] = frozenset(added)
                self._record(idb, added)
            if removed:
                values[idb] = values[idb] - removed
                delta_minus[idb] = frozenset(removed)
                self._record(idb, removed)
        return 1

    def _topological_idbs(self) -> list[str]:
        """IDB predicates ordered so that every body dependency precedes
        its head (well-defined: counting mode rejects recursion)."""
        deps = self._program.dependency_graph()
        done: set[str] = set()
        order: list[str] = []
        pending = dict(deps)
        while pending:
            ready = sorted(p for p, d in pending.items() if d <= done)
            for p in ready:
                order.append(p)
                done.add(p)
                del pending[p]
        return order


def _count(counts: dict[Any, int], rows: Iterable[tuple], step: int) -> None:
    """Add ``step`` to the count of every value occurrence in ``rows``,
    dropping values whose count reaches zero."""
    for row in rows:
        for v in row:
            left = counts.get(v, 0) + step
            if left:
                counts[v] = left
            else:
                del counts[v]
