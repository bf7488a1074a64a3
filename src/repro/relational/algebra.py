"""Relational algebra over :class:`~repro.relational.relation.Relation`.

The tutorial's Proposition 2.1 reads constraint satisfaction as a
*join-evaluation problem*: a CSP instance ``(V, D, C)`` is solvable iff the
natural join of its constraint relations is nonempty.  This module provides
the natural join (hash-join implementation) plus the standard companions —
projection, selection, renaming, semijoin, and the set operations — which the
acyclic-join and Yannakakis machinery in :mod:`repro.width` builds on.

All operations are pure: they return new relations and never mutate inputs.

Two cross-cutting facilities live alongside the operators:

* **observability** — inside a :func:`repro.relational.stats.collect_stats`
  block, every join/semijoin/selection/projection records tuples scanned,
  hash probes, index builds/hits/misses, result cardinalities, and wall
  time into the active :class:`~repro.relational.stats.EvalStats`;
* **planning** — :func:`join_all` accepts a ``strategy`` that combines a
  join *order* (``"greedy"``, ``"textbook"``) with a join *execution*
  (``"indexed"``, ``"scan"``, ``"wcoj"``), e.g.
  ``"textbook+scan"``; see :func:`repro.relational.planner.parse_strategy`.
  The defaults are the greedy order and the indexed execution;
  ``DEFAULT_STRATEGY`` and ``DEFAULT_EXECUTION`` are the module-wide knobs.

Indexed execution probes the lazily built, memoized per-key-column hash
indexes of :meth:`Relation.index_on` — so a relation joined or
semijoin-reduced repeatedly on the same key (semi-naive Datalog rounds,
Yannakakis passes) pays for its hash table once.  The ``"scan"`` execution
is the nested-loop implementation, kept as a differential-testing oracle.
"""

from __future__ import annotations

from itertools import chain, compress
from time import perf_counter
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, SolverError, VocabularyError
from repro.relational.planner import (
    EXECUTIONS,
    choose_build_side,
    next_operand,
    parse_strategy,
    plan_join,
)
from repro.relational.relation import Relation, _check_scheme, _take
from repro.relational.stats import current_stats
from repro.telemetry.spans import span

__all__ = [
    "DEFAULT_STRATEGY",
    "DEFAULT_EXECUTION",
    "project",
    "select",
    "rename",
    "natural_join",
    "join_all",
    "semijoin",
    "warm_index",
    "union",
    "intersection",
    "difference",
    "product",
    "division",
]

#: Join-order strategy used by :func:`join_all` when none is given.
DEFAULT_STRATEGY = "greedy"

#: Join-execution mode used by :func:`natural_join`/:func:`semijoin` when
#: none is given: ``"indexed"`` (memoized hash indexes) or ``"scan"``.
DEFAULT_EXECUTION = "indexed"


def _resolve_execution(execution: str | None) -> str:
    mode = execution or DEFAULT_EXECUTION
    if mode not in EXECUTIONS:
        raise SolverError(
            f"unknown join execution {execution!r}; expected one of {EXECUTIONS}"
        )
    return mode


def project(relation: Relation, attributes: Sequence[str]) -> Relation:
    """Project onto ``attributes`` (which may reorder columns).

    Projecting onto the relation's own scheme returns the relation itself
    (no rows are scanned or copied); any other projection builds its rows
    with one :func:`operator.itemgetter`.

    >>> r = Relation(("x", "y"), [(1, 2), (1, 3)])
    >>> sorted(project(r, ("x",)).tuples)
    [(1,)]
    >>> project(r, ("x", "y")) is r
    True
    """
    with span("project") as sp:
        stats = current_stats()
        start = perf_counter() if stats is not None else 0.0
        result = _projection(relation, _check_scheme(attributes))
        if stats is not None:
            copied = result is not relation
            stats.record(
                "project",
                tuples_scanned=len(relation) if copied else 0,
                tuples_emitted=len(result) if copied else 0,
                seconds=perf_counter() - start,
            )
        if sp:
            sp.note(rows=len(result))
        return result


def _projection(relation: Relation, attributes: tuple[str, ...]) -> Relation:
    """``relation`` itself when ``attributes`` is its scheme, else its rows
    projected onto ``attributes`` (a well-formed scheme) by one
    :func:`operator.itemgetter`."""
    if attributes == relation.attributes:
        return relation
    positions = [relation.index_of(a) for a in attributes]
    return Relation.from_trusted_rows(
        attributes, frozenset(_take(relation.tuples, positions))
    )


class _RowView(Mapping[str, Any]):
    """A zero-copy ``{attribute: value}`` view of one row.

    ``select`` hands the predicate one of these instead of materializing a
    ``dict(zip(attrs, row))`` per row: lookups index straight into the tuple
    through a per-relation attribute index that is built once, so a
    predicate touching only some attributes never pays for the rest.
    """

    __slots__ = ("_index", "_row")

    def __init__(self, index: dict[str, int], row: tuple[Any, ...]):
        self._index = index
        self._row = row

    def __getitem__(self, key: str) -> Any:
        return self._row[self._index[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def select(relation: Relation, predicate: Callable[[Mapping[str, Any]], bool]) -> Relation:
    """Keep the rows on which ``predicate`` (given the row as a mapping) is true.

    The mapping is a lazy view of the row: values are fetched by index on
    access, so no per-row dictionary is allocated.
    """
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    attrs = relation.attributes
    index = {a: i for i, a in enumerate(attrs)}
    kept = (t for t in relation if predicate(_RowView(index, t)))
    result = Relation(attrs, kept)
    if stats is not None:
        stats.record(
            "select",
            tuples_scanned=len(relation),
            tuples_emitted=len(result),
            seconds=perf_counter() - start,
        )
    return result


def rename(relation: Relation, mapping: Mapping[str, str]) -> Relation:
    """Rename attributes according to ``mapping`` (attributes absent from the
    mapping keep their names).  The resulting scheme must still be distinct.

    O(1): the result is a :meth:`Relation.renamed` view sharing the rows
    and their memoized indexes.
    """
    new_attrs = tuple(mapping.get(a, a) for a in relation.attributes)
    if len(set(new_attrs)) != len(new_attrs):
        raise SchemaError(
            f"renaming {dict(mapping)!r} collapses scheme "
            f"{relation.attributes!r} to non-distinct {new_attrs!r}"
        )
    return relation.renamed(new_attrs)


def _shared_and_private(
    left: Relation, right: Relation
) -> tuple[list[str], list[str]]:
    """The canonical (sorted) join key shared by both schemes, and the
    attributes private to ``right``.

    The key is sorted so that it does not depend on operand order or scheme
    layout: ``r ⋈ s``, ``s ⋈ r``, ``r ⋉ s``, and :func:`warm_index` all
    name the same memoized :meth:`Relation.index_on` index.
    """
    left_set = set(left.attributes)
    shared = sorted(a for a in right.attributes if a in left_set)
    private = [a for a in right.attributes if a not in left_set]
    return shared, private


def warm_index(relation: Relation, attributes: Iterable[str]) -> bool:
    """Build (and memoize) ``relation``'s hash index on the canonical join
    key for ``attributes``, charging the build to the active EvalStats.

    The canonical key is the sorted attribute tuple — exactly what
    :func:`natural_join`, :func:`semijoin` and a seeded :func:`join_all`
    probe on — so a caller that knows a relation will be probed repeatedly
    on the same key (a Yannakakis reducer) can pay the build once, up
    front; :func:`~repro.relational.planner.choose_build_side` then routes
    every later binary join through the warmed side regardless of
    cardinalities.  The indexed :func:`join_all` builds every index it
    probes through here, so the persistent relations of a fixpoint (its
    EDB snapshots across rounds) pay each build once.  Returns ``True`` iff an index was actually built
    (``False`` when the key was already memoized).
    """
    key = tuple(sorted(attributes))
    if relation.has_index(key):
        return False
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    relation.index_on(key)
    if stats is not None:
        stats.record(
            "index_build",
            tuples_scanned=len(relation),
            index_builds=1,
            seconds=perf_counter() - start,
        )
    return True


def natural_join(
    left: Relation, right: Relation, *, execution: str | None = None
) -> Relation:
    """The natural join ``left ⋈ right`` on the shared attributes.

    ``execution`` picks the physical operator (default
    :data:`DEFAULT_EXECUTION`):

    * ``"indexed"`` — build-side/probe-side hash execution.
      :func:`~repro.relational.planner.choose_build_side` decides which
      operand owns the hash table (an already-memoized
      :meth:`Relation.index_on` index is free; otherwise the smaller side
      builds), and the other operand's rows probe it.
    * ``"scan"`` — the nested-loop implementation: every probe scans the
      whole other relation.  Kept for differential testing.
    * ``"wcoj"`` — the two-relation leapfrog triejoin of
      :mod:`repro.relational.wcoj`: both operands are sorted into
      per-attribute tries over a shared dense-int codec and intersected
      variable-at-a-time (seek-based, no hash tables).

    All produce the same relation with the same column order
    (``left``'s scheme followed by ``right``'s private attributes).  When
    the schemes are disjoint this degenerates to the Cartesian product;
    when they are identical it degenerates to intersection.
    """
    execution = _resolve_execution(execution)
    with span("natural_join", execution=execution) as sp:
        result = _natural_join(left, right, execution)
        if sp:
            sp.note(rows=len(result))
        return result


def _natural_join(left: Relation, right: Relation, execution: str) -> Relation:
    if execution == "wcoj":
        from repro.relational.wcoj import leapfrog_natural_join

        return leapfrog_natural_join(left, right)
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    shared, right_private = _shared_and_private(left, right)
    key = tuple(shared)
    right_private_idx = [right.index_of(a) for a in right_private]
    out_attrs = left.attributes + tuple(right_private)

    if execution == "scan":
        left_key = [left.index_of(a) for a in key]
        right_key = [right.index_of(a) for a in key]

        def scan_rows() -> Iterable[tuple[Any, ...]]:
            for lt in left:
                for rt in right:
                    if all(lt[i] == rt[j] for i, j in zip(left_key, right_key)):
                        yield lt + tuple(rt[i] for i in right_private_idx)

        result = Relation(out_attrs, scan_rows())
        if stats is not None:
            stats.record(
                "natural_join",
                tuples_scanned=len(left) + len(left) * len(right),
                tuples_emitted=len(result),
                seconds=perf_counter() - start,
                intermediate=len(result),
            )
        return result

    build_side = choose_build_side(left, right, key)
    build, probe = (right, left) if build_side == "right" else (left, right)
    built = not build.has_index(key)
    index = build.index_on(key)
    probe_key = [probe.index_of(a) for a in key]
    hits = misses = 0

    def indexed_rows() -> Iterable[tuple[Any, ...]]:
        nonlocal hits, misses
        for pt in probe:
            bucket = index.get(tuple(pt[i] for i in probe_key))
            if bucket is None:
                misses += 1
                continue
            hits += 1
            if build_side == "right":
                for rt in bucket:
                    yield pt + tuple(rt[i] for i in right_private_idx)
            else:
                for lt in bucket:
                    yield lt + tuple(pt[i] for i in right_private_idx)

    result = Relation(out_attrs, indexed_rows())
    if stats is not None:
        stats.record(
            "natural_join",
            tuples_scanned=len(probe) + (len(build) if built else 0),
            hash_probes=len(probe),
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=misses,
            tuples_emitted=len(result),
            seconds=perf_counter() - start,
            intermediate=len(result),
        )
    return result


def join_all(
    relations: Iterable[Relation],
    strategy: str | None = None,
    *,
    execution: str | None = None,
    attributes: Sequence[str] | None = None,
    seed: Relation | None = None,
) -> Relation:
    """Natural join of a collection of relations, or with ``attributes``
    its projection ``π_attributes(⋈ relations)``.

    ``strategy`` combines a join *order* — which determines every
    intermediate-relation cardinality, though never the result — and a join
    *execution*; see :func:`repro.relational.planner.parse_strategy`.
    Orders (:func:`repro.relational.planner.plan_join`):

    * ``"greedy"`` (the default via :data:`DEFAULT_STRATEGY`) — start from
      the smallest operand, then take the operand whose variables are all
      bound, else the one with the most bound variables;
    * ``"textbook"`` — join in the order given, the naive baseline.

    Executions: ``"indexed"`` (the default: one kernel,
    :func:`_join_from_seed`, probing memoized hash indexes), ``"scan"``
    (nested loops) and ``"wcoj"`` (the worst-case optimal leapfrog triejoin:
    the binary fold is replaced by one variable-at-a-time multi-way join
    over per-attribute sorted tries, materializing nothing but the output
    — see :mod:`repro.relational.wcoj`); compound specs like
    ``"textbook+scan"`` fix both.  An explicit ``execution`` keyword
    overrides the spec.

    Joining the empty collection yields :meth:`Relation.unit`, the join
    identity, so ``join_all`` is a proper monoid fold.

    ``attributes`` names the answer columns, in order.  Under the
    ``"indexed"`` execution the kernel starts from the first operand of the
    order and every step is one hash join-project that keeps only the
    columns the answer or a later operand still mentions — so no
    intermediate holds a variable that is already dead, the bound behind
    the tutorial's ∃FO^k reading of bounded-variable queries (Section 6).
    Without ``attributes`` it keeps every attribute, in order of first
    appearance along the join order.  Every other execution joins as
    without ``attributes`` — ``"scan"`` folding in the same order, so
    ``"greedy+scan"`` materializes the intermediates
    ``"greedy+indexed"`` does — and projects once at the end.  Each
    indexed step, the first operand included, is recorded as one
    ``natural_join`` (span and :class:`~repro.relational.stats.EvalStats`
    entry), with the projected sizes as its intermediates.

    ``seed`` is a small, fresh operand that drives the join — a semi-naive
    delta, DRed's over-deleted head facts, the changed rows a cached
    answer is refreshed from — while ``relations`` outlive it.  The result
    is ``π_attributes(seed ⋈ relations)``; without ``attributes``, its
    columns are every attribute in order of first appearance, the seed's
    first.  Under the ``"indexed"`` execution no order is planned: the
    kernel starts from the seed's rows and takes each next operand by
    :func:`~repro.relational.planner.next_operand`, whatever the order
    strategy.  Every other execution folds ``[seed, *relations]`` in the
    strategy's order.
    """
    order, spec_execution = parse_strategy(
        strategy, default_order=DEFAULT_STRATEGY, default_execution=DEFAULT_EXECUTION
    )
    if execution is not None:
        # Checked here, not only by the first join, so that an empty fold
        # rejects it too.
        _resolve_execution(execution)
    execution = execution or spec_execution
    operands = list(relations)
    if seed is not None:
        if attributes is None:
            attributes = tuple(
                dict.fromkeys(a for r in (seed, *operands) for a in r.attributes)
            )
        if execution == "indexed":
            with span(
                "join_all", strategy="seeded", execution=execution, relations=len(operands) + 1
            ) as sp:
                result = _join_from_seed(seed, operands, tuple(attributes))
                if sp:
                    sp.note(rows=len(result))
                return result
        operands.insert(0, seed)
    pending = [operands[i] for i in plan_join(operands, order)]
    with span(
        "join_all", strategy=order, execution=execution, relations=len(pending)
    ) as sp:
        if execution == "indexed" and pending:
            if attributes is None:
                attributes = dict.fromkeys(a for r in pending for a in r.attributes)
            result = _join_from_seed(
                pending[0], pending[1:], tuple(attributes), planned=True
            )
        else:
            result = _join_all(pending, execution)
            if attributes is not None:
                result = project(result, attributes)
        if sp:
            sp.note(rows=len(result))
        return result


def _join_all(pending: Sequence[Relation], execution: str) -> Relation:
    if execution == "wcoj":
        # The worst-case optimal path is a single multi-way operator: the
        # planner's binary order is irrelevant (a global *variable* order
        # drives the enumeration) and no intermediate is materialized.
        from repro.relational.wcoj import leapfrog_join

        return leapfrog_join(pending)
    result = Relation.unit()
    for rel in pending:
        result = natural_join(result, rel, execution=execution)
        if not result:
            # Early exit: a join with an empty intermediate stays empty.
            all_attrs = list(result.attributes)
            for other in pending:
                for a in other.attributes:
                    if a not in all_attrs:
                        all_attrs.append(a)
            return Relation.empty(all_attrs)
    return result


def _probe_step(
    scheme: tuple[str, ...],
    rows: Collection[tuple[Any, ...]],
    build: Relation,
    key: tuple[str, ...],
    index: Mapping[tuple, list] | frozenset,
    live: Collection[str],
    out: tuple[str, ...] | None,
) -> tuple[tuple[str, ...], frozenset | set]:
    """Probe ``build`` with the distinct ``rows`` over ``scheme`` and keep
    the columns in ``live`` — exactly ``out``, in order, when given.
    Returns the result's scheme and its distinct rows, and records the
    step as one ``natural_join``.

    ``index`` is ``build``'s hash index on ``key``, a sub-scheme of both
    sides, or ``build``'s row set when ``key`` is its whole scheme (in its
    order), which answers each probe by membership.  A probe row whose key
    hits contributes its surviving columns (the key included), a build row
    its surviving private ones:

    * no build-private column survives — a semijoin: each hitting probe
      row is projected, and no bucket is walked;
    * no probe-private column survives — the projected rows of each
      distinct hit bucket;
    * otherwise each hitting probe row is paired with its bucket's
      distinct parts, projected once per bucket.
    """
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    key_positions = [scheme.index(a) for a in key]
    # Every pass streams its key tuples: each dies as soon as it is probed,
    # so no pass feeds a garbage-collector generation.
    keys = _take(rows, key_positions)
    if out is None:
        head = tuple([a for a in scheme if a in live])
        tail = tuple([a for a in build.attributes if a in live and a not in scheme])
    else:
        head = tuple([a for a in out if a in scheme])
        tail = tuple([a for a in out if a not in scheme])
    if not tail:
        result_scheme = head
        kept: Iterable[tuple[Any, ...]] = compress(rows, map(index.__contains__, keys))
        if head != scheme:
            kept = _take(kept, [scheme.index(a) for a in head])
        result: frozenset | set = frozenset(kept)
    elif all(a in key for a in head):
        result_scheme = out or tuple(a for a in build.attributes if a in live)
        buckets = chain.from_iterable(map(index.__getitem__, index.keys() & keys))
        result = frozenset(_take(buckets, [build.index_of(a) for a in result_scheme]))
    else:
        parts = build.parts_on(key, tail)
        pairs = zip(keys, _take(rows, [scheme.index(a) for a in head]))
        result_scheme = head + tail
        result = {h + t for k, h in pairs for t in parts[k]}
        if out is not None and result_scheme != out:
            result = frozenset(_take(result, [result_scheme.index(a) for a in out]))
            result_scheme = out
    if stats is not None:
        seconds = perf_counter() - start
        hits = sum(map(index.__contains__, _take(rows, key_positions)))
        stats.record(
            "natural_join",
            tuples_scanned=len(rows),
            hash_probes=len(rows),
            index_hits=hits,
            probe_misses=len(rows) - hits,
            tuples_emitted=len(result),
            seconds=seconds,
            intermediate=len(result),
        )
    return result_scheme, result


def _join_from_seed(
    seed: Relation,
    relations: Sequence[Relation],
    attributes: tuple[str, ...],
    *,
    planned: bool = False,
) -> Relation:
    """The ``"indexed"`` execution of :func:`join_all`:
    ``π_attributes(seed ⋈ relations)``, with no intermediate
    :class:`Relation`.

    An unseeded join runs here ``planned``: ``seed`` is the first operand
    of :func:`~repro.relational.planner.plan_join`'s order and
    ``relations`` the rest, joined in that order.  Its first step is the
    seed's own rows (shared, unless one of its columns is already dead),
    recorded as one ``natural_join`` without probes or index builds.  A
    seeded join plans nothing: it starts from the seed's rows and each
    step takes :func:`~repro.relational.planner.next_operand`'s choice; a
    seed column no operand or answer mentions is projected away first,
    recorded as one ``project``.

    Each step probes the operand's memoized index on the canonical
    (sorted) key, built through :func:`warm_index` when missing so the
    build is charged as an ``index_build`` and memoized with the operand's
    rows — or, when the operand's variables are all bound, tests
    membership in its rows.  Each step keeps only the columns the answer
    or a later operand mentions, the last one exactly ``attributes``, and
    is recorded as one ``natural_join`` (:func:`_probe_step`); the join
    stops at the first empty step.
    """
    answer = frozenset(attributes)
    needed = answer.union(*[r.attributes for r in relations])
    joined = needed.union(seed.attributes)
    if len(answer) != len(attributes) or not answer <= joined:
        _check_scheme(attributes)
        missing = next(a for a in attributes if a not in joined)
        raise VocabularyError(
            f"attribute {missing!r} not in the joined scheme {tuple(sorted(joined))!r}"
        )
    if not relations and not planned:
        return project(seed, attributes)
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    if relations:
        scheme = tuple([a for a in seed.attributes if a in needed])
    else:
        scheme = attributes
    if planned:
        with span("natural_join", execution="indexed") as sp:
            first = _projection(seed, scheme)
            if stats is not None:
                copied = first is not seed
                stats.record(
                    "natural_join",
                    tuples_scanned=len(seed) if copied else 0,
                    tuples_emitted=len(first) if copied else 0,
                    seconds=perf_counter() - start,
                    intermediate=len(first),
                )
            if sp:
                sp.note(rows=len(first))
        if not relations:
            return first
    else:
        first = _projection(seed, scheme)
        if stats is not None and first is not seed:
            stats.record(
                "project",
                tuples_scanned=len(seed),
                tuples_emitted=len(first),
                seconds=perf_counter() - start,
            )
    rows = first.tuples
    pending = list(relations)
    while rows and pending:
        bound = set(scheme)
        rel = pending.pop(0 if planned else next_operand(bound, pending))
        shared = bound.intersection(rel.attributes)
        live = answer.union(*[r.attributes for r in pending]) if pending else answer
        with span("natural_join", execution="indexed") as sp:
            if len(shared) < rel.arity:
                key = tuple(sorted(shared))
                warm_index(rel, key)
                index: Mapping[tuple, list] | frozenset = rel.index_on(key)
            else:
                key, index = rel.attributes, rel.tuples
            scheme, rows = _probe_step(
                scheme, rows, rel, key, index, live, None if pending else attributes
            )
            if sp:
                sp.note(rows=len(rows))
    if not rows:
        return Relation.empty(attributes)
    return Relation.from_trusted_rows(attributes, rows)


def semijoin(
    left: Relation, right: Relation, *, execution: str | None = None
) -> Relation:
    """The semijoin ``left ⋉ right``: rows of ``left`` that join with ``right``.

    This is the primitive of the Yannakakis algorithm for acyclic joins
    (discussed in Section 6 of the tutorial via [45]).  ``execution`` picks
    the physical operator: ``"indexed"`` probes ``right``'s memoized
    :meth:`Relation.index_on` hash index on the shared attributes — so a
    reducer used repeatedly (as in Yannakakis' two passes) pays for its
    index once — while ``"scan"`` re-scans ``right`` per row of ``left``.
    ``"wcoj"`` probes ``right``'s sorted trie.
    """
    execution = _resolve_execution(execution)
    with span("semijoin", execution=execution) as sp:
        result = _semijoin(left, right, execution)
        if sp:
            sp.note(rows=len(result))
        return result


def _semijoin(left: Relation, right: Relation, execution: str) -> Relation:
    if execution == "wcoj":
        from repro.relational.wcoj import trie_semijoin

        return trie_semijoin(left, right)
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    shared, _ = _shared_and_private(left, right)
    key = tuple(shared)
    left_key = [left.index_of(a) for a in key]

    if execution == "scan":
        right_key = [right.index_of(a) for a in key]
        examined = 0

        def scan_matches(lt: tuple[Any, ...]) -> bool:
            nonlocal examined
            for rt in right:
                examined += 1
                if all(lt[i] == rt[j] for i, j in zip(left_key, right_key)):
                    return True
            return False

        result = Relation(left.attributes, (t for t in left if scan_matches(t)))
        if stats is not None:
            stats.record(
                "semijoin",
                tuples_scanned=len(left) + examined,
                tuples_emitted=len(result),
                seconds=perf_counter() - start,
            )
        return result

    built = not right.has_index(key)
    index = right.index_on(key)
    hits = misses = 0

    def indexed_matches(lt: tuple[Any, ...]) -> bool:
        nonlocal hits, misses
        if tuple(lt[i] for i in left_key) in index:
            hits += 1
            return True
        misses += 1
        return False

    result = Relation(left.attributes, (t for t in left if indexed_matches(t)))
    if stats is not None:
        stats.record(
            "semijoin",
            tuples_scanned=len(left) + (len(right) if built else 0),
            hash_probes=len(left),
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=misses,
            tuples_emitted=len(result),
            seconds=perf_counter() - start,
        )
    return result


def _require_same_scheme(left: Relation, right: Relation, op: str) -> None:
    if left.attributes != right.attributes:
        raise SchemaError(
            f"{op} requires identical schemes, got "
            f"{left.attributes!r} and {right.attributes!r}"
        )


def union(left: Relation, right: Relation) -> Relation:
    """Set union of two relations over the same scheme."""
    _require_same_scheme(left, right, "union")
    return Relation(left.attributes, left.tuples | right.tuples)


def intersection(left: Relation, right: Relation) -> Relation:
    """Set intersection of two relations over the same scheme."""
    _require_same_scheme(left, right, "intersection")
    return Relation(left.attributes, left.tuples & right.tuples)


def difference(left: Relation, right: Relation) -> Relation:
    """Set difference ``left - right`` of two relations over the same scheme."""
    _require_same_scheme(left, right, "difference")
    return Relation(left.attributes, left.tuples - right.tuples)


def product(left: Relation, right: Relation) -> Relation:
    """Cartesian product; the schemes must be disjoint."""
    overlap = set(left.attributes) & set(right.attributes)
    if overlap:
        raise SchemaError(f"product requires disjoint schemes, shared: {sorted(overlap)!r}")
    return natural_join(left, right)


def division(left: Relation, right: Relation) -> Relation:
    """Relational division ``left ÷ right``: the tuples over the attributes
    of ``left`` *not* in ``right`` that pair with **every** tuple of
    ``right`` inside ``left`` — the algebra's universal quantifier.

    ``right``'s attributes must be a proper subset of ``left``'s.
    """
    right_attrs = set(right.attributes)
    left_attrs = set(left.attributes)
    if not right_attrs < left_attrs:
        raise SchemaError(
            "division requires the divisor scheme to be a proper subset of "
            f"the dividend scheme; got {right.attributes!r} vs {left.attributes!r}"
        )
    quotient_attrs = tuple(a for a in left.attributes if a not in right_attrs)

    candidates = project(left, quotient_attrs)
    # A candidate survives iff {candidate} × right ⊆ left: compute the
    # required combinations, remove those present, and drop any candidate
    # with a missing combination.
    required = project(natural_join(candidates, right), left.attributes)
    missing = difference(required, left)
    bad = project(missing, quotient_attrs)
    return difference(candidates, bad)
