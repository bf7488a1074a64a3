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
  join *order* (``"greedy"``, ``"smallest"``, ``"textbook"``) with a join
  *execution* (``"indexed"``, ``"scan"``), e.g. ``"smallest+scan"``; see
  :func:`repro.relational.planner.parse_strategy`.  The defaults are the
  cost-guided greedy order and hash-indexed execution; ``DEFAULT_STRATEGY``
  and ``DEFAULT_EXECUTION`` are the module-wide knobs.

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
from repro.relational.planner import EXECUTIONS, choose_build_side, parse_strategy, plan_join
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
                scanned=len(relation) if copied else 0,
                emitted=len(result) if copied else 0,
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
            scanned=len(relation),
            emitted=len(result),
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
    every later join through the warmed side regardless of cardinalities.
    The seeded join builds every index it probes through here, so the
    persistent relations of a fixpoint (its EDB snapshots across rounds)
    pay each build once.  Returns ``True`` iff an index was actually built
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
            scanned=len(relation),
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
    * ``"interned"`` — the code-space fast path: the build side's key
      columns are interned to dense ints and probed through the memoized
      radix-packed :meth:`Relation.code_index_on` index, so a probe costs
      one small-int fold instead of a tuple allocation plus tuple hash.
    * ``"wcoj"`` — the two-relation leapfrog triejoin of
      :mod:`repro.relational.wcoj`: both operands are sorted into
      per-attribute tries over a shared dense-int codec and intersected
      variable-at-a-time (seek-based, no hash tables).
    * ``"parallel"`` — the shard-parallel path of :mod:`repro.parallel`:
      both operands are hash-partitioned on the canonical join key (one
      shared codec, radix-packed codes modulo the worker count) and the
      per-shard joins fan out across a persistent worker-process pool,
      falling back to serial execution below a size threshold.

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
    if execution == "columnar":
        from repro.relational.columnar import batched_natural_join

        return batched_natural_join(left, right)
    if execution == "parallel":
        from repro.parallel.joins import parallel_natural_join

        return parallel_natural_join(left, right)
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
                scanned=len(left) + len(left) * len(right),
                emitted=len(result),
                seconds=perf_counter() - start,
                intermediate=len(result),
            )
        return result

    if execution == "interned":
        build_side = choose_build_side(left, right, key, interned=True)
        build, probe = (right, left) if build_side == "right" else (left, right)
        built = not build.has_code_index(key)
        code_index = build.code_index_on(key)
        encode_key, base = code_index.encode, code_index.base
        lookup = code_index.lookup()
        probe_key = [probe.index_of(a) for a in key]
        hits = misses = 0

        def interned_rows() -> Iterable[tuple[Any, ...]]:
            nonlocal hits, misses
            for pt in probe:
                packed = 0
                for i in probe_key:
                    code = encode_key.get(pt[i])
                    if code is None:
                        packed = -1
                        break
                    packed = packed * base + code
                bucket = lookup(packed) if packed >= 0 else None
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

        result = Relation(out_attrs, interned_rows())
        if stats is not None:
            stats.record(
                "natural_join",
                scanned=len(probe) + (len(build) if built else 0),
                probes=len(probe),
                index_builds=1 if built else 0,
                index_hits=hits,
                probe_misses=misses,
                emitted=len(result),
                intern_tables=1 if built else 0,
                bitset_words=code_index.words if built else 0,
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
            scanned=len(probe) + (len(build) if built else 0),
            probes=len(probe),
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=misses,
            emitted=len(result),
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
    Orders (delegated to :func:`repro.relational.planner.plan_join`):

    * ``"greedy"`` (the default via :data:`DEFAULT_STRATEGY`) — cost-guided,
      smallest estimated intermediate first;
    * ``"smallest"`` — sort once by cardinality (the historical order);
    * ``"textbook"`` — join in the order given, the naive baseline.

    Executions: ``"indexed"`` (memoized hash indexes, the default),
    ``"scan"`` (nested loops), and ``"interned"`` (the code-space
    pipeline: every base relation is re-encoded over one shared dense-int
    codec, the fold runs entirely on int tuples probing radix-packed code
    indexes, and the final relation is decoded back — values cross the
    value↔code boundary exactly twice), and ``"wcoj"`` (the worst-case
    optimal leapfrog triejoin: the binary fold is replaced by one
    variable-at-a-time multi-way join over per-attribute sorted tries,
    materializing nothing but the output — see
    :mod:`repro.relational.wcoj`), and ``"parallel"`` (the fold is
    hash-partitioned on its most-shared attribute and the per-shard
    folds run across the :mod:`repro.parallel` worker pool, with a
    serial fallback below a size threshold); compound specs like
    ``"textbook+scan"`` fix both.  An explicit ``execution`` keyword
    overrides the spec.

    Joining the empty collection yields :meth:`Relation.unit`, the join
    identity, so ``join_all`` is a proper monoid fold.

    ``attributes`` names the answer columns, in order.  Under the
    ``"indexed"`` execution the projection is pushed into the fold (the
    planner's order is unchanged): the fold starts from the first operand
    itself, and every step is one fused hash join-project that keeps only
    the columns the answer or a later operand still mentions — so no
    intermediate holds a variable that is already dead, the bound behind
    the tutorial's ∃FO^k reading of bounded-variable queries (Section 6).
    Every other execution joins as without ``attributes`` and projects
    once at the end.  Each step, the first operand included, is recorded
    as one ``natural_join`` (span and
    :class:`~repro.relational.stats.EvalStats` entry), with the projected
    sizes as its intermediates.

    ``seed`` is a small, fresh operand that drives the join — a semi-naive
    delta, DRed's over-deleted head facts, the changed rows a cached
    answer is refreshed from — while ``relations`` outlive it.  The result
    is ``π_attributes(seed ⋈ relations)``; without ``attributes``, its
    columns are every attribute in order of first appearance, the seed's
    first.  Under the ``"indexed"`` execution the seed fixes the driving
    side, so no order is planned (:func:`_join_from_seed`): the join
    starts from the seed's rows and each step probes the memoized index of
    the operand it binds most, building a missing one through
    :func:`warm_index`.  Every other execution folds ``[seed, *relations]``
    in the planner's order.
    """
    order, spec_execution = parse_strategy(
        strategy, default_order=DEFAULT_STRATEGY, default_execution=DEFAULT_EXECUTION
    )
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
    plan = plan_join(operands, order).order
    pending = [operands[i] for i in plan]
    with span(
        "join_all", strategy=order, execution=execution, relations=len(pending)
    ) as sp:
        if attributes is None:
            result = _join_all(pending, execution)
        elif execution == "indexed":
            result = _join_project_all(pending, tuple(attributes))
        else:
            result = project(_join_all(pending, execution), attributes)
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
    if execution == "interned":
        return _join_all_interned(pending)
    if execution == "parallel":
        # Hash-partition the fold on its most-shared attribute and fan the
        # per-shard folds across the worker pool (serial fallback below the
        # size threshold); the planner's order is preserved per shard.
        from repro.parallel.joins import parallel_fold

        return parallel_fold(pending)
    if execution == "columnar":
        from repro.relational.columnar import (
            ColumnarFallback,
            join_all_columnar,
            numpy_backend,
        )

        if numpy_backend() is not None:
            try:
                return join_all_columnar(pending)
            except ColumnarFallback:
                # The packed key space outgrew the 64-bit lane; the binary
                # columnar fold below probes with unbounded Python ints.
                pass
        # numpy absent (or fallen back): fold with the batched binary
        # operators — same result, per-join probing.
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


def _join_project_all(pending: Sequence[Relation], attributes: tuple[str, ...]) -> Relation:
    """The indexed fold of :func:`join_all` with ``π_attributes`` pushed
    into every step: after step ``i`` only the answer's columns and those
    of ``pending[i+1:]`` survive, and the last step emits exactly
    ``attributes``."""
    live = []  # live[i]: the attributes still needed after step i
    needed = set(attributes)
    joined: set[str] = set()
    for rel in reversed(pending):
        live.append(frozenset(needed))
        needed.update(rel.attributes)
        joined.update(rel.attributes)
    live.reverse()
    for a in _check_scheme(attributes):
        if a not in joined:
            raise VocabularyError(
                f"attribute {a!r} not in the joined scheme {tuple(sorted(joined))!r}"
            )
    result = Relation.unit()
    last = len(pending) - 1
    for i, rel in enumerate(pending):
        out = attributes if i == last else None
        with span("natural_join", execution="indexed") as sp:
            if i == 0:
                result = _project_seed(rel, live[0], out)
            else:
                result = _join_project(result, rel, live[i], out)
            if sp:
                sp.note(rows=len(result))
        if not result:
            return Relation.empty(attributes)
    return result


def _project_seed(
    first: Relation, live: frozenset[str], out: tuple[str, ...] | None
) -> Relation:
    """The fold's first step: the first operand itself (shared, zero copy)
    unless one of its columns is already dead, else its projection onto
    the live ones (onto ``out`` when it is also the last step).  Recorded
    as a ``natural_join`` without probes or index builds; only a
    projecting seed scans and emits rows."""
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    if out is None:
        out = tuple(a for a in first.attributes if a in live)
    result = _projection(first, out)
    if stats is not None:
        copied = result is not first
        stats.record(
            "natural_join",
            scanned=len(first) if copied else 0,
            emitted=len(result) if copied else 0,
            seconds=perf_counter() - start,
            intermediate=len(result),
        )
    return result


def _join_project(
    left: Relation,
    right: Relation,
    live: frozenset[str],
    out: tuple[str, ...] | None,
) -> Relation:
    """One fused hash join-project step: ``left ⋈ right`` projected onto
    the columns in ``live`` — onto exactly ``out``, in order, when ``out``
    is given — without materializing the join.

    The build side is :func:`~repro.relational.planner.choose_build_side`'s,
    as in :func:`_natural_join`, and its table is
    :meth:`Relation.index_on`'s, so a table built here is memoized with
    the rows and later joins and queries over them probe it for free.  A
    build side whose whole scheme is the key — an atom whose variables are
    all bound by then — needs no table: its row set answers each probe by
    membership, and counts as indexed when the build side is chosen.  The
    other side's rows probe it (:func:`_probe_step`).
    """
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    shared, _ = _shared_and_private(left, right)
    key = tuple(shared)
    build_side = choose_build_side(left, right, key, members=True)
    build, probe = (right, left) if build_side == "right" else (left, right)
    if len(key) == build.arity:
        key, built, index = build.attributes, False, build.tuples
    else:
        built = not build.has_index(key)
        index = build.index_on(key)
    scheme, rows = _probe_step(
        probe.attributes, probe.tuples, build, key, index, live, out, built, stats, start
    )
    return Relation.from_trusted_rows(scheme, rows)


def _probe_step(
    scheme: tuple[str, ...],
    rows: Collection[tuple[Any, ...]],
    build: Relation,
    key: tuple[str, ...],
    index: Mapping[tuple, list] | frozenset,
    live: Collection[str],
    out: tuple[str, ...] | None,
    built: bool,
    stats: Any,
    start: float,
) -> tuple[tuple[str, ...], frozenset | set]:
    """Probe ``build`` with the distinct ``rows`` over ``scheme`` and keep
    the columns in ``live`` — exactly ``out``, in order, when given.
    Returns the result's scheme and its distinct rows, and records the
    step as one ``natural_join`` (``built``: the step built ``index``).

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
            scanned=len(rows) + (len(build) if built else 0),
            probes=len(rows),
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=len(rows) - hits,
            emitted=len(result),
            seconds=seconds,
            intermediate=len(result),
        )
    return result_scheme, result


def _join_from_seed(
    seed: Relation, relations: Sequence[Relation], attributes: tuple[str, ...]
) -> Relation:
    """The seeded join of :func:`join_all` under the ``"indexed"``
    execution: ``π_attributes(seed ⋈ relations)``, with no planner call
    and no intermediate :class:`Relation`.

    The rows start as the seed's own (shared, unless one of its columns is
    already dead).  Each step takes the remaining operand whose variables
    are all bound — a membership test in its rows — or else the one with
    the most bound variables, ties going to fewer rows, and probes its
    memoized index on the canonical (sorted) key, built through
    :func:`warm_index` when missing so the build is charged as an
    ``index_build`` and memoized with the operand's rows.  Each step keeps
    only the columns the answer or a later operand mentions, the last one
    exactly ``attributes``, and is recorded as one ``natural_join``
    (:func:`_probe_step`); the join stops at the first empty step.  A
    seed column no operand or answer mentions is projected away first,
    recorded as one ``project``.
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
    if not relations:
        return project(seed, attributes)
    scheme, rows = seed.attributes, seed.tuples
    if not needed.issuperset(scheme):
        stats = current_stats()
        start = perf_counter() if stats is not None else 0.0
        kept = tuple([a for a in scheme if a in needed])
        rows = frozenset(_take(rows, [scheme.index(a) for a in kept]))
        scheme = kept
        if stats is not None:
            stats.record(
                "project",
                scanned=len(seed),
                emitted=len(rows),
                seconds=perf_counter() - start,
            )
    pending = list(relations)
    while rows and pending:
        bound = set(scheme)
        best = rank = shared = None
        for i, rel in enumerate(pending):
            common = bound.intersection(rel.attributes)
            candidate = (len(common) < rel.arity, -len(common), len(rel))
            if rank is None or candidate < rank:
                best, rank, shared = i, candidate, common
        rel = pending.pop(best)
        live = answer.union(*[r.attributes for r in pending]) if pending else answer
        with span("natural_join", execution="indexed") as sp:
            if rank[0]:
                key = tuple(sorted(shared))
                warm_index(rel, key)
                index: Mapping[tuple, list] | frozenset = rel.index_on(key)
            else:
                key, index = rel.attributes, rel.tuples
            stats = current_stats()
            scheme, rows = _probe_step(
                scheme,
                rows,
                rel,
                key,
                index,
                live,
                None if pending else attributes,
                False,
                stats,
                perf_counter() if stats is not None else 0.0,
            )
            if sp:
                sp.note(rows=len(rows))
    if not rows:
        return Relation.empty(attributes)
    return Relation.from_trusted_rows(attributes, rows)


def _join_all_interned(pending: Sequence[Relation]) -> Relation:
    """The :func:`join_all` fold in code space.

    One codec interns the union of the operands' active domains; every
    operand is rebuilt with int-tuple rows; the binary joins run with
    ``execution="interned"`` (so their key packing works on dense ints);
    and only the final result is decoded.  The planner has already fixed
    the order, which — like the result — is identical to the plain paths'
    because the encoding is a bijection.
    """
    from repro.relational.interning import fold_codec

    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    # The shared codec is memoized per fold (identity tier first, then the
    # relation-set tier): re-folding the same relations — Datalog rounds,
    # repeated solvability checks, per-shard fans — skips the repr-sort of
    # the union universe.  Only an actual build charges ``intern_tables``;
    # a served codec charges ``codec_cache_hits``.
    codec, codec_built = fold_codec(pending)
    # Codes are assigned in repr order, so a value universe that is already
    # the dense ints 0..n-1 (in repr order) interns to itself.  Both
    # value↔code boundary passes are then the identity and can be skipped —
    # the fold below runs on the original relations, which *are* their own
    # encodings.
    identity = all(
        type(v) is int and v == i for i, v in enumerate(codec.values)
    )
    if identity:
        encoded: Sequence[Relation] = pending
    else:
        encoded = [
            Relation(rel.attributes, (codec.encode_row(t) for t in rel))
            for rel in pending
        ]
    if stats is not None:
        stats.record(
            "intern_encode",
            scanned=0 if identity else sum(len(r) for r in pending),
            intern_tables=1 if codec_built else 0,
            codec_cache_hits=0 if codec_built else 1,
            seconds=perf_counter() - start,
        )

    def decode(relation: Relation) -> Relation:
        if identity:
            return relation
        decode_start = perf_counter() if stats is not None else 0.0
        values = codec.values
        decoded = Relation(
            relation.attributes,
            (tuple(values[c] for c in t) for t in relation),
        )
        if stats is not None:
            stats.record(
                "intern_decode",
                scanned=len(relation),
                emitted=len(decoded),
                seconds=perf_counter() - decode_start,
            )
        return decoded

    result = Relation.unit()
    for rel in encoded:
        result = natural_join(result, rel, execution="interned")
        if not result:
            all_attrs = list(result.attributes)
            for other in encoded:
                for a in other.attributes:
                    if a not in all_attrs:
                        all_attrs.append(a)
            return Relation.empty(all_attrs)
    return decode(result)


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
    ``"interned"`` packs each probe key into a single dense int and, when
    the key space is small, answers the membership question with one
    shift-and-mask against ``right``'s membership bitmap (counted in
    ``EvalStats.mask_ops``).
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
    if execution == "columnar":
        from repro.relational.columnar import batched_semijoin

        return batched_semijoin(left, right)
    if execution == "parallel":
        from repro.parallel.joins import parallel_semijoin

        return parallel_semijoin(left, right)
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
                scanned=len(left) + examined,
                emitted=len(result),
                seconds=perf_counter() - start,
            )
        return result

    if execution == "interned":
        built = not right.has_code_index(key)
        code_index = right.code_index_on(key)
        encode_key, base = code_index.encode, code_index.base
        hits = misses = mask_ops = 0

        if code_index.dense:
            member_mask = code_index.member_mask

            def interned_matches(lt: tuple[Any, ...]) -> bool:
                nonlocal hits, misses, mask_ops
                packed = 0
                for i in left_key:
                    code = encode_key.get(lt[i])
                    if code is None:
                        misses += 1
                        return False
                    packed = packed * base + code
                mask_ops += 1
                if (member_mask >> packed) & 1:
                    hits += 1
                    return True
                misses += 1
                return False

        else:
            buckets = code_index.buckets

            def interned_matches(lt: tuple[Any, ...]) -> bool:
                nonlocal hits, misses
                packed = 0
                for i in left_key:
                    code = encode_key.get(lt[i])
                    if code is None:
                        misses += 1
                        return False
                    packed = packed * base + code
                if packed in buckets:
                    hits += 1
                    return True
                misses += 1
                return False

        result = Relation(left.attributes, (t for t in left if interned_matches(t)))
        if stats is not None:
            stats.record(
                "semijoin",
                scanned=len(left) + (len(right) if built else 0),
                probes=len(left),
                index_builds=1 if built else 0,
                index_hits=hits,
                probe_misses=misses,
                emitted=len(result),
                intern_tables=1 if built else 0,
                bitset_words=code_index.words if built else 0,
                mask_ops=mask_ops,
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
            scanned=len(left) + (len(right) if built else 0),
            probes=len(left),
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=misses,
            emitted=len(result),
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
