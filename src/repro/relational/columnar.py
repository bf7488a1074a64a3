"""Columnar code-space storage — struct-of-arrays relations + batched kernels.

Marx (*Modern Lower Bound Techniques in Database Theory and Constraint
Satisfaction*, 2022) fixes the asymptotics of join and CSP evaluation by
conditional lower bounds, so the wall-clock headroom left on the tutorial's
workloads is constant-factor.  This module buys that factor with a physical
layer change: a :class:`~repro.relational.relation.Relation` gains a lazily
built, memoized :class:`ColumnStore` — one stdlib ``array('q')`` of interned
codes per column (struct of arrays, zero-copy ``memoryview``-able), sharing
the dense-int :class:`~repro.relational.interning.Codec` discipline of the
interned data plane — and the hot per-row loops become whole-column sweeps:

* :func:`mask_select` — selection as a predicate mask applied per column
  (each predicate runs once per *distinct* value, not once per row);
* :func:`batched_semijoin` / :func:`batched_natural_join` — the hash-join
  probe as one batched column lookup against the radix-packed
  :class:`~repro.relational.relation.CodeIndex` (all probe keys packed and
  filtered at once, only the matching rows reach the Python emit loop);
* :func:`project_distinct` — projection/dedup over packed single-int key
  arrays;
* :func:`join_all_columnar` — the multi-way fold kept columnar end to end:
  intermediates stay code matrices, binary joins run sort + batched
  ``searchsorted`` range expansion, and tuples materialize exactly once at
  the decode boundary.

When numpy is importable (:func:`numpy_backend`, auto-detected and cached)
the sweeps run as vectorized ``int64`` array operations over zero-copy
``np.frombuffer`` views of the stdlib arrays; without it every kernel falls
back to a pure-stdlib loop over the same columns, computing the identical
result — the fallback is differentially tested by masking numpy out of
``sys.modules``.  Either way the row path remains the oracle: the
differential matrix pins ``execution="columnar"`` to exact row-set
agreement with ``scan``/``indexed``/``interned``/``wcoj``.

Accounting is honest, mirroring :func:`repro.relational.algebra.warm_index`:
the query whose probe first columnizes a relation is charged the build
(``EvalStats.column_builds`` + tuples scanned), and every batched probe
sweep is counted in ``EvalStats.batch_probes``.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.relational.interning import Codec, fold_codec
from repro.relational.planner import choose_build_side
from repro.relational.relation import CodeIndex, Relation
from repro.relational.stats import current_stats
from repro.telemetry.spans import span

__all__ = [
    "PACKED_KEY_SPACE_CAP",
    "ColumnStore",
    "column_store",
    "warm_columns",
    "numpy_backend",
    "reset_numpy_backend",
    "mask_select",
    "batched_semijoin",
    "batched_natural_join",
    "project_distinct",
    "join_all_columnar",
    "ColumnarFallback",
]

#: Largest packed-key space the batched kernels push through a signed
#: 64-bit numpy lane.  Beyond it the radix fold could overflow, so probes
#: revert to per-row Python ints (which are unbounded) and
#: :func:`join_all_columnar` raises :class:`ColumnarFallback` to hand the
#: fold back to the binary columnar operators.
PACKED_KEY_SPACE_CAP = 1 << 62


class ColumnarFallback(Exception):
    """Raised by :func:`join_all_columnar` when a fold step cannot run in
    64-bit packed-key space; the caller reruns the fold with the binary
    columnar operators (same result, per-join probing)."""


_UNSET = object()
_numpy: Any = _UNSET


def numpy_backend():
    """The ``numpy`` module when importable, else ``None`` (cached).

    The columnar kernels consult this once per call; both answers produce
    identical relations, so environments without numpy (the CI tier-1
    matrix installs none) run the stdlib fallback transparently.
    """
    global _numpy
    if _numpy is _UNSET:
        try:
            import numpy as np
        except ImportError:
            np = None
        _numpy = np
    return _numpy


def reset_numpy_backend() -> None:
    """Drop the cached numpy detection (test hook for ``sys.modules``
    masking — the numpy-absent differential wall re-detects after this)."""
    global _numpy
    _numpy = _UNSET


class ColumnStore:
    """Struct-of-arrays storage for one relation's rows, in code space.

    One :class:`~repro.relational.interning.Codec` interns the relation's
    active domain (codes in ``repr`` order, as everywhere else); each column
    is an ``array('q')`` of codes, positionally aligned with ``rows``.
    Stores are built lazily by :func:`column_store` and memoized on the
    relation (relations are immutable, so a built store is valid forever) —
    exactly the :meth:`~repro.relational.relation.Relation.index_on`
    discipline.

    Attributes
    ----------
    attributes:
        The relation's scheme.
    codec:
        The relation-wide value ↔ code bijection.
    rows:
        The original row tuples, in the store's fixed positional order.
    nrows:
        ``len(rows)``.
    columns:
        One ``array('q')`` of codes per attribute (same order as
        ``attributes``).
    """

    __slots__ = ("attributes", "codec", "rows", "nrows", "columns", "_np_columns")

    def __init__(self, relation: Relation):
        self.attributes = relation.attributes
        self.rows: tuple[tuple[Any, ...], ...] = tuple(relation.tuples)
        self.nrows = len(self.rows)
        self.codec = Codec(v for t in self.rows for v in t)
        code_map = self.codec.code_map
        self.columns: tuple[array, ...] = tuple(
            array("q", (code_map[t[j]] for t in self.rows))
            for j in range(len(self.attributes))
        )
        self._np_columns: tuple | None = None

    def column_view(self, position: int) -> memoryview:
        """A zero-copy ``memoryview`` of one code column."""
        return memoryview(self.columns[position])

    def np_columns(self) -> tuple | None:
        """Zero-copy ``np.int64`` views of the columns, or ``None`` without
        numpy.  Built once and cached (the underlying buffers are shared
        with ``columns``, never copied)."""
        np = numpy_backend()
        if np is None:
            return None
        if self._np_columns is None:
            self._np_columns = tuple(
                np.frombuffer(col, dtype=np.int64)
                if len(col)
                else np.empty(0, dtype=np.int64)
                for col in self.columns
            )
        return self._np_columns

    def __getstate__(self) -> tuple:
        # The numpy views are zero-copy aliases of ``columns`` — derived
        # state that must not drag a second copy of every column across a
        # pickle boundary.  They rebuild lazily on the other side.
        return (self.attributes, self.codec, self.rows, self.nrows, self.columns)

    def __setstate__(self, state: tuple) -> None:
        self.attributes, self.codec, self.rows, self.nrows, self.columns = state
        self._np_columns = None

    def to_relation(self) -> Relation:
        """Decode the columns back to a relation (the round-trip law:
        ``column_store(r).to_relation() == r``)."""
        values = self.codec.values
        columns = self.columns
        return Relation(
            self.attributes,
            (tuple(values[col[i]] for col in columns) for i in range(self.nrows)),
        )


def column_store(relation: Relation) -> ColumnStore:
    """The relation's memoized :class:`ColumnStore`, building it on first use.

    The build is charged to the active
    :class:`~repro.relational.stats.EvalStats` of the *building* query —
    one ``column_builds``, the full row count as ``tuples_scanned``, one
    ``intern_tables`` for the codec — mirroring :func:`warm_index`'s
    honest-charge rule.  A memoized hit charges nothing.
    """
    store = relation._column_store
    if store is not None:
        return store
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    store = ColumnStore(relation)
    relation._column_store = store
    if stats is not None:
        stats.record(
            "column_build",
            scanned=len(relation),
            column_builds=1,
            intern_tables=1,
            seconds=perf_counter() - start,
        )
    return store


def warm_columns(relation: Relation, attributes: Iterable[str] | None = None) -> bool:
    """Pre-build ``relation``'s column store (and, when ``attributes`` is
    given, its radix-packed code index on the canonical sorted key),
    charging the builds to the active EvalStats.

    The columnar counterpart of
    :func:`repro.relational.algebra.warm_index`, for a caller that knows a
    relation will be probed repeatedly on one key.  Returns ``True`` iff
    anything was built.
    """
    built = relation._column_store is None
    column_store(relation)
    if attributes is None:
        return built
    key = tuple(sorted(attributes))
    if relation.has_code_index(key):
        return built
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    index = relation.code_index_on(key)
    if stats is not None:
        stats.record(
            "index_build",
            scanned=len(relation),
            index_builds=1,
            intern_tables=1,
            bitset_words=index.words,
            seconds=perf_counter() - start,
        )
    return True


# -- selection ---------------------------------------------------------------


def mask_select(
    relation: Relation, predicates: Mapping[str, Callable[[Any], bool]]
) -> Relation:
    """Columnar selection: keep the rows satisfying every per-attribute
    predicate — ``select(r, lambda row: all(p(row[a]) for a, p in ...))``
    is the row oracle.

    Each predicate is evaluated once per *distinct* value of the relation's
    interned universe (an allowed-by-code lookup table), then applied to
    the whole column as a boolean mask; the masks AND together and the
    surviving rows are gathered in one pass.  ``EvalStats.mask_ops`` counts
    one operation per row per masked column.
    """
    with span("mask_select", columns=len(predicates)) as sp:
        stats = current_stats()
        start = perf_counter() if stats is not None else 0.0
        store = column_store(relation)
        values = store.codec.values
        mask_ops = 0
        np = numpy_backend()
        if np is not None:
            keep = np.ones(store.nrows, dtype=bool)
            cols = store.np_columns()
            for attr, pred in predicates.items():
                lut = np.fromiter(
                    (bool(pred(v)) for v in values), dtype=bool, count=len(values)
                )
                keep &= lut[cols[relation.index_of(attr)]]
                mask_ops += store.nrows
            kept = [store.rows[i] for i in np.nonzero(keep)[0].tolist()]
        else:
            tests = []
            for attr, pred in predicates.items():
                allowed = {c for c, v in enumerate(values) if pred(v)}
                tests.append((store.columns[relation.index_of(attr)], allowed))
                mask_ops += store.nrows
            kept = [
                row
                for i, row in enumerate(store.rows)
                if all(col[i] in allowed for col, allowed in tests)
            ]
        result = Relation(relation.attributes, kept)
        if stats is not None:
            stats.record(
                "select",
                scanned=len(relation),
                emitted=len(result),
                mask_ops=mask_ops,
                seconds=perf_counter() - start,
            )
        if sp:
            sp.note(rows=len(result))
        return result


# -- batched probing against a CodeIndex -------------------------------------


def _bitmap_bools(mask: int, nbits: int, np):
    """A dense CodeIndex membership bitmap as a numpy bool array."""
    raw = np.frombuffer(mask.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:nbits].astype(bool)


def _probe_batch(
    store: ColumnStore, key_positions: Sequence[int], index: CodeIndex
) -> tuple[list[int], list[int], int, int, int]:
    """Probe every store row's packed key against ``index`` in one batch.

    Returns ``(positions, packed, hits, misses, mask_ops)`` where
    ``positions`` are the store-row positions whose key occurs in the
    index and ``packed`` the corresponding packed keys (aligned).  The
    translation from store codes to index codes is one lookup table over
    the store's *universe* (built once per probe, not per row).
    """
    base = index.base
    encode = index.encode
    values = store.codec.values
    np = numpy_backend()
    space = base ** len(key_positions)
    if np is not None and space <= PACKED_KEY_SPACE_CAP:
        lut = np.fromiter(
            (encode.get(v, -1) for v in values), dtype=np.int64, count=len(values)
        )
        cols = store.np_columns()
        valid = np.ones(store.nrows, dtype=bool)
        packed = np.zeros(store.nrows, dtype=np.int64)
        for j in key_positions:
            codes = lut[cols[j]]
            valid &= codes >= 0
            packed = packed * base + codes
        packed = np.where(valid, packed, 0)
        if index.dense:
            occupied = _bitmap_bools(index.member_mask, space, np)
            hit = valid & occupied[packed]
            mask_ops = store.nrows
        else:
            buckets = index.buckets
            hit = valid.copy()
            packed_list = packed.tolist()
            for i in np.nonzero(valid)[0].tolist():
                if packed_list[i] not in buckets:
                    hit[i] = False
            mask_ops = 0
        positions = np.nonzero(hit)[0].tolist()
        hit_packed = packed[hit].tolist()
        hits = len(positions)
        return positions, hit_packed, hits, store.nrows - hits, mask_ops
    # stdlib fallback: the same sweep with Python ints (unbounded, so no
    # packed-key-space cap applies here).
    lut_list = [encode.get(v, -1) for v in values]
    columns = store.columns
    dense = index.dense
    member = index.member_mask
    buckets = index.buckets
    positions: list[int] = []
    hit_packed: list[int] = []
    misses = mask_ops = 0
    for i in range(store.nrows):
        packed = 0
        ok = True
        for j in key_positions:
            code = lut_list[columns[j][i]]
            if code < 0:
                ok = False
                break
            packed = packed * base + code
        if ok:
            if dense:
                mask_ops += 1
                ok = bool((member >> packed) & 1)
            else:
                ok = packed in buckets
        if ok:
            positions.append(i)
            hit_packed.append(packed)
        else:
            misses += 1
    return positions, hit_packed, len(positions), misses, mask_ops


def _canonical_key(left: Relation, right: Relation) -> tuple[str, ...]:
    left_set = set(left.attributes)
    return tuple(sorted(a for a in right.attributes if a in left_set))


def batched_semijoin(left: Relation, right: Relation) -> Relation:
    """``left ⋉ right`` with the probe side columnized: every probe key is
    packed and tested against ``right``'s radix-packed code index in one
    batched sweep (``EvalStats.batch_probes`` counts the batch's rows).
    """
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    key = _canonical_key(left, right)
    store = column_store(left)
    built = not right.has_code_index(key)
    index = right.code_index_on(key)
    positions, _, hits, misses, mask_ops = _probe_batch(
        store, [left.index_of(a) for a in key], index
    )
    rows = store.rows
    result = Relation(left.attributes, (rows[i] for i in positions))
    if stats is not None:
        stats.record(
            "semijoin",
            scanned=len(left) + (len(right) if built else 0),
            probes=store.nrows,
            batch_probes=store.nrows,
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=misses,
            emitted=len(result),
            intern_tables=1 if built else 0,
            bitset_words=index.words if built else 0,
            mask_ops=mask_ops,
            seconds=perf_counter() - start,
        )
    return result


def batched_natural_join(left: Relation, right: Relation) -> Relation:
    """``left ⋈ right`` with a columnized probe side: the build side owns
    the memoized :class:`~repro.relational.relation.CodeIndex` (the planner
    picks it exactly as in the interned execution), the probe side's key
    columns are packed and membership-filtered in one batch, and only the
    matching rows enter the Python emit loop.
    """
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    left_set = set(left.attributes)
    key = tuple(sorted(a for a in right.attributes if a in left_set))
    right_private = [a for a in right.attributes if a not in left_set]
    right_private_idx = [right.index_of(a) for a in right_private]
    out_attrs = left.attributes + tuple(right_private)

    build_side = choose_build_side(left, right, key, interned=True)
    build, probe = (right, left) if build_side == "right" else (left, right)
    store = column_store(probe)
    built = not build.has_code_index(key)
    index = build.code_index_on(key)
    positions, packed, hits, misses, mask_ops = _probe_batch(
        store, [probe.index_of(a) for a in key], index
    )
    lookup = index.lookup()
    rows = store.rows

    def joined():
        if build_side == "right":
            for i, p in zip(positions, packed):
                pt = rows[i]
                for rt in lookup(p):
                    yield pt + tuple(rt[k] for k in right_private_idx)
        else:
            for i, p in zip(positions, packed):
                pt = rows[i]
                for lt in lookup(p):
                    yield lt + tuple(pt[k] for k in right_private_idx)

    result = Relation(out_attrs, joined())
    if stats is not None:
        stats.record(
            "natural_join",
            scanned=len(probe) + (len(build) if built else 0),
            probes=store.nrows,
            batch_probes=store.nrows,
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=misses,
            emitted=len(result),
            intern_tables=1 if built else 0,
            bitset_words=index.words if built else 0,
            mask_ops=mask_ops,
            seconds=perf_counter() - start,
            intermediate=len(result),
        )
    return result


# -- projection / dedup ------------------------------------------------------


def project_distinct(relation: Relation, attributes: Sequence[str]) -> Relation:
    """Projection with dedup over packed key arrays — the columnar
    counterpart of :func:`repro.relational.algebra.project` (same result).

    Each row's projected columns fold into one radix-packed int; dedup is
    then a single ``np.unique`` over the packed array (a set of small ints
    in the fallback), and only the distinct keys are unpacked and decoded.
    """
    with span("project") as sp:
        stats = current_stats()
        start = perf_counter() if stats is not None else 0.0
        attrs = tuple(attributes)
        store = column_store(relation)
        positions = [relation.index_of(a) for a in attrs]
        base = max(1, len(store.codec))
        values = store.codec.values
        np = numpy_backend()
        if (
            np is not None
            and positions
            and base ** len(positions) <= PACKED_KEY_SPACE_CAP
        ):
            cols = store.np_columns()
            packed = np.zeros(store.nrows, dtype=np.int64)
            for j in positions:
                packed = packed * base + cols[j]
            distinct = np.unique(packed)
            code_cols = []
            rem = distinct
            for _ in positions:
                code_cols.append(rem % base)
                rem = rem // base
            code_cols.reverse()
            tuples = [
                tuple(values[c] for c in codes)
                for codes in zip(*(col.tolist() for col in code_cols))
            ]
            result = Relation(attrs, tuples)
        else:
            rows = store.rows
            result = Relation(attrs, (tuple(t[j] for j in positions) for t in rows))
        if stats is not None:
            stats.record(
                "project",
                scanned=len(relation),
                emitted=len(result),
                batch_probes=store.nrows if np is not None else 0,
                seconds=perf_counter() - start,
            )
        if sp:
            sp.note(rows=len(result))
        return result


# -- the multi-way columnar fold ---------------------------------------------


def join_all_columnar(pending: Sequence[Relation]) -> Relation:
    """The :func:`repro.relational.algebra.join_all` fold, columnar end to
    end (numpy required — callers check :func:`numpy_backend` first).

    One shared codec interns the union of the operands' active domains (as
    in the interned pipeline); every operand's memoized column store is
    translated into shared-code ``int64`` columns; each binary fold step is
    a batched sort-merge probe — pack both sides' keys, ``argsort`` the
    smaller side, ``searchsorted`` every probe key at once, expand the
    match ranges with ``repeat``/``arange`` arithmetic — and intermediates
    stay column matrices.  Tuples materialize exactly once, at the final
    decode boundary.  Natural joins of duplicate-free relations are
    duplicate-free, so no intermediate needs a dedup pass.

    Raises :class:`ColumnarFallback` when a fold step's packed key space
    exceeds the 64-bit lane; the caller reruns with the binary columnar
    operators.
    """
    np = numpy_backend()
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    if not pending:
        return Relation.unit()
    # The shared codec interns the union of the operands' active domains,
    # memoized per fold (:func:`repro.relational.interning.fold_codec`): a
    # warm re-fold of the same relations — Datalog rounds, repeated
    # solvability checks, per-shard fans — skips the repr-sort entirely,
    # and the interned pipeline folding the same relations shares the
    # identical codec object.
    stores = [column_store(rel) for rel in pending]
    codec, codec_built = fold_codec(pending)
    # The identity-codec fast path of the interned pipeline: a universe
    # that is already the dense ints 0..n-1 (in repr order) interns to
    # itself, so the decode boundary can emit the codes directly.
    identity = all(type(v) is int and v == i for i, v in enumerate(codec.values))
    base = max(1, len(codec))
    code_map = codec.code_map
    if stats is not None:
        stats.record(
            "columnar_encode",
            intern_tables=1 if codec_built else 0,
            codec_cache_hits=0 if codec_built else 1,
            seconds=perf_counter() - start,
        )

    def operand(store: ColumnStore) -> tuple[list[str], list, int]:
        lut = np.fromiter(
            (code_map[v] for v in store.codec.values),
            dtype=np.int64,
            count=len(store.codec),
        )
        return (
            list(store.attributes),
            [lut[col] for col in store.np_columns()],
            store.nrows,
        )

    def empty_result(seen_attrs: list[str]) -> Relation:
        all_attrs = list(seen_attrs)
        for other in pending:
            for a in other.attributes:
                if a not in all_attrs:
                    all_attrs.append(a)
        return Relation.empty(all_attrs)

    cur_attrs, cur_cols, cur_rows = operand(stores[0])
    for store in stores[1:]:
        r_attrs, r_cols, r_nrows = operand(store)
        step_start = perf_counter() if stats is not None else 0.0
        cur_set = set(cur_attrs)
        shared = sorted(a for a in r_attrs if a in cur_set)
        private = [a for a in r_attrs if a not in cur_set]
        if shared and base ** len(shared) > PACKED_KEY_SPACE_CAP:
            raise ColumnarFallback(
                f"packed key space {base}^{len(shared)} exceeds the 64-bit lane"
            )

        def pack(cols: list, key_positions: list[int], nrows: int):
            packed = np.zeros(nrows, dtype=np.int64)
            for j in key_positions:
                packed = packed * base + cols[j]
            return packed

        cur_packed = pack(cur_cols, [cur_attrs.index(a) for a in shared], cur_rows)
        rel_packed = pack(r_cols, [r_attrs.index(a) for a in shared], r_nrows)
        # The smaller side pays the sort (the build-side rule); either
        # choice yields the same rows.
        build_is_cur = cur_rows <= r_nrows
        build_p, probe_p = (
            (cur_packed, rel_packed) if build_is_cur else (rel_packed, cur_packed)
        )
        order = np.argsort(build_p, kind="stable")
        sorted_keys = build_p[order]
        lo = np.searchsorted(sorted_keys, probe_p, side="left")
        hi = np.searchsorted(sorted_keys, probe_p, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if stats is not None:
            stats.record(
                "natural_join",
                scanned=cur_rows + r_nrows,
                probes=len(probe_p),
                batch_probes=len(probe_p),
                index_hits=int((counts > 0).sum()),
                probe_misses=int((counts == 0).sum()),
                emitted=total,
                seconds=perf_counter() - step_start,
                intermediate=total,
            )
        if total == 0:
            return empty_result(cur_attrs)
        probe_idx = np.repeat(np.arange(len(probe_p)), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        build_idx = order[np.repeat(lo, counts) + offsets]
        cur_take, rel_take = (
            (build_idx, probe_idx) if build_is_cur else (probe_idx, build_idx)
        )
        new_cols = [col[cur_take] for col in cur_cols]
        for a in private:
            new_cols.append(r_cols[r_attrs.index(a)][rel_take])
        cur_attrs = cur_attrs + private
        cur_cols = new_cols
        cur_rows = total

    decode_start = perf_counter() if stats is not None else 0.0
    if not cur_attrs:
        result = Relation((), [()] if cur_rows else [])
    else:
        code_rows = zip(*(col.tolist() for col in cur_cols))
        if identity:
            tuples: Iterable[tuple] = code_rows
        else:
            values = codec.values
            tuples = (tuple(values[c] for c in row) for row in code_rows)
        result = Relation(cur_attrs, tuples)
    if stats is not None:
        stats.record(
            "columnar_decode",
            scanned=cur_rows,
            emitted=len(result),
            seconds=perf_counter() - decode_start,
        )
    return result
