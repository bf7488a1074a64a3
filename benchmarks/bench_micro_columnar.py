"""Micro-benchmarks guarding the columnar propagation engine.

**dense-AC revisions (E4's dense regime)** — arc-consistency propagation
on dense large-domain instances, engines prebuilt as MAC/SAC reuse them
(one engine serves thousands of propagations in search, so construction
amortizes away; ``bench_e4_consistency.py`` covers the cold path).  A
bitset revision walks the partner's values one at a time; the columnar
constraint answers every candidate with one sweep over a packed matrix
of 64-bit words.  The guard asserts **≥5× wall-clock** over the
``interned`` bitset engine — measured about 6× on this family.

The guard requires numpy (the vectorized backend); without it the
columnar engine is the interned engine, which matches results but not
wall-clock, so the ratio assertion skips and only the parity check runs.
"""

import time
from functools import lru_cache

import pytest

from repro.consistency.propagation import PropagationStats, make_engine
from repro.generators.csp_random import random_binary_csp

try:
    import numpy
except ImportError:
    numpy = None

# -- dense-AC workload (E4's dense regime) ------------------------------------
DENSE_INSTANCES_SPEC = [(384, 0), (768, 1)]


@lru_cache(maxsize=1)
def _dense_instances():
    return [
        random_binary_csp(
            n_variables=6, domain_size=d, n_constraints=10, tightness=0.5, seed=s
        )
        for d, s in DENSE_INSTANCES_SPEC
    ]


@lru_cache(maxsize=4)
def _dense_engines(strategy: str):
    return [make_engine(inst, strategy) for inst in _dense_instances()]


def _propagate(engine):
    domains = engine.fresh_domains()
    engine.propagate(domains, None, PropagationStats())
    return domains


def _best_of(fn, rounds=9):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- parity (always runs, numpy or not) ---------------------------------------


def test_columnar_matches_the_interned_engine_on_dense_ac():
    """The honesty floor under the ratio below: the AC fixpoints of the
    columnar engine equal the interned engine's, so the ratio compares two
    kernels computing the same closure."""
    for ei, ec in zip(_dense_engines("interned"), _dense_engines("columnar")):
        assert _propagate(ei) == _propagate(ec)


# -- dense-AC ratios (the ≥5× acceptance criterion) ----------------------------


@pytest.mark.benchmark(group="micro columnar: dense AC")
@pytest.mark.parametrize("strategy", ["interned", "columnar"])
def test_micro_dense_ac_propagation(benchmark, strategy):
    engines = _dense_engines(strategy)
    domains = benchmark(lambda: [_propagate(e) for e in engines])
    assert len(domains) == len(engines)


def test_micro_columnar_revise_beats_interned_5x_on_dense_ac():
    """≥5× wall-clock over the ``interned`` bitset engine on a dense E4
    workload.  Engines are prebuilt (the MAC/SAC steady state);
    the timed quantity is propagation to the AC fixpoint, which is pure
    revise-kernel work.  Measured about 6× on this family."""
    if numpy is None:
        pytest.skip("wall-clock ratio requires the numpy backend")
    interned_engines = _dense_engines("interned")
    columnar_engines = _dense_engines("columnar")
    # Fixpoint identity first — a fast kernel computing the wrong closure
    # would make the ratio meaningless.
    for ei, ec in zip(interned_engines, columnar_engines):
        assert _propagate(ei) == _propagate(ec)
    interned = sum(
        _best_of(lambda e=e: _propagate(e)) for e in interned_engines
    )
    columnar = sum(
        _best_of(lambda e=e: _propagate(e)) for e in columnar_engines
    )
    assert columnar * 5.0 < interned, (
        f"columnar revise ratio fell under the 5x floor: "
        f"{columnar * 1e3:.2f}ms vs interned {interned * 1e3:.2f}ms "
        f"({interned / columnar:.2f}x)"
    )
