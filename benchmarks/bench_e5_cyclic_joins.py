"""E5-cyclic — the AGM gap: worst-case optimal vs pairwise joins on cyclic
queries.

The tutorial's join-evaluation view of CSP (Proposition 2.1) inherits the
classical weakness of pairwise plans: on a *cyclic* body every binary join
order can materialize an intermediate polynomially larger than the output.
The Atserias–Grohe–Marx fractional-edge-cover bound caps the triangle
query's output at O(|E|^{3/2}), and Veldhuizen's leapfrog triejoin
(``execution="wcoj"``, :mod:`repro.relational.wcoj`) meets the bound by
joining variable-at-a-time.

Workload: the triangle query on the symmetric star graph with an embedded
triangle — the adversarial family of
``tests/relational/test_wcoj_adversarial.py``.  Any binary join of two
``E`` copies contains all Θ(n²) hub wedges, while the output is a constant
24 rows, so the materialized-intermediate ratio

    ratio(n) = indexed.total_intermediate / wcoj.total_intermediate

must grow **super-linearly**: asserted in-run as strictly increasing with
``ratio(2n) ≥ 2.3 · ratio(n)`` across n ∈ (8, 16, 32, 64) (the exact
doubling factor tends to 4 — quadratic vs constant).  Each size also
asserts exact agreement with the nested-loop scan oracle.  A second group
times 4-clique enumeration on random graphs, wcoj vs the pairwise
indexed execution, again oracle-checked.
"""

import pytest

from repro.relational.algebra import join_all
from repro.relational.relation import Relation
from repro.relational.stats import collect_stats
from repro.relational.wcoj import leapfrog_join

from benchmarks.conftest import fmt_row

SIZES = (8, 16, 32, 64)


def star_edges(n):
    """Symmetric star on hub 0 with leaves 1..n plus the triangle (1,2,3)."""
    edges = set()
    for i in range(1, n + 1):
        edges.add((0, i))
        edges.add((i, 0))
    for u, v in ((1, 2), (2, 3), (3, 1)):
        edges.add((u, v))
        edges.add((v, u))
    return edges


def triangle_relations(edges):
    return [
        Relation(("x", "y"), edges),
        Relation(("y", "z"), edges),
        Relation(("z", "x"), edges),
    ]


def _canon(rel):
    return {frozenset(zip(rel.attributes, t)) for t in rel.tuples}


def test_e5_cyclic_intermediate_ratio_grows_superlinearly():
    """The tentpole assertion: the pairwise/wcoj materialization ratio grows
    super-linearly in the star size — the AGM separation, measured."""
    ratios = []
    print()
    print(fmt_row("n", "|E|", "pairwise", "wcoj", "output", "ratio"))
    for n in SIZES:
        rels = triangle_relations(star_edges(n))
        oracle = join_all(rels, strategy="textbook+scan")
        with collect_stats() as pairwise:
            out_pairwise = join_all(rels, strategy="indexed")
        with collect_stats() as wcoj:
            out_wcoj = leapfrog_join(rels)
        assert _canon(out_pairwise) == _canon(oracle), f"indexed wrong at n={n}"
        assert _canon(out_wcoj) == _canon(oracle), f"wcoj wrong at n={n}"
        # wcoj never materializes anything but the output itself.
        assert wcoj.intermediate_sizes == [len(oracle)], f"n={n}"
        ratio = pairwise.total_intermediate / max(1, wcoj.total_intermediate)
        ratios.append(ratio)
        print(fmt_row(n, len(star_edges(n)), pairwise.total_intermediate,
                      wcoj.total_intermediate, len(oracle), f"{ratio:.1f}"))
    for small, big in zip(ratios, ratios[1:]):
        assert big > small, f"ratio not increasing: {ratios}"
        # Super-linear growth: doubling n multiplies the ratio by well over
        # a constant > 2 (the quadratic wedge set vs the constant output).
        assert big >= 2.3 * small, f"ratio growth sub-quadratic: {ratios}"


@pytest.mark.benchmark(group="E5-cyclic triangle")
@pytest.mark.parametrize("execution", ["wcoj", "indexed"])
def test_e5_triangle_timing(benchmark, execution):
    """Wall-clock on the n=32 star: the asymptotic gap in materialized rows
    shows up as time once the wedge set dominates."""
    rels = triangle_relations(star_edges(32))
    result = benchmark(lambda: join_all(rels, execution=execution))
    assert _canon(result) == _canon(join_all(rels, strategy="textbook+scan"))


@pytest.mark.benchmark(group="E5-cyclic 4-clique")
@pytest.mark.parametrize("execution", ["wcoj", "indexed"])
def test_e5_four_clique_timing(benchmark, execution):
    """K4 enumeration on a random symmetric graph — a denser cyclic body
    (six atoms, binomial edge distribution) than the star family."""
    import random

    from itertools import combinations

    rng = random.Random(5)
    n = 13
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.add((i, j))
                edges.add((j, i))
    names = ["a", "b", "c", "d"]
    rels = [
        Relation((names[i], names[j]), edges) for i, j in combinations(range(4), 2)
    ]
    result = benchmark(lambda: join_all(rels, execution=execution))
    assert _canon(result) == _canon(join_all(rels, strategy="textbook+scan"))
