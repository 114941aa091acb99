"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict
lines.  This file takes about 12 s of pure Python, and the whole test
suite about 40 s (Python 3.11.7 on a shared 2-core x86 host).
"""

import random
import time

import pytest

from diagrank.generate import gen_random
from diagrank.gf2 import (
    DiagonalAssignment,
    Gf2Matrix,
    add,
    complete_nondegenerate,
    corner_minor,
    determinant,
    rank,
    with_diagonal,
)
from diagrank.hieroglyph import genus_approx, genus_decide, overlap_matrix, parse_hieroglyph
from diagrank.rankmin import (
    min_rank_approx,
    min_rank_decide,
    min_rank_oracle,
    upper_bound_even_rows,
)
from diagrank.cli import run_bench
from helpers import naive_overlap, random_hieroglyph, random_image

DENSITIES = (0.1, 0.3, 0.5, 0.9)


def _report(num: int, label: str) -> None:
    print(f"acceptance criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def corpus():
    """528 seeded instances, n 1..12 across four densities, with oracle values."""
    instances = []
    seed = 1000
    for n in range(1, 13):
        for density in DENSITIES:
            for _ in range(11):
                m = gen_random(n, density, seed)
                seed += 1
                value, _ = min_rank_oracle(m)
                instances.append((m, value))
    return instances


def test_criterion_1_decision_matches_oracle(corpus):
    assert len(corpus) >= 500
    for m, truth in corpus:
        for k in range(m.n + 1):
            out = min_rank_decide(m, k)
            assert out.is_yes == (truth <= k), (m.rows, k, truth)
            if out.is_yes:
                assert rank(with_diagonal(m, out.witness)) <= k
    _report(1, "fixed-budget decision matches the exhaustive oracle")


def test_criterion_2_factor_two_bracket(corpus):
    for m, truth in corpus:
        bounds, witness = min_rank_approx(m)
        assert bounds.lower == (bounds.upper + 1) // 2
        assert bounds.lower <= truth <= bounds.upper, (m.rows, truth, bounds)
        assert rank(with_diagonal(m, witness)) == bounds.upper
    _report(2, "factor-2 bracket always contains the true minimum")


def test_criterion_3_completion_is_nondegenerate():
    sizes = [1 + (i % 48) for i in range(96)] + [64, 96, 128, 160, 200, 200]
    rng = random.Random(3000)
    assert len(sizes) >= 100
    for idx, n in enumerate(sizes):
        m = gen_random(n, DENSITIES[idx % 4], 3000 + idx)
        # exercise arbitrary starting diagonals, not just the zero one
        m = with_diagonal(m, DiagonalAssignment(n, rng.getrandbits(n)))
        start = time.perf_counter()
        completed, d = complete_nondegenerate(m)
        elapsed = time.perf_counter() - start
        assert determinant(completed) == 1
        for size in range(1, n + 1):
            assert corner_minor(completed, size) == 1
        assert with_diagonal(m, d) == completed
        if n == 200:
            assert elapsed < 10.0, f"n=200 completion took {elapsed:.2f}s"
    _report(3, "completion reaches determinant 1 with every corner minor 1")


def test_criterion_4_rank_inequalities():
    rng = random.Random(4000)
    for _ in range(10_000):
        n = rng.randrange(1, 13)
        m = Gf2Matrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
        d = DiagonalAssignment(n, rng.getrandbits(n))
        assert rank(add(m, d.as_matrix())) >= rank(m) - d.weight()
    for _ in range(10_000):
        n = rng.randrange(1, 13)
        m = Gf2Matrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
        completed, _ = complete_nondegenerate(m)
        erased = rank(
            Gf2Matrix(n, tuple(row ^ (1 << i) for i, row in enumerate(completed.rows)))
        )
        mask = rng.getrandbits(n)
        flipped = Gf2Matrix(
            n, tuple(row ^ (mask & (1 << i)) for i, row in enumerate(completed.rows))
        )
        assert 2 * rank(flipped) >= erased
    _report(4, "rank-drop and half-rank inequalities hold on 10k pairs each")


def test_criterion_5_even_rows_bound():
    rng = random.Random(5000)
    checked = oracle_checked = 0
    for i in range(1000):
        n = 1 + (i % 30)
        m = Gf2Matrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
        d = upper_bound_even_rows(m)
        assert rank(with_diagonal(m, d)) <= n - 1
        checked += 1
        if n <= 12:
            value, _ = min_rank_oracle(m)
            assert value <= n - 1
            oracle_checked += 1
    assert checked >= 1000 and oracle_checked >= 300
    _report(5, "even-row-sum diagonal certifies rank <= n-1")


def test_criterion_6_overlap_pipeline():
    abab = overlap_matrix(parse_hieroglyph("abab"))
    assert abab.to_lists() == [[0, 1], [1, 0]]
    assert min_rank_oracle(abab)[0] == 1
    for word, n in (("aabb", 2), ("aabbcc", 3)):
        m = overlap_matrix(parse_hieroglyph(word))
        assert m == Gf2Matrix.zero(n)
        assert min_rank_oracle(m)[0] == 0

    rng = random.Random(6000)
    for _ in range(500):
        h = random_hieroglyph(rng, rng.randrange(1, 51))
        assert overlap_matrix(h).to_lists() == naive_overlap(h)

    for _ in range(40):
        h = random_hieroglyph(rng, rng.randrange(1, 9))
        genus = min_rank_oracle(overlap_matrix(h))[0]
        for _ in range(10):
            g = random_image(h, rng)
            assert min_rank_oracle(overlap_matrix(g))[0] == genus
            assert genus_decide(g, genus).is_yes
            if genus:
                assert not genus_decide(g, genus - 1).is_yes
            bounds = genus_approx(g)
            assert bounds.lower <= genus <= bounds.upper
    _report(6, "overlap construction and genus bounds survive symmetry")


def test_criterion_7_runtime_shape():
    decide_rows = run_bench("decide", [16, 32, 64], k=1, reps=7, seed=2024)
    decide_times = [r["median_seconds"] for r in decide_rows]
    for smaller, larger in zip(decide_times, decide_times[1:]):
        assert larger <= max(smaller, 1e-6) * 2**5.5, decide_times

    approx_rows = run_bench("approx", [64, 128, 256], k=1, reps=5, seed=2024)
    approx_times = [r["median_seconds"] for r in approx_rows]
    for smaller, larger in zip(approx_times, approx_times[1:]):
        assert larger <= max(smaller, 1e-6) * 2**4.5, approx_times
    _report(7, "decide and approx medians grow within the stated shapes")
