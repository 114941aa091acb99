"""The single-pass completion and the one-sweep exact search, checked
against their slow paths (corner minors, one decision per budget) beyond
the sizes the brute-force oracle reaches."""

import random

import pytest

from diagrank.completion import complete_nondegenerate
from diagrank.gf2 import rank, with_diagonal
from diagrank.rankmin import min_rank_approx, min_rank_exact
from helpers import (
    corner_minor_completion,
    exact_by_decide,
    planted_matrix,
    random_diagonal,
    random_matrix,
    span_rank,
)

PLANTED = [(n, r) for r in (2, 3) for n in (64, 96, 128)]


def random_instances(seed, count, max_n):
    """The empty matrix, then random ones with n < max_n and a random diagonal."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(max_n) if i else 0
        m = random_matrix(rng, n, density=rng.choice((0.1, 0.5, 0.9)))
        yield rng, with_diagonal(m, random_diagonal(rng, n))


def test_completion_matches_corner_minors_random():
    for _, m in random_instances(31, 1000, 40):
        assert complete_nondegenerate(m) == corner_minor_completion(m)


@pytest.mark.parametrize("n,r", PLANTED)
def test_completion_matches_corner_minors_planted(n, r):
    m = planted_matrix(random.Random(n * 10 + r), n, r)
    assert complete_nondegenerate(m) == corner_minor_completion(m)


def test_exact_matches_decide_loop_every_cap():
    # every k_max up to n + 1, so caps at and beyond n are included
    for _, m in random_instances(32, 150, 10):
        for k_max in range(m.n + 2):
            assert min_rank_exact(m, k_max) == exact_by_decide(m, k_max), (m.rows, k_max)


def test_exact_matches_decide_loop_random_larger():
    for rng, m in random_instances(33, 40, 40):
        k_max = rng.randrange(3)
        assert min_rank_exact(m, k_max) == exact_by_decide(m, k_max), (m.rows, k_max)


@pytest.mark.parametrize("n,r", PLANTED)
def test_exact_matches_decide_loop_planted(n, r):
    m = planted_matrix(random.Random(n * 10 + r), n, r)
    result = min_rank_exact(m, r)
    assert result == exact_by_decide(m, r)
    value, witness = result
    assert rank(with_diagonal(m, witness)) == value
    assert span_rank(with_diagonal(m, witness)) == value
    assert min_rank_approx(m)[0].lower <= value <= r
