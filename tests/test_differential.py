"""The single-pass completion, the pruned one-sweep search and the
oracle's prefix walk, checked against their slow paths (corner minors,
one decision per budget, the sweep without pruning, the sweep pruned by
size alone and one elimination per rewrite), the search checked
against the oracle past the sizes the span-enumerating references reach,
and both checked against the inverse formula, which shares no code with
either."""

import itertools
import random

import pytest

from diagrank import rankmin
from diagrank.generate import gen_random
from diagrank.gf2 import (
    Gf2Matrix,
    complete_nondegenerate,
    completed_rows,
    rank,
    rank_rows,
    with_diagonal,
)
from diagrank.hieroglyph import Hieroglyph, overlap_matrix
from diagrank.rankmin import min_rank_approx, min_rank_decide, min_rank_exact, min_rank_oracle
from helpers import (
    corner_minor_completion,
    exact_by_decide,
    inverse_formula_min_rank,
    naive_overlap,
    planted_matrix,
    planted_noise_matrix,
    product_oracle,
    random_diagonal,
    random_hieroglyph,
    random_matrix,
    size_pruned_flip_sweep,
    span_rank,
    unpruned_flip_sweep,
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


def decision_and_exact(results):
    """(decision witness or None, exact result or None) of a sweep's yields."""
    if not results:
        return None, None
    return results[0][1], results[-1]


def test_pruned_sweep_matches_unpruned_every_budget():
    for _, m in random_instances(34, 300, 10):
        for k in range(m.n + 2):
            results = list(unpruned_flip_sweep(m, k))
            assert list(rankmin._flip_sweep(m, k)) == results, (m.rows, k)
            assert list(size_pruned_flip_sweep(m, k)) == results, (m.rows, k)
            witness, exact = decision_and_exact(results)
            if k < m.n:  # k >= n is decided yes without a sweep
                assert min_rank_decide(m, k).witness == witness, (m.rows, k)
            assert min_rank_exact(m, k) == exact, (m.rows, k)


def assert_sweep_matches_size_pruned(m, k_max):
    """Every yield, witnesses included, equals the reference's at each k <= k_max."""
    for k in range(k_max + 1):
        assert list(rankmin._flip_sweep(m, k)) == list(size_pruned_flip_sweep(m, k)), k


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_sweep_matches_size_pruned_planted(n, r):
    assert_sweep_matches_size_pruned(planted_matrix(random.Random(n * 10 + r), n, r), r + 1)


NOISY = [(48, 2, 2), (64, 2, 2), (32, 3, 2)]


@pytest.mark.parametrize("n,r,t", NOISY)
def test_sweep_matches_size_pruned_planted_noise(n, r, t):
    m = planted_noise_matrix(random.Random(n * 100 + r * 10 + t), n, r, t)
    assert_sweep_matches_size_pruned(m, r + t + 1)


def test_exact_value_is_the_witness_rank_every_cap():
    # the sweep's value is the rank of the rows that earned the witness:
    # the CLI reports it unchecked
    instances = [m for _, m in random_instances(35, 60, 13)]
    instances += [planted_matrix(random.Random(n * 10 + r), n, r) for n, r in PLANTED]
    instances += [
        planted_noise_matrix(random.Random(n * 100 + r * 10 + t), n, r, t) for n, r, t in NOISY
    ]
    for m in instances:
        for k_max in range(m.n + 1):
            result = min_rank_exact(m, k_max)
            if result is not None:
                value, witness = result
                assert value == rank(with_diagonal(m, witness)), (m.rows, k_max)


def planted_sweep_instances():
    """(matrix, k_max): the planted and planted+noise instances above."""
    for n in (16, 32, 64):
        for r in (1, 2, 3):
            yield planted_matrix(random.Random(n * 10 + r), n, r), r + 1
    for n, r in PLANTED:
        yield planted_matrix(random.Random(n * 10 + r), n, r), r + 1
    for n, r, t in NOISY:
        yield planted_noise_matrix(random.Random(n * 100 + r * 10 + t), n, r, t), r + t + 1


def test_sweep_leaves_a_size_once_an_improvement_reaches_its_floor(monkeypatch):
    # every flip set of size s has value >= max(s, u - s), so once a yield
    # reaches that floor no other flip set of size s is worth scoring: the
    # next thing the sweep does is start the walk of a larger size, whose
    # root reduces all of A0's rows, or end
    events = []
    erased = []
    reduce_rows = rankmin._reduce_rows

    def recording_rank_rows(rows, cap=None):
        events.append("leaf")
        return rank_rows(rows, cap)

    def recording_reduce_rows(rows, pivots):
        if rows == erased:
            events.append("size")
        return reduce_rows(rows, pivots)

    monkeypatch.setattr(rankmin, "rank_rows", recording_rank_rows)
    monkeypatch.setattr(rankmin, "_reduce_rows", recording_reduce_rows)
    sweeps = exits = 0
    for m, k_max in planted_sweep_instances():
        erased[:], pivots = rankmin._erased_completion(m)
        u = len(pivots)
        diagonal = sum(row & 1 << i for i, row in enumerate(erased))
        for k in range(k_max + 1):
            events.clear()
            floors = []  # the number of events at each yield on its floor
            for value, witness in rankmin._flip_sweep(m, k):
                size = (witness.mask ^ diagonal).bit_count()
                if value == max(size, u - size):
                    floors.append(len(events))
            sweeps += 1
            exits += bool(floors)
            assert events.count("leaf") >= len(floors)
            for done in floors:
                assert events[done : done + 1] in ([], ["size"]), (m.rows, k)
    assert sweeps == 82 and exits >= 30  # 36 sweeps yield on a floor


def block_word(rng, sizes):
    """Concatenated random words on disjoint alphabets of the given sizes.

    Letters of different blocks do not interlace, so the overlap matrix
    is block diagonal and its erased completion has low rank.
    """
    word = []
    for b, size in enumerate(sizes):
        letters = [f"b{b}x{i}" for i in range(size)] * 2
        rng.shuffle(letters)
        word += letters
    return Hieroglyph(tuple(word))


def test_sweep_matches_size_pruned_overlap_matrices():
    # symmetric, so the column and row codes are the same code
    rng = random.Random(36)
    for _ in range(40):
        sizes = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 6))]
        m = overlap_matrix(block_word(rng, sizes))
        assert_sweep_matches_size_pruned(m, min(m.n, 6))


@pytest.mark.parametrize("n", [11, 12])
def test_sweep_matches_size_pruned_where_the_prefix_rank_prunes(n):
    # the reference prunes by the floor alone; on these matrices the walk
    # scores 2 to 15 times fewer flip sets, by codeword costs and by prefix
    # ranks that already reach the best
    for seed in (1, 2, 3):
        instances = [gen_random(n, density, seed) for density in (0.5, 0.1, 0.2)]
        instances.append(overlap_matrix(random_hieroglyph(random.Random(seed), n)))
        for m in instances:
            assert_sweep_matches_size_pruned(m, n)


@pytest.mark.parametrize("n,r", PLANTED)
def test_pruned_sweep_matches_unpruned_planted(n, r):
    m = planted_matrix(random.Random(n * 10 + r), n, r)
    for k in range(r + 1):
        witness, exact = decision_and_exact(list(unpruned_flip_sweep(m, k)))
        assert min_rank_decide(m, k).witness == witness, k
        assert min_rank_exact(m, k) == exact, k


def test_decide_below_half_the_bound_tries_no_flip_set(monkeypatch):
    m = random_matrix(random.Random(35), 64)
    k = (min_rank_approx(m)[0].upper + 1) // 2 - 1
    caps = []

    def counting_rank_rows(rows, cap=None):
        caps.append(cap)
        return rank_rows(rows, cap)

    monkeypatch.setattr(rankmin, "rank_rows", counting_rank_rows)
    assert not min_rank_decide(m, k).is_yes
    assert caps == []  # the rank of the erased completion comes from its basis


def boundary_instances():
    """Every matrix with n <= 2, then random, planted, planted+noise and
    overlap matrices small enough for the unpruned sweep."""
    for n in range(3):
        for bits in range(1 << n * n):
            yield Gf2Matrix(n, tuple(bits >> i * n & (1 << n) - 1 for i in range(n)))
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randrange(3, 11)
        m = random_matrix(rng, n, density=rng.choice((0.1, 0.5, 0.9)))
        yield with_diagonal(m, random_diagonal(rng, n))
    for n, r in ((16, 1), (24, 2), (32, 2), (20, 3)):
        yield planted_matrix(random.Random(n * 10 + r), n, r)
    for n, r, t in ((12, 1, 1), (16, 2, 1), (16, 1, 2), (20, 2, 2)):
        yield planted_noise_matrix(random.Random(n * 100 + r * 10 + t), n, r, t)
    for n in range(1, 11):
        yield overlap_matrix(random_hieroglyph(rng, n))


def test_decide_and_exact_at_the_cap_boundary():
    # a sweep at budget k completes A0 only until its rank passes 2k, so
    # k = ceil(u/2) - 1 is the largest budget answered from a prefix of A0
    # and k = ceil(u/2) the smallest that completes in full
    tight = {0: 0, 1: 0}  # budgets with u = 2k, u = 2k + 1
    for m in boundary_instances():
        u = min_rank_approx(m)[0].upper
        for k in range(max((u + 1) // 2 - 1, 0), (u + 1) // 2 + 1):
            if u - 2 * k in tight:
                tight[u - 2 * k] += 1
            witness, exact = decision_and_exact(list(unpruned_flip_sweep(m, k)))
            if k < m.n:  # k >= n is decided yes without a sweep
                assert min_rank_decide(m, k).witness == witness, (m.rows, k)
            assert min_rank_exact(m, k) == exact == exact_by_decide(m, k), (m.rows, k)
    assert min(tight.values()) >= 30


LAZY_NOS = [("random", 128, s, 2) for s in (1, 2, 3, 7)] + [
    ("noise", (96, 2, 3), 9623, 2),  # u = 7: rank 5 first at 17 rows
    ("noise", (96, 2, 3), 9623, 3),  # rank 7 first at 75 rows
    ("noise", (64, 3, 2), 6432, 3),  # u = 8: rank 7 first at 18 rows
]


@pytest.mark.parametrize("family,size,seed,k", LAZY_NOS)
def test_a_no_completes_only_the_rows_it_needs(monkeypatch, family, size, seed, k):
    # k < ceil(u/2) is a "no" once rank(A0) passes 2k, so the completion
    # stops at the first t rows of A0 of rank 2k + 1
    if family == "random":
        m = gen_random(size, 0.5, seed)
    else:
        m = planted_noise_matrix(random.Random(seed), *size)
    completed, _ = complete_nondegenerate(m)
    erased = [row ^ (1 << i) for i, row in enumerate(completed.rows)]
    t = next(t for t in range(m.n + 1) if rank_rows(erased[:t]) == 2 * k + 1)
    pulled = []

    def counting_completed_rows(m):
        for row in completed_rows(m):
            pulled.append(row)
            yield row

    monkeypatch.setattr(rankmin, "completed_rows", counting_completed_rows)
    assert not min_rank_decide(m, k).is_yes
    assert pulled == list(completed.rows[:t]) and t < m.n
    pulled.clear()
    assert min_rank_exact(m, k) is None
    assert len(pulled) == t
    pulled.clear()
    min_rank_approx(m)  # the factor-2 bracket needs all of A0
    assert len(pulled) == m.n


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.8])
def test_oracle_walk_matches_product_loop_random(density):
    rng = random.Random(int(density * 10))
    for n in range(14):  # n = 0, the empty product, up to 13
        for _ in range(2):
            m = random_matrix(rng, n, density)
            assert min_rank_oracle(m) == product_oracle(m), m.rows


def test_oracle_walk_matches_product_loop_words_and_planted():
    rng = random.Random(39)
    instances = [overlap_matrix(random_hieroglyph(rng, n)) for n in range(1, 14) for _ in range(2)]
    instances += [
        planted_noise_matrix(rng, n, r, t)
        for n, r, t in ((6, 1, 1), (8, 1, 2), (10, 2, 1), (12, 2, 2), (13, 3, 1), (13, 1, 3))
    ]
    for m in instances:
        assert min_rank_oracle(m) == product_oracle(m), m.rows


def exact_check_instances():
    """Three seeds each of n = 14 and 16 dense, density 0.1 and 0.2, and word overlap matrices."""
    for n in (14, 16):
        for seed in (1, 2, 3):
            for density in (0.1, 0.2, 0.5):
                yield gen_random(n, density, seed)
            yield overlap_matrix(random_hieroglyph(random.Random(seed), n))


def test_exact_matches_the_oracle_past_n_12():
    for m in exact_check_instances():
        value, witness = min_rank_exact(m, m.n)
        assert value == min_rank_oracle(m)[0], m.rows
        assert rank(with_diagonal(m, witness)) == value, m.rows


def test_inverse_formula_matches_oracle_and_exact():
    # a reference with its own inverse and ranks, sharing no library code
    rng = random.Random(61)
    for n, _ in itertools.product(range(1, 11), range(3)):
        family = [random_matrix(rng, n, density) for density in (0.5, 0.1, 0.2)]
        family.append(Gf2Matrix.from_rows(naive_overlap(random_hieroglyph(rng, n))))
        family.append(planted_matrix(rng, n, rng.randint(1, 3)))
        for m in family:
            value = inverse_formula_min_rank(m)
            assert value == min_rank_oracle(m)[0] == min_rank_exact(m, m.n)[0], m
