import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagrank import rankmin
from diagrank.gf2 import (
    DiagonalAssignment,
    Gf2Matrix,
    basis,
    complete_nondegenerate,
    rank,
    rank_rows,
    with_diagonal,
)
from diagrank.rankmin import (
    ORACLE_MAX_DIM,
    DecisionOutcome,
    OracleSizeError,
    RankBounds,
    min_rank_approx,
    min_rank_decide,
    min_rank_exact,
    min_rank_oracle,
    upper_bound_even_rows,
)
from helpers import (
    brute_force_min_rank,
    column_pivot_rank,
    planted_matrix,
    planted_noise_matrix,
    random_diagonal,
    random_matrix,
    span,
    span_rank,
)

ANTI = Gf2Matrix.from_rows([[0, 1], [1, 0]])

# two independent 2x2 blocks, so the minimum rank is exactly 2
TWO_BLOCKS = Gf2Matrix.from_rows(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
)


def off_diagonal_matrices(n):
    """All 2^(n^2-n) matrices with zero diagonal, in a fixed order."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((0, 1), repeat=len(cells)):
        rows = [0] * n
        for (i, j), b in zip(cells, bits):
            rows[i] |= b << j
        yield Gf2Matrix(n, tuple(rows))


# frozen examples --------------------------------------------------------------


def test_decide_antidiagonal():
    no = min_rank_decide(ANTI, 0)
    assert not no.is_yes and no.witness is None and no.decided_k == 0
    yes = min_rank_decide(ANTI, 1)
    assert yes.is_yes
    assert yes.witness.to_string() == "11"
    assert rank(with_diagonal(ANTI, yes.witness)) == 1


def test_decide_budget_at_least_n_is_trivial():
    out = min_rank_decide(ANTI, 2)
    assert out.is_yes and out.witness == ANTI.diagonal()
    assert min_rank_decide(Gf2Matrix.zero(0), 0).is_yes


def test_decide_zero_matrix():
    out = min_rank_decide(Gf2Matrix.zero(3), 0)
    assert out.is_yes and out.witness.to_string() == "000"


def test_decide_rejects_negative_budget():
    with pytest.raises(ValueError):
        min_rank_decide(ANTI, -1)


def test_approx_antidiagonal():
    bounds, witness = min_rank_approx(ANTI)
    assert (bounds.lower, bounds.upper) == (1, 2)
    assert witness.to_string() == "01"
    assert rank(with_diagonal(ANTI, witness)) == bounds.upper


def test_approx_zero_matrix():
    bounds, witness = min_rank_approx(Gf2Matrix.zero(2))
    assert (bounds.lower, bounds.upper) == (0, 0)
    assert witness.to_string() == "00"


def test_approx_identity_diagonal_fully_erasable():
    bounds, witness = min_rank_approx(Gf2Matrix.identity(2))
    assert (bounds.lower, bounds.upper) == (0, 0)
    assert witness.to_string() == "00"


def test_exact_antidiagonal_and_exhaustion():
    assert min_rank_exact(ANTI, 0) is None
    value, witness = min_rank_exact(ANTI, 2)
    assert value == 1 and witness.to_string() == "11"


def test_exact_zero_matrix_at_budget_zero():
    value, witness = min_rank_exact(Gf2Matrix.zero(2), 0)
    assert value == 0 and witness.to_string() == "00"


def test_exact_two_blocks():
    assert min_rank_exact(TWO_BLOCKS, 1) is None
    value, witness = min_rank_exact(TWO_BLOCKS, 4)
    assert value == 2
    assert rank(with_diagonal(TWO_BLOCKS, witness)) == 2


def test_exact_rejects_negative_cap():
    with pytest.raises(ValueError):
        min_rank_exact(ANTI, -1)


def test_oracle_antidiagonal():
    value, witness = min_rank_oracle(ANTI)
    assert value == 1 and witness.to_string() == "11"


def test_oracle_zero_and_empty():
    assert min_rank_oracle(Gf2Matrix.zero(3)) == (0, DiagonalAssignment.zeros(3))
    assert min_rank_oracle(Gf2Matrix.identity(3)) == (0, DiagonalAssignment.zeros(3))
    assert min_rank_oracle(Gf2Matrix.zero(0)) == (0, DiagonalAssignment.zeros(0))


def test_oracle_guard():
    assert ORACLE_MAX_DIM == 24
    with pytest.raises(OracleSizeError):
        min_rank_oracle(Gf2Matrix.zero(ORACLE_MAX_DIM + 1))


def test_upper_bound_examples():
    d = upper_bound_even_rows(ANTI)
    assert d.to_string() == "11"
    assert rank(with_diagonal(ANTI, d)) == 1  # hits n - 1 exactly here
    d = upper_bound_even_rows(Gf2Matrix.identity(3))
    assert d.to_string() == "000"
    assert rank(with_diagonal(Gf2Matrix.identity(3), d)) == 0
    assert upper_bound_even_rows(Gf2Matrix.zero(3)).to_string() == "000"
    assert upper_bound_even_rows(Gf2Matrix.zero(1)).to_string() == "0"
    with pytest.raises(ValueError):
        upper_bound_even_rows(Gf2Matrix.zero(0))


def test_result_type_validation():
    with pytest.raises(ValueError):
        RankBounds(2, 1)
    with pytest.raises(ValueError):
        RankBounds(-1, 0)
    assert DecisionOutcome(1, None).is_yes is False


# exhaustive agreement with the 2^n scan ---------------------------------------


def test_decide_matches_exhaustion_small():
    for n in (1, 2, 3):
        for m in off_diagonal_matrices(n):
            truth = brute_force_min_rank(m)
            for k in range(n + 1):
                out = min_rank_decide(m, k)
                assert out.is_yes == (truth <= k), (m.rows, k)
                if out.is_yes:
                    assert rank(with_diagonal(m, out.witness)) <= k


def test_decide_witness_is_first_in_canonical_order():
    # recompute the expected witness with an independent rank routine
    for m in off_diagonal_matrices(3):
        completed, d = complete_nondegenerate(m)
        for k in range(3):
            expected = None
            for size in range(k + 1):
                for flips in itertools.combinations(range(3), size):
                    w = d.complement().mask
                    for i in flips:
                        w ^= 1 << i
                    cand = DiagonalAssignment(3, w)
                    if span_rank(with_diagonal(m, cand)) <= k:
                        expected = cand
                        break
                if expected is not None:
                    break
            assert min_rank_decide(m, k).witness == expected


def test_oracle_matches_exhaustion_small():
    for n in (1, 2, 3):
        for m in off_diagonal_matrices(n):
            value, witness = min_rank_oracle(m)
            assert value == brute_force_min_rank(m)
            assert span_rank(with_diagonal(m, witness)) == value


def test_oracle_witness_is_lex_least():
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng, rng.randrange(1, 7))
        value, witness = min_rank_oracle(m)
        for bits in itertools.product((0, 1), repeat=m.n):
            cand = DiagonalAssignment.from_bits(bits)
            if span_rank(with_diagonal(m, cand)) == value:
                assert witness == cand  # first minimizer in lex order
                break


# randomized agreement ----------------------------------------------------------


def test_exact_matches_brute_force_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(1, 9)
        m = with_diagonal(random_matrix(rng, n), random_diagonal(rng, n))
        truth = brute_force_min_rank(m)
        value, witness = min_rank_exact(m, n)
        assert value == truth
        assert rank(with_diagonal(m, witness)) == truth
        oracle_value, _ = min_rank_oracle(m)
        assert oracle_value == truth


def test_approx_brackets_truth_random():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randrange(1, 9)
        m = random_matrix(rng, n, density=rng.choice((0.2, 0.5, 0.8)))
        bounds, witness = min_rank_approx(m)
        truth = brute_force_min_rank(m)
        assert bounds.lower <= truth <= bounds.upper
        assert bounds.upper <= 2 * max(truth, bounds.lower)
        assert rank(with_diagonal(m, witness)) == bounds.upper
        assert bounds.lower == (bounds.upper + 1) // 2


# shaped properties --------------------------------------------------------------


@st.composite
def matrices(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    return Gf2Matrix(n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n)))


@given(matrices(max_n=6))
def test_erased_completion_rank_halves(m):
    # no rewrite beats half the rank left after erasing the completed diagonal
    completed, _ = complete_nondegenerate(m)
    erased = with_diagonal(completed, completed.diagonal().complement())
    baseline = rank(erased)
    for bits in itertools.product((0, 1), repeat=m.n):
        d = DiagonalAssignment.from_bits(bits)
        assert 2 * rank(with_diagonal(m, d)) >= baseline


@given(matrices(), st.integers(0, 8))
def test_decide_ignores_input_diagonal(m, seed):
    rng = random.Random(seed)
    k = rng.randrange(m.n)
    other = with_diagonal(m, random_diagonal(rng, m.n))
    assert min_rank_decide(m, k) == min_rank_decide(other, k)
    assert min_rank_approx(m) == min_rank_approx(other)
    assert min_rank_oracle(m) == min_rank_oracle(other)
    assert upper_bound_even_rows(m) == upper_bound_even_rows(other)


@given(matrices())
def test_upper_bound_makes_rows_even_and_degenerate(m):
    d = upper_bound_even_rows(m)
    rewritten = with_diagonal(m, d)
    assert all(row.bit_count() % 2 == 0 for row in rewritten.rows)
    assert rank(rewritten) <= m.n - 1


@settings(max_examples=40)
@given(matrices(max_n=7), st.integers(0, 7))
def test_decide_consistent_with_exact(m, k):
    k = min(k, m.n)
    out = min_rank_decide(m, k)
    result = min_rank_exact(m, m.n)
    assert result is not None
    value, _ = result
    assert out.is_yes == (value <= k)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 64), st.integers(1, 3), st.randoms(use_true_random=False))
def test_exact_invariant_under_permutation_and_transpose(n, r, rnd):
    # planted U·Vᵀ: the minimum is at most r, so min_rank_exact(., r) finds it
    m = with_diagonal(planted_matrix(rnd, n, r), random_diagonal(rnd, n))
    value, witness = min_rank_exact(m, r)
    perm = list(range(n))
    rnd.shuffle(perm)
    # (P·M·Pᵀ)[i][j] = M[perm[i]][perm[j]]
    permuted = Gf2Matrix.from_rows([[m.entry(p, q) for q in perm] for p in perm])
    transposed = Gf2Matrix.from_rows([[m.entry(j, i) for j in range(n)] for i in range(n)])
    assert min_rank_exact(permuted, r)[0] == value
    assert min_rank_exact(transposed, r)[0] == value
    mapped = DiagonalAssignment.from_bits(witness.bits[p] for p in perm)
    assert column_pivot_rank(with_diagonal(permuted, mapped).rows, n) == value


# codeword-support bound -------------------------------------------------------


def transpose(rows, n):
    return [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]


def small_instances(seed, count):
    """Random and planted matrices with n < 12, alternately."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(1, 12)
        if i % 2:
            yield planted_matrix(rng, n, rng.randrange(1, 4))
        else:
            yield random_matrix(rng, n, rng.choice((0.1, 0.5, 0.9)))


def test_key_columns_of_a0_generate_its_column_space():
    # no basis row has a set bit below its key, so A0's columns at the keys
    # are u = rank(A0) independent columns of A0: they span its column space
    rng = random.Random(51)
    for i in range(200):
        n = rng.randrange(65) if i else 0
        if i % 2:
            m = planted_matrix(rng, n, rng.randrange(1, 4))
        else:
            m = random_matrix(rng, n, rng.choice((0.05, 0.5, 0.95)))
        _, erased, pivots = rankmin._erased_completion(m)
        u = len(pivots)
        assert u == column_pivot_rank(erased, n)
        columns = transpose(erased, n)
        assert column_pivot_rank([columns[j] for j in pivots], n) == u


def test_low_weight_support_matches_span():
    rng = random.Random(52)
    for _ in range(100):
        n = rng.randrange(1, 12)
        gens = list(basis([rng.getrandbits(n) for _ in range(n)]).values())
        words = span(gens) - {0}
        support = rankmin._low_weight_support(gens, n)
        for s in range(n + 1):
            expected = 0
            for w in words:
                if w.bit_count() <= s:
                    expected |= w
            assert support[s] == expected


def test_cheap_subsets_are_the_lex_ordered_affordable_ones():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randrange(9)
        costs = [rng.randrange(3) for _ in range(n)]
        for size in range(n + 1):
            for budget in range(-1, 2 * size + 1):
                expected = [
                    s
                    for s in itertools.combinations(range(n), size)
                    if sum(costs[i] for i in s) <= budget
                ]
                assert list(rankmin._cheap_subsets(costs, size, budget)) == expected
    # where no subset can exceed the budget, every one is yielded, in order
    for n in range(21):
        costs = [rng.randrange(3) for _ in range(n)]
        for size in range(n + 1):
            every = list(itertools.combinations(range(n), size))
            assert list(rankmin._cheap_subsets([0] * n, size, 0)) == every
            budget = 2 * size + rng.randrange(2)
            assert list(rankmin._cheap_subsets(costs, size, budget)) == every


def test_support_bound_on_every_small_flip_set():
    # rank(A0 + E_S) >= u + |S| - a_S - b_S, with a_S (b_S) the dimension of the
    # column (row) code of A0 supported inside S, at most the positions of S
    # on a nonzero codeword of weight <= |S|
    for m in small_instances(54, 100):
        n = m.n
        _, erased, pivots = rankmin._erased_completion(m)
        u = len(pivots)
        columns = transpose(erased, n)
        codes = [span(columns) - {0}, span(erased) - {0}]
        for s in range(min(3, n) + 1):
            covered = [0, 0]
            for c, words in enumerate(codes):
                for w in words:
                    if w.bit_count() <= s:
                        covered[c] |= w
            for flips in itertools.combinations(range(n), s):
                rest = [i for i in range(n) if i not in flips]
                a = u - column_pivot_rank([erased[i] for i in rest], n)
                b = u - column_pivot_rank([columns[i] for i in rest], n)
                rows = list(erased)
                for i in flips:
                    rows[i] ^= 1 << i
                assert column_pivot_rank(rows, n) >= u + s - a - b
                inside = sum(1 << i for i in flips)
                assert a <= (inside & covered[0]).bit_count()
                assert b <= (inside & covered[1]).bit_count()


def test_a_no_scores_exactly_the_flip_sets_the_bounds_leave(monkeypatch):
    # on a "no" the best stays k + 1, so the candidates are known in advance:
    # every size s from u - k to k, and from the first s with 2^u <= C(n, s)
    # on only the flip sets with at least u + s - k positions on codewords of
    # weight <= s, counted once per code
    scored = []
    erased = []

    def recording_rank_rows(rows, cap=None):
        scored.append(tuple(i for i, (a, b) in enumerate(zip(rows, erased)) if a != b))
        return rank_rows(rows, cap)

    monkeypatch.setattr(rankmin, "rank_rows", recording_rank_rows)
    rng = random.Random(57)
    nos = listed = 0
    for _ in range(60):
        n = rng.randrange(6, 17)
        m = planted_noise_matrix(rng, n, rng.randrange(1, 4), rng.randrange(3))
        _, erased[:], pivots = rankmin._erased_completion(m)
        u = len(pivots)
        codes = [span(transpose(erased, n)) - {0}, span(erased) - {0}]
        for k in range((u + 1) // 2, n):
            scored.clear()
            if min_rank_decide(m, k).is_yes:
                break
            nos += 1
            expected = []
            priced = False
            for s in range(max(u - k, 0), k + 1):
                covered = [0, 0]
                for c, words in enumerate(codes):
                    for w in words:
                        if w.bit_count() <= s:
                            covered[c] |= w
                priced = priced or 1 << u <= math.comb(n, s)
                listed += priced
                for flips in itertools.combinations(range(n), s):
                    inside = sum(1 << i for i in flips)
                    on_codewords = sum((inside & cover).bit_count() for cover in covered)
                    if not priced or on_codewords >= u + s - k:
                        expected.append(flips)
            assert scored == expected, (m.rows, k)
    assert nos >= 20 and listed >= 20


def test_planted_noise_exact_scores_few_flip_sets(monkeypatch):
    m = planted_noise_matrix(random.Random(55), 64, 3, 2)
    erased = rankmin._erased_completion(m)[1]
    caps = []
    bases = []

    def counting_rank_rows(rows, cap=None):
        caps.append(cap)
        return rank_rows(rows, cap)

    def recording_basis(rows, cap=None):
        bases.append(list(rows))
        return basis(bases[-1], cap)

    monkeypatch.setattr(rankmin, "rank_rows", counting_rank_rows)
    monkeypatch.setattr(rankmin, "basis", recording_basis)
    value, witness = min_rank_exact(m, 5)
    assert len(caps) <= 10  # the size-pruned sweep makes hundreds of thousands
    # one insertion of A0's rows gives its rank and both codes
    assert bases == [erased]
    assert column_pivot_rank(with_diagonal(m, witness).rows, 64) == value
    assert min_rank_approx(m)[0].lower <= value <= 5


def random_12_with_u_11():
    """A random 12 x 12 matrix whose erased completion has rank 11, so 2^u > C(12, s)."""
    rng = random.Random(56)
    return next(
        m
        for m in (random_matrix(rng, 12) for _ in range(100))
        if len(rankmin._erased_completion(m)[2]) == 11
    )


def test_no_codewords_listed_when_the_code_outnumbers_the_flip_sets(monkeypatch):
    walks = []
    listing = rankmin._low_weight_support

    def counting(gens, n):
        walks.append(len(gens))
        return listing(gens, n)

    monkeypatch.setattr(rankmin, "_low_weight_support", counting)
    m = random_12_with_u_11()
    for k in range(12):
        list(rankmin._flip_sweep(m, k))
    assert walks == []  # 2^11 > C(12, s) for every s
    planted = planted_noise_matrix(random.Random(55), 64, 3, 2)
    list(rankmin._flip_sweep(planted, 5))
    assert walks == [8, 8]  # both codes, once, for sizes 3 to 5


def test_every_walked_size_goes_through_the_priced_walk(monkeypatch):
    # before the codes are listed every position costs 0, so the one candidate
    # source walks every flip set of each size the floor leaves
    calls = []
    walk = rankmin._cheap_subsets

    def recording(costs, size, budget):
        calls.append((size, costs))
        return walk(costs, size, budget)

    monkeypatch.setattr(rankmin, "_cheap_subsets", recording)
    m = random_12_with_u_11()
    n, u = 12, 11
    walked = 0
    for k in range(n):
        calls.clear()
        improved = [(calls[-1][0], value) for value, _ in rankmin._flip_sweep(m, k)]
        best = k + 1
        expected = []
        for s in range(k + 1):
            if max(s, u - s) < best:
                expected.append(s)
                best = min([best] + [value for size, value in improved if size == s])
        assert [size for size, _ in calls] == expected, k
        assert all(costs == [0] * n for _, costs in calls)
        walked += len(expected)
    assert walked >= 6
