"""The Four-Russians window tables of `gf2._reduce_rows` change its work,
never its output: every basis (at every cap) and every completion equals
the lowest-bit loop's without tables (`helpers.plain_basis`,
`helpers.plain_completed_rows`, and corner minors), on both sides of the
window edges (n = W - 1 .. 2W + 1) and of the switch (tables come on
from 42 pivots, after a reduced row with 16 or more set bits), and the
caller's pivots are only read."""

import itertools
import random

import pytest

from diagrank import gf2
from diagrank.generate import gen_random
from diagrank.gf2 import W, Gf2Matrix, _reduce_rows, basis, completed_rows
from diagrank.hieroglyph import overlap_matrix
from diagrank.rankmin import (
    min_rank_approx,
    min_rank_decide,
    min_rank_exact,
    min_rank_oracle,
)
from helpers import (
    column_pivot_rank,
    corner_minor_completion,
    plain_basis,
    plain_completed_rows,
    planted_matrix,
    random_hieroglyph,
    random_matrix,
)

SIZES = (5, 6, 7, 12, 13, 64, 65, 130, 257)
FAMILIES = ("dense", "planted", "overlap", "hole", "stacked")


def family_matrix(family: str, n: int) -> Gf2Matrix:
    """One seeded n x n matrix of the family.

    dense: density 0.5, tables on from 42 rows; planted: U·Vᵀ of rank 3;
    overlap: a random word's interlacement matrix; hole: dense with
    column 0 zero, so key 0 is never a pivot and no window fills; stacked:
    dense rows over rows of rank 3, so tables come on in the dense half
    and go on serving the low-rank half.
    """
    rng = random.Random(f"{family}/{n}")
    if family == "dense":
        return random_matrix(rng, n)
    if family == "planted":
        return planted_matrix(rng, n, 3)
    if family == "overlap":
        return overlap_matrix(random_hieroglyph(rng, n))
    if family == "hole":
        return Gf2Matrix(n, tuple(row & ~1 for row in random_matrix(rng, n).rows))
    gens = [rng.getrandbits(n) for _ in range(3)]
    low = [gens[0] * (c & 1) ^ gens[1] * (c >> 1 & 1) ^ gens[2] * (c >> 2) for c in range(8)]
    dense = random_matrix(rng, n).rows[: (n + 1) // 2]
    return Gf2Matrix(n, dense + tuple(rng.choice(low) for _ in range(n - len(dense))))


@pytest.fixture
def tables_built(monkeypatch):
    """Records (start, len(pivots)) each time a window table is built."""
    built = []
    build = gf2._window_table

    def counting(pivots, start):
        built.append((start, len(pivots)))
        return build(pivots, start)

    monkeypatch.setattr(gf2, "_window_table", counting)
    return built


def assert_same_basis(got: dict[int, int], expected: dict[int, int]):
    assert list(got.items()) == list(expected.items())  # rows and insertion order


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_basis_at_every_cap_matches_the_plain_loop(family, n, tables_built):
    rows = family_matrix(family, n).rows
    rank = column_pivot_rank(rows, n)
    assert_same_basis(basis(rows), plain_basis(rows))
    assert len(basis(rows)) == rank
    for cap in range(rank + 1):
        unread, plain_unread = iter(rows), iter(rows)
        assert_same_basis(basis(unread, cap), plain_basis(plain_unread, cap))
        assert list(unread) == list(plain_unread)
    if family == "hole":
        assert tables_built == []
    if family in ("dense", "stacked") and n >= 130:
        assert tables_built and tables_built[0][1] < (n + 1) // 2  # on in the dense half


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_completion_matches_the_plain_loop_and_corner_minors(family, n, tables_built):
    m = family_matrix(family, n)
    rows = tuple(completed_rows(m))
    assert rows == tuple(plain_completed_rows(m)) == corner_minor_completion(m)[0].rows
    assert column_pivot_rank(rows, n) == n
    t = random.Random(n).randrange(n + 1)
    assert tuple(itertools.islice(completed_rows(m), t)) == rows[:t]
    if family == "dense" and n >= 130:
        assert tables_built


@pytest.mark.parametrize("start", (0, W, 2 * W))
def test_window_table_is_the_span_of_the_window_pivots(start):
    rng = random.Random(start)
    n = start + W + rng.randrange(3)  # the window ends at or near the top bit
    for _ in range(20):
        pivots = {key: (rng.getrandbits(n) >> key | 1) << key for key in range(n)}
        before = dict(pivots)
        table = gf2._window_table(pivots, start)
        assert list(pivots.items()) == list(before.items())  # only read
        window = [pivots[key] for key in range(start, start + W)]
        units = [table[1 << i] for i in range(W)]
        assert column_pivot_rank(window + units, n) == W  # the span of the window pivots
        assert len(table) == 1 << W
        for i, entry in enumerate(table):
            combo = 0
            for j, unit in enumerate(units):
                if i >> j & 1:
                    combo ^= unit
            assert entry == combo and entry >> start & gf2._MASK == i


class LoggedPivots(dict):
    """Pivots that log every key the lowest-bit loop looks up."""

    looked: list[int]

    def get(self, key, default=None):
        self.looked.append(key)
        return super().get(key, default)


def test_tabulated_keys_are_never_looked_up_again(tables_built):
    pivots = LoggedPivots()
    pivots.looked = []
    for row in _reduce_rows(random_matrix(random.Random(7), 192).rows, pivots):
        covered = tables_built[-1][0] + W if tables_built else 0
        assert all(key >= covered for key in pivots.looked)
        pivots.looked.clear()
        if row:
            pivots[(row & -row).bit_length() - 1] = row
    assert len(tables_built) > 10


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_span_listing_leaves_the_tables_of_a_dense_rank(seed, tables_built):
    # the insertion loop without the listing, on the same reduction generator
    rows = gen_random(256, 0.5, seed).rows
    pivots: dict[int, int] = {}
    for row in _reduce_rows(rows, pivots):
        if row:
            pivots[(row & -row).bit_length() - 1] = row
    expected, tables_built[:] = tables_built[:], []
    assert gf2.rank_rows(rows) == len(pivots)
    assert tables_built == expected
    assert len(expected) >= 30


def test_dense_approximations_switch_tables_on(tables_built):
    for seed in (1, 2, 3):
        min_rank_approx(gen_random(192, 0.5, seed))
        assert tables_built
        assert all(size >= gf2._SWITCH for _, size in tables_built)
        tables_built.clear()
    # at n = 64 no row checked once there are 42 pivots keeps 16 set bits at
    # this seed: a completion row reduced by 41 pivots has 23 columns left
    min_rank_approx(gen_random(64, 0.5, 1))
    assert tables_built == []


def test_sparse_reductions_build_no_table(tables_built):
    rng = random.Random(128)
    for _ in range(3):
        min_rank_exact(planted_matrix(rng, 128, 2), 2)
    min_rank_oracle(gen_random(12, 0.5, 1))
    # dense rows, but a decide at k = 2 reads too few rows to reach 42 pivots
    for n in (96, 128):
        min_rank_decide(gen_random(n, 0.5, 1), 2)
    # a permutation keeps every pivot, each a single bit
    perm = random.Random(256).sample(range(256), 256)
    min_rank_approx(Gf2Matrix(256, tuple(1 << j for j in perm)))
    # rows e_i + e_256 keep every pivot and reach far past them, but stay sparse
    gf2.rank(Gf2Matrix(257, tuple(1 << i | 1 << 256 for i in range(257))))
    assert tables_built == []
