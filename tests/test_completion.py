import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from diagrank.completion import complete_nondegenerate, completed_rows
from diagrank.gf2 import Gf2Matrix, corner_minor, determinant, with_diagonal
from helpers import corner_minor_completion, random_diagonal, random_matrix

# worked examples, traced by hand -------------------------------------------


def test_zero_matrix_completes_to_identity():
    completed, d = complete_nondegenerate(Gf2Matrix.zero(2))
    assert completed == Gf2Matrix.identity(2)
    assert d.to_string() == "11"


def test_identity_is_already_complete():
    completed, d = complete_nondegenerate(Gf2Matrix.identity(2))
    assert completed == Gf2Matrix.identity(2)
    assert d.to_string() == "11"


def test_antidiagonal_example():
    m = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    completed, d = complete_nondegenerate(m)
    assert completed.to_lists() == [[1, 1], [1, 0]]
    assert d.to_string() == "10"


def test_single_cell():
    completed, d = complete_nondegenerate(Gf2Matrix.zero(1))
    assert completed.to_lists() == [[1]]
    assert d.to_string() == "1"


def test_empty_matrix():
    completed, d = complete_nondegenerate(Gf2Matrix.zero(0))
    assert completed.n == 0 and d.n == 0


# invariants -----------------------------------------------------------------


@st.composite
def matrices(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return Gf2Matrix(n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n)))


@given(matrices())
def test_every_corner_minor_is_one(m):
    completed, _ = complete_nondegenerate(m)
    assert determinant(completed) == 1
    for size in range(1, m.n + 1):
        assert corner_minor(completed, size) == 1


@given(matrices())
def test_only_the_diagonal_changes(m):
    completed, d = complete_nondegenerate(m)
    assert with_diagonal(m, d) == completed
    # off-diagonal cells carried over untouched
    for i in range(m.n):
        for j in range(m.n):
            if i != j:
                assert completed.entry(i, j) == m.entry(i, j)


@given(matrices())
def test_deterministic_and_diagonal_blind(m):
    completed, d = complete_nondegenerate(m)
    again, d2 = complete_nondegenerate(m)
    assert (completed, d) == (again, d2)
    # the input diagonal never enters the computation
    scrambled = with_diagonal(m, d.complement())
    assert complete_nondegenerate(scrambled) == (completed, d)


@given(matrices())
def test_completing_twice_is_stable(m):
    completed, d = complete_nondegenerate(m)
    assert complete_nondegenerate(completed) == (completed, d)


def test_larger_random_instances():
    rng = random.Random(11)
    for n in (16, 33, 64):
        m = random_matrix(rng, n)
        m = with_diagonal(m, random_diagonal(rng, n))
        completed, d = complete_nondegenerate(m)
        assert determinant(completed) == 1
        assert all(corner_minor(completed, s) == 1 for s in range(1, n + 1))
        assert with_diagonal(m, d) == completed


# the lazy producer -----------------------------------------------------------


def test_drained_rows_are_the_completion():
    rng = random.Random(12)
    for n in range(40):
        m = with_diagonal(random_matrix(rng, n), random_diagonal(rng, n))
        rows = tuple(completed_rows(m))
        assert rows == complete_nondegenerate(m)[0].rows == corner_minor_completion(m)[0].rows
        # a partial drain is a prefix: row i depends only on rows 0..i
        t = rng.randrange(n + 1)
        assert tuple(itertools.islice(completed_rows(m), t)) == rows[:t]

