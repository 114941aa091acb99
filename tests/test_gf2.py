import functools
import json
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagrank.generate import gen_random
from diagrank.gf2 import (
    W,
    DiagonalAssignment,
    Gf2Matrix,
    MatrixFormatError,
    add,
    basis,
    complete_nondegenerate,
    corner_minor,
    determinant,
    parse_matrix,
    rank,
    rank_rows,
    render_matrix,
    with_diagonal,
)
from diagrank.hieroglyph import overlap_matrix
from helpers import (
    column_pivot_rank,
    line_scan_parse,
    plain_basis,
    planted_matrix,
    random_diagonal,
    random_hieroglyph,
    random_matrix,
    span_rank,
)

CAPS = (None, 0, 1, 2, 3, 4)


@st.composite
def matrices(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return Gf2Matrix(n, rows)


@st.composite
def matrix_pairs(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    mk = lambda: Gf2Matrix(n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n)))
    return mk(), mk()


# construction ---------------------------------------------------------------


def test_from_rows_round_trip():
    m = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    assert m.to_lists() == [[0, 1], [1, 0]]
    assert m.entry(0, 1) == 1 and m.entry(1, 1) == 0


def test_from_rows_rejects_ragged_and_nonbits():
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows([[0, 1], [1]])
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows([[0, 2], [1, 0]])
    with pytest.raises(ValueError, match="is not a bit"):
        Gf2Matrix.from_rows([[1.0]])
    assert Gf2Matrix.from_rows([[True]]).rows == (1,)


def test_padding_bits_rejected():
    for rows in ((0b100, 0), (1.0, 0), (0, "1")):
        with pytest.raises(ValueError, match="outside columns"):
            Gf2Matrix(2, rows)
    assert Gf2Matrix(2, (True, False)).rows == (1, 0)
    with pytest.raises(ValueError):
        Gf2Matrix(2, (0,))
    with pytest.raises(ValueError):
        Gf2Matrix(-1, ())
    with pytest.raises(ValueError, match=r"^dimension 1\.0 is not an integer$"):
        Gf2Matrix(1.0, (1,))
    assert Gf2Matrix(True, (1,)).n == 1


def test_rows_are_stored_as_a_tuple():
    m = Gf2Matrix(2, [0, 1])
    assert type(m.rows) is tuple
    assert m == Gf2Matrix(2, (0, 1)) and hash(m) == hash(Gf2Matrix(2, (0, 1)))


def test_diagonal_assignment_validation():
    assert DiagonalAssignment.from_string("0110").bits == (0, 1, 1, 0)
    assert DiagonalAssignment.from_bits([1, 0]).to_string() == "10"
    assert DiagonalAssignment.ones(3).weight() == 3
    assert DiagonalAssignment.zeros(0).to_string() == ""
    for mask in (0b100, 1.0):
        with pytest.raises(ValueError, match="outside positions"):
            DiagonalAssignment(2, mask)
    assert DiagonalAssignment(2, True).to_string() == "10"
    with pytest.raises(ValueError):
        DiagonalAssignment.from_string("012")
    with pytest.raises(ValueError):
        DiagonalAssignment(-1, 0)
    with pytest.raises(ValueError, match=r"^dimension 1\.5 is not an integer$"):
        DiagonalAssignment(1.5, 0)
    assert DiagonalAssignment(True, 1).to_string() == "1"
    for bits in ([2], [1.0]):
        with pytest.raises(ValueError, match="is not a bit"):
            DiagonalAssignment.from_bits(bits)
    assert DiagonalAssignment.from_bits([True, False]).to_string() == "10"


def test_diagonal_as_matrix():
    d = DiagonalAssignment.from_string("101")
    assert d.as_matrix().to_lists() == [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    assert rank(d.as_matrix()) == d.weight() == 2


# rank / determinant / minors ------------------------------------------------


def test_rank_trivial_cases():
    assert rank(Gf2Matrix.zero(4)) == 0
    assert rank(Gf2Matrix.identity(5)) == 5
    assert rank(Gf2Matrix.zero(0)) == 0


def test_rank_dependent_rows():
    # both rows equal: one-dimensional span
    m = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    assert rank(m) == 1
    assert span_rank(m) == 1


def test_determinant_trivial_cases():
    assert determinant(Gf2Matrix.identity(3)) == 1
    assert determinant(Gf2Matrix.zero(1)) == 0
    assert determinant(Gf2Matrix.zero(0)) == 1  # empty product


def test_determinant_2x2():
    # ad + bc = 1*0 + 1*1
    assert determinant(Gf2Matrix.from_rows([[1, 1], [1, 0]])) == 1
    assert determinant(Gf2Matrix.from_rows([[1, 1], [1, 1]])) == 0


def test_corner_minor_examples():
    assert corner_minor(Gf2Matrix.identity(3), 2) == 1
    assert corner_minor(Gf2Matrix.zero(3), 1) == 0
    assert corner_minor(Gf2Matrix.from_rows([[1, 1], [1, 0]]), 2) == 1


def test_corner_minor_range_checked():
    m = Gf2Matrix.identity(3)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            corner_minor(m, bad)


def test_rank_does_not_mutate():
    m = Gf2Matrix.from_rows([[1, 1], [1, 0]])
    before = m.rows
    rank(m)
    determinant(m)
    assert m.rows == before


# rank_rows and basis against the column-pivot elimination ----------------------


def row_lists(rng, count):
    """(rows, n): the empty list, then lists shorter or longer than n, some
    spanned by a few rows (low rank), with duplicate rows mixed in."""
    yield [], 0
    yield [], 5
    for _ in range(count):
        n = rng.randrange(1, 24)
        length = rng.randrange(2 * n + 2)
        if rng.random() < 0.5:
            rows = [rng.getrandbits(n) for _ in range(length)]
        else:
            basis = [rng.getrandbits(n) for _ in range(rng.randrange(1, 5))]
            rows = [
                functools.reduce(operator.xor, rng.sample(basis, rng.randrange(len(basis) + 1)), 0)
                for _ in range(length)
            ]
        if rows:
            rows += rng.choices(rows, k=rng.randrange(1, 4))
            rng.shuffle(rows)
        yield rows, n


def test_rank_rows_matches_column_pivot_random():
    for rows, n in row_lists(random.Random(11), 400):
        before = list(rows)
        for cap in CAPS:
            expected = column_pivot_rank(rows, n, cap)  # cap + 1 once the rank exceeds cap
            assert rank_rows(rows, cap) == expected, (rows, n, cap)
            pivots = basis(rows, cap)
            assert len(pivots) == expected, (rows, n, cap)
            assert all(row & -row == 1 << key for key, row in pivots.items()), (rows, cap)
        assert column_pivot_rank(rows + list(basis(rows).values()), n) == len(basis(rows))
        assert rows == before  # the argument is only read


@pytest.mark.parametrize("n", (64, 128, 256))
def test_rank_rows_matches_column_pivot_planted(n):
    rng = random.Random(n)
    m = planted_matrix(rng, n, 3)
    for rows in (m.rows, with_diagonal(m, random_diagonal(rng, n)).rows):
        for cap in CAPS:
            assert rank_rows(rows, cap) == column_pivot_rank(rows, n, cap), cap


def test_rank_rows_stops_reading_past_cap():
    rows = iter([1, 1, 2, 3, 4, 8])
    assert rank_rows(rows, cap=1) == 2
    assert list(rows) == [3, 4, 8]
    rows = iter([0, 5, 5, 6])
    assert rank_rows(rows, cap=3) == 2
    assert list(rows) == []
    rows = iter([1, 1, 2, 3, 4, 8])
    assert basis(rows, cap=1) == {0: 1, 1: 2}
    assert list(rows) == [3, 4, 8]
    rows = iter([0, 5, 5, 6])
    assert basis(rows, cap=3) == {0: 5, 1: 6}
    assert list(rows) == []


# basis against the plain insertion loop on low-rank sets -----------------------


def independent_rows(rng, n: int, r: int) -> list[int]:
    """r random n-bit rows of rank r."""
    while True:
        gens = [rng.getrandbits(n) for _ in range(r)]
        if len(plain_basis(gens)) == r:
            return gens


def low_rank_rows(rng, n: int, r: int, length: int) -> list[int]:
    """The r generators and ``length`` - r random XOR combinations of
    them, plus 3 zero rows and 5 repeated rows, shuffled: rank r."""
    gens = independent_rows(rng, n, r)
    rows = gens + [
        functools.reduce(operator.xor, (g for g in gens if rng.random() < 0.5), 0)
        for _ in range(length - r)
    ]
    rows += [0] * 3 + rng.choices(rows, k=5)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("n", (8, 64, 130))
@pytest.mark.parametrize("r", (W - 1, W, W + 1, 2 * W))
def test_basis_equals_plain_basis_on_low_rank_sets(n, r):
    # rows collapsing onto few pivots, around one window's W: same rows,
    # same insertion order, and at every cap the same rows left unread
    r = min(r, n)
    rng = random.Random(f"{n}/{r}")
    for length in (r, 2 * r + 1, 4 * n):
        rows = low_rank_rows(rng, n, r, length)
        assert len(plain_basis(rows)) == r
        for cap in (None, *range(r + 2)):
            got_rest, expected_rest = iter(rows), iter(rows)
            got = basis(got_rest, cap)
            expected = plain_basis(expected_rest, cap)
            assert list(got.items()) == list(expected.items()), (length, cap)
            assert list(got_rest) == list(expected_rest), (length, cap)
            assert rank_rows(rows, cap) == len(expected)


@settings(max_examples=200)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=W + 2),
            st.lists(st.integers(0, (1 << (W + 2)) - 1), max_size=40),
        )
    ),
    st.one_of(st.none(), st.integers(0, W + 3)),
)
def test_basis_equals_plain_basis_on_small_low_rank_sets(case, cap):
    _, gens, picks = case
    rows = [
        functools.reduce(operator.xor, (g for i, g in enumerate(gens) if pick >> i & 1), 0)
        for pick in picks
    ]
    got_rest, expected_rest = iter(rows), iter(rows)
    assert list(basis(got_rest, cap).items()) == list(plain_basis(expected_rest, cap).items())
    assert list(got_rest) == list(expected_rest)


# add / with_diagonal ----------------------------------------------------------


def test_add_identity_and_self_cancellation():
    m = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    assert add(m, Gf2Matrix.zero(2)) == m
    i2 = Gf2Matrix.identity(2)
    assert add(i2, i2) == Gf2Matrix.zero(2)
    assert add(m, i2).to_lists() == [[1, 1], [1, 1]]


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        add(Gf2Matrix.zero(2), Gf2Matrix.zero(3))


def test_with_diagonal_cases():
    assert with_diagonal(Gf2Matrix.zero(3), DiagonalAssignment.ones(3)) == Gf2Matrix.identity(3)
    m = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    assert with_diagonal(m, m.diagonal()) == m
    assert with_diagonal(m, DiagonalAssignment.from_bits([1, 1])).to_lists() == [[1, 1], [1, 1]]
    with pytest.raises(ValueError):
        with_diagonal(m, DiagonalAssignment.zeros(3))


# text format ------------------------------------------------------------------


def test_parse_matrix_basic():
    assert parse_matrix("10\n01\n") == Gf2Matrix.identity(2)
    assert parse_matrix("0\n") == Gf2Matrix.zero(1)
    assert parse_matrix("10\n01") == Gf2Matrix.identity(2)  # trailing newline optional
    assert parse_matrix("10\r\n01\r\n") == Gf2Matrix.identity(2)


def test_parse_matrix_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix("01\n1")
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_matrix("\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("0x\n01\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("0 1\n0 1\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("01\n1", "ragged input: line 2 has 1 characters, expected 2"),
        ("\n", "empty input"),
        ("0x\n01\n", "illegal character 'x' on line 1"),
        ("0x1\n00\n", "ragged input: line 1 has 3 characters, expected 2"),  # ragged first
        ("0x\n1\n", "illegal character 'x' on line 1"),  # line by line
        ("01\n0\u00e9\n", "illegal character '\u00e9' on line 2"),
        # characters int(..., 2) would accept
        ("1_0\n010\n000\n", "illegal character '_' on line 1"),
        (" 1\n10\n", "illegal character ' ' on line 1"),
        ("10\n1\t\n", "illegal character '\\t' on line 2"),
        ("+1\n10\n", "illegal character '+' on line 1"),
        ("-1\n10\n", "illegal character '-' on line 1"),
        ("0\u0661\n10\n", "illegal character '\u0661' on line 1"),  # an Arabic-Indic digit
    ],
)
def test_parse_matrix_error_messages(text, message):
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(text)
    assert str(exc.value) == message


# what int(..., 2) would accept or a looser check might: signs, separators,
# non-ASCII digits (Arabic-Indic, fullwidth), a BOM, a lone CR, a "0b" prefix,
# and a lone surrogate, which stdin read with surrogateescape can hold and
# which cannot be encoded
NOISE = [
    "_", "+", "-", " ", "\t", "2", "\u00e9", "\u0661", "\uff10",
    "\ufeff", "\r", "0b", "\udcff",
]


def parse_outcome(parse, text):
    """The matrix ``parse`` returns, or the message of the MatrixFormatError it raises."""
    try:
        return parse(text)
    except MatrixFormatError as exc:
        return f"MatrixFormatError: {exc}"


def damaged_matrix_text(rng, n):
    """n random 0/1 lines, possibly damaged, with mixed line ends and trailing blanks."""
    lines = [format(rng.getrandbits(n), f"0{n}b") for _ in range(n)]
    damage = rng.randrange(5)
    for _ in range(rng.randint(1, 3) if damage in (1, 2) else 0):
        i = rng.randrange(n)
        j = rng.randrange(len(lines[i]) + 1)
        # damage 1 inserts a noise string, damage 2 overwrites as many characters
        noise = rng.choice(NOISE)
        lines[i] = lines[i][:j] + noise + lines[i][j + (len(noise) if damage == 2 else 0):]
    if damage == 3 and n > 1:  # one line longer, another shorter, same total length
        i, j = rng.sample(range(n), 2)
        lines[i] += lines[j][-1]
        lines[j] = lines[j][:-1]
    if damage == 4:  # a 0b prefix in place of the first two digits
        i = rng.randrange(n)
        lines[i] = "0b" + lines[i][2:]
    text = "".join(line + rng.choice(("\n", "\r\n")) for line in lines[:-1]) + lines[-1]
    if rng.random() < 0.8:
        text += rng.choice(("", "\n", "\r\n"))
    else:  # one or two blank lines, or a lone CR
        text += rng.choice(("\n\n", "\r\n\r\n", "\n\n\n", "\r"))
    return "\ufeff" + text if rng.random() < 0.1 else text


def test_parse_matrix_matches_line_scan():
    rng = random.Random(300)
    for n in range(1, 301):
        for _ in range(3):
            text = damaged_matrix_text(rng, n)
            assert parse_outcome(parse_matrix, text) == parse_outcome(line_scan_parse, text), text


@settings(max_examples=300)
@given(st.text(alphabet="01\n\r_+- \t\u00e9\u0661\uff102\ufeff\udcffb", max_size=40))
def test_parse_matrix_matches_line_scan_on_any_text(text):
    assert parse_outcome(parse_matrix, text) == parse_outcome(line_scan_parse, text)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 256])
def test_diagonal_to_string_matches_per_bit_definition(n):
    rng = random.Random(n)
    for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) if n else 0 for _ in range(20)]:
        d = DiagonalAssignment(n, mask)
        assert d.to_string() == "".join("1" if mask >> i & 1 else "0" for i in range(n))
        assert DiagonalAssignment.from_string(d.to_string()) == d


def test_render_matrix():
    assert render_matrix(Gf2Matrix.identity(2)) == str(Gf2Matrix.identity(2)) == "10\n01\n"
    assert render_matrix(Gf2Matrix.zero(0)) == ""


@pytest.mark.parametrize("n", [0, 1, 2, 9, 64, 300])
def test_render_matrix_newline_is_the_json_escape(n):
    m = random_matrix(random.Random(n), n)
    escaped = render_matrix(m, newline="\\n")
    assert escaped == render_matrix(m).replace("\n", "\\n")
    assert f'"{escaped}"' == json.dumps(render_matrix(m))


@pytest.mark.parametrize("n", [*range(71), 1000])
def test_matrix_text_round_trip(n):
    m = random_matrix(random.Random(n), n)
    text = render_matrix(m)
    assert text == "".join(
        "".join(str(m.entry(i, j)) for j in range(n)) + "\n" for i in range(n)
    )
    if n:
        assert parse_matrix(text) == m


@pytest.mark.parametrize("n", [0, 1, 2, 5, 64, 130])
def test_package_built_matrices_equal_checked_construction(n):
    # producers skip the row checks of the public constructor; the values
    # they build must still be exactly the ones it would accept
    rng = random.Random(n)
    m = random_matrix(rng, n)
    d = random_diagonal(rng, n)
    built = [with_diagonal(m, d), complete_nondegenerate(m)[0], gen_random(n, 0.5, n)]
    built.append(overlap_matrix(random_hieroglyph(rng, n)))
    if n:
        built.append(parse_matrix(render_matrix(m)))
    for value in built:
        assert type(value.rows) is tuple
        assert value == Gf2Matrix(value.n, list(value.rows))
        assert hash(value) == hash(Gf2Matrix(value.n, value.rows))


# properties -------------------------------------------------------------------


@given(matrices())
def test_rank_bounded_and_self_cancelling(m):
    r = rank(m)
    assert 0 <= r <= m.n
    assert rank(add(m, m)) == 0


@given(matrices(max_n=6))
def test_rank_matches_span_enumeration(m):
    assert rank(m) == span_rank(m)


@given(matrix_pairs())
def test_rank_subadditive(pair):
    a, b = pair
    assert rank(add(a, b)) <= rank(a) + rank(b)


@given(matrices(), st.randoms(use_true_random=False))
def test_rank_drop_bounded_by_diagonal_weight(m, rnd):
    d = DiagonalAssignment(m.n, rnd.getrandbits(m.n) if m.n else 0)
    assert rank(add(m, d.as_matrix())) >= rank(m) - d.weight()


@given(matrices(min_n=1), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(m, rnd):
    rows = list(m.rows)
    rnd.shuffle(rows)
    assert rank(Gf2Matrix(m.n, tuple(rows))) == rank(m)
    i, j = rnd.randrange(m.n), rnd.randrange(m.n)
    if i != j:
        rows[i] ^= rows[j]
        assert rank(Gf2Matrix(m.n, tuple(rows))) == rank(m)


@given(matrices())
def test_determinant_iff_full_rank(m):
    assert determinant(m) == (1 if rank(m) == m.n else 0)


@given(matrices(min_n=1))
def test_corner_minor_full_size_is_determinant(m):
    assert corner_minor(m, m.n) == determinant(m)


@given(matrices(min_n=1, max_n=6), st.integers(1, 6))
def test_corner_minor_matches_submatrix_determinant(m, size):
    size = min(size, m.n)
    sub = Gf2Matrix.from_rows([[m.entry(i, j) for j in range(size)] for i in range(size)])
    assert corner_minor(m, size) == determinant(sub)


@settings(max_examples=60)
@given(matrices(min_n=1, max_n=10))
def test_parse_render_round_trip(m):
    assert parse_matrix(render_matrix(m)) == m


def test_round_trip_larger_random():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, rng.randrange(1, 40))
        assert parse_matrix(render_matrix(m)) == m
        d = random_diagonal(rng, m.n)
        assert with_diagonal(m, d).diagonal() == d
