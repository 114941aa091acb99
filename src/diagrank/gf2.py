"""Bit-packed linear algebra over GF(2) for square matrices.

Rows are stored as Python integers: bit j of ``rows[i]`` holds entry
(i, j).  Arbitrary-precision ints give whole-row XOR as a single
word-parallel operation, which is what keeps the elimination and the
diagonal searches built on top of it fast enough in pure Python.  All
reduction is one private generator, `_reduce_rows`, against pivots
keyed by lowest bit.  It feeds the XOR basis (`basis`, `rank_rows`) and
the invertible completion (`completed_rows`, `complete_nondegenerate`).
A dense elimination of n rows costs ~n^3/384 word operations; parsing
the text format (`parse_matrix`) is O(n^2) character work in a few
whole-text C passes and one int() per row.  On a 2-vCPU x86 host under
Python 3.11.7, parsing a dense matrix takes ~0.24 ms at n = 256 and
~3.4 ms at n = 1000, against ~1.1 ms and ~14 ms for its `rank` (best
of 7 in-process repeats).

Matrices are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class MatrixFormatError(ValueError):
    """Malformed matrix text (ragged lines, illegal characters, empty)."""


@dataclass(frozen=True)
class Gf2Matrix:
    """Square matrix over GF(2) with bit-packed rows.

    ``rows[i]`` packs row i with bit j = entry (i, j), and any sequence of
    rows is stored as a tuple.  Bits at or above column n must be zero.
    n = 0 is legal and behaves like the empty matrix (rank 0, determinant 1).
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise ValueError(f"dimension {self.n!r} is not an integer")
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            try:
                if not (row < 0 or row >> self.n):
                    continue
            except TypeError:  # not an int, e.g. 1.0
                pass
            raise ValueError(f"row {i} has bits outside columns 0..{self.n - 1}")

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Gf2Matrix":
        """A matrix of a row tuple that the package built in range, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def zero(cls, n: int) -> "Gf2Matrix":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, entries: Iterable[Iterable[int]]) -> "Gf2Matrix":
        """Build from nested 0/1 entries, e.g. ``[[0, 1], [1, 0]]``."""
        packed = []
        for row in entries:
            mask = 0
            width = 0
            for j, v in enumerate(row):
                if not isinstance(v, int) or v not in (0, 1):
                    raise ValueError(f"entry {v!r} is not a bit")
                mask |= v << j
                width = j + 1
            packed.append((mask, width))
        n = len(packed)
        for i, (_, width) in enumerate(packed):
            if width != n:
                raise ValueError(f"row {i} has {width} entries, expected {n}")
        return cls(n, tuple(mask for mask, _ in packed))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def diagonal(self) -> "DiagonalAssignment":
        """Current main-diagonal values."""
        mask = 0
        for i, row in enumerate(self.rows):
            mask |= row & (1 << i)
        return DiagonalAssignment(self.n, mask)

    def to_lists(self) -> list[list[int]]:
        return [[(row >> j) & 1 for j in range(self.n)] for row in self.rows]

    def __str__(self) -> str:
        return render_matrix(self)


@dataclass(frozen=True)
class DiagonalAssignment:
    """Length-n vector of bits destined for the main diagonal.

    Bit i of ``mask`` is the value placed at cell (i, i).
    """

    n: int
    mask: int

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise ValueError(f"dimension {self.n!r} is not an integer")
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        if not isinstance(self.mask, int) or self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"assignment has bits outside positions 0..{self.n - 1}")

    @classmethod
    def zeros(cls, n: int) -> "DiagonalAssignment":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "DiagonalAssignment":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "DiagonalAssignment":
        mask = 0
        count = 0
        for i, b in enumerate(bits):
            if not isinstance(b, int) or b not in (0, 1):
                raise ValueError(f"value {b!r} is not a bit")
            mask |= b << i
            count = i + 1
        return cls(count, mask)

    @classmethod
    def from_string(cls, text: str) -> "DiagonalAssignment":
        if any(c not in "01" for c in text):
            raise ValueError(f"illegal character in {text!r}")
        return cls(len(text), sum(1 << i for i, c in enumerate(text) if c == "1"))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.n))

    def to_string(self) -> str:
        # ":d" spells a bool n as a number; format(0, "00b") is "0", not ""
        return format(self.mask, f"0{self.n:d}b")[::-1] if self.n else ""

    def weight(self) -> int:
        """Number of ones; equals the rank of the corresponding diagonal matrix."""
        return self.mask.bit_count()

    def complement(self) -> "DiagonalAssignment":
        return DiagonalAssignment(self.n, self.mask ^ ((1 << self.n) - 1))

    def as_matrix(self) -> Gf2Matrix:
        """The diagonal matrix carrying these values."""
        return Gf2Matrix(self.n, tuple((self.mask & (1 << i)) for i in range(self.n)))


W = 6  # key columns per Four-Russians window
_MASK = (1 << W) - 1
_SWITCH = (4 << W) // W  # pivots from which dense rows pay for tables


def _window_table(pivots: dict[int, int], start: int) -> list[int]:
    """The 2^W XOR combinations of the pivots keyed start..start+W-1.

    Entry i is the one whose window bits, ``row >> start & _MASK``, are
    i.  It takes one XOR, highest key first: the pivot keyed start + j,
    for j the lowest set bit of i, plus entry i ^ low, where low is that
    pivot's window bits; i ^ low has no bit at or below j, so it is
    already filled.  ``pivots`` is only read.
    """
    table = [0] * (1 << W)
    for j in reversed(range(W)):
        pivot = pivots[start + j]
        low = pivot >> start & _MASK
        for i in range(1 << j, 1 << W, 2 << j):  # every i whose lowest set bit is j
            table[i] = pivot ^ table[i ^ low]
    return table


def _reduce_rows(rows: Iterable[int], pivots: dict[int, int]) -> Iterator[int]:
    """Yield each of ``rows`` reduced by ``pivots``, reading a row only when asked.

    ``pivots`` maps a bit index to a pivot row whose lowest set bit is
    that index; it is only read, and between yields the caller may add
    pivots keyed the same way.  A row is reduced by XORing in the pivot
    keyed by its lowest set bit until there is none, so each yielded row
    is 0 or has a lowest set bit that is not a key.  Tables change the
    work, never the row: two such reductions of one row differ by a
    combination of pivots keyed below that bit, and only 0 is such a
    combination with no set bit below it.

    Windows are the W-column blocks starting at 0, W, 2W, ...; the next
    one to tabulate is the first past the tabulated prefix.  After a
    yield, `_window_table` tabulates it when all of these hold:

    * there are at least 4 * 2^W / W = 42 pivots: the ~k^2/4 XORs that
      k dense rows spend reach there the (k / W) * 2^W that tabulating
      every window k pivots could fill costs;
    * there are at least start + W pivots: keys 0..start-1 already are
      pivots, so fewer leave the window's keys short, and this cheap
      check spares the two below on most rows;
    * the row just reduced has at least 2^(W-2) set bits, so rows are
      not collapsing onto few pivots;
    * the window's W keys are all pivots.

    No rule asks how far rows reach past the pivots: with keys 0..k-1 a
    reduced row has no bit below k, so its 2^(W-2) set bits lie past them.
    Each later row first takes one lookup per table, which clears the
    tabulated columns, and only then the lowest-bit loop.  An
    elimination of n dense rows then costs ~n^3/(64 W) word operations
    instead of ~n^3/64; sparse or collapsing reductions never switch on.
    """
    tables: list[tuple[int, list[int]]] = []
    start = 0  # first key of the next window to tabulate
    get = pivots.get
    for row in rows:
        if tables:  # no iterator per row while no table is built
            for shift, table in tables:
                row ^= table[row >> shift & _MASK]
        while row:
            pivot = get((row & -row).bit_length() - 1)
            if pivot is None:
                break
            row ^= pivot
        yield row
        if (
            len(pivots) >= _SWITCH
            and len(pivots) >= start + W
            and row.bit_count() >= 1 << W - 2
            and all(map(pivots.__contains__, range(start, start + W)))
        ):
            tables.append((start, _window_table(pivots, start)))
            start += W


def basis(rows: Iterable[int], cap: int | None = None) -> dict[int, int]:
    """XOR basis of packed rows over GF(2), keyed by lowest set bit.

    Rows are inserted one at a time, each reduced by `_reduce_rows` and
    kept under its lowest set bit if nonzero, so no basis row has a set
    bit below its key; ``rows`` is only read.

    With ``cap`` given, insertion stops as soon as the basis grows past
    it, to cap + 1 entries, so the remaining rows are never read.
    """
    pivots: dict[int, int] = {}
    for row in _reduce_rows(rows, pivots):
        if row:
            pivots[(row & -row).bit_length() - 1] = row
            if cap is not None and len(pivots) > cap:
                break
    return pivots


def completed_rows(m: Gf2Matrix) -> Iterator[int]:
    """Rows of the completion of ``m``, top to bottom, computed lazily.

    The diagonal is chosen greedily from top-left to bottom-right: with
    a_0..a_{i-1} already fixed, the leading (i+1) x (i+1) minor is taken
    with a zero at (i, i) and a_i is set to its complement.  Expanding
    the next minor along its last row shows that this forces every
    leading minor of the result to 1.

    All minors come from one forward elimination without pivoting: every
    earlier leading minor is 1, so row i reduced by `_reduce_rows`
    against completed rows 0..i-1, pivot j keyed by bit j, keeps in bit i
    the leading minor taken with the row's own diagonal value.  That
    value enters the minor additively, so a_i is the row's own value
    when the bit is 1 and its complement when it is 0; either way the
    reduced completed row is pivot i.  Row i depends only on rows 0..i
    and is computed only when requested, so the first t rows cost
    ~t^2 n bit operations.
    """
    rows = m.rows
    pivots: dict[int, int] = {}  # pivot i: bit i set, bits 0..i-1 clear
    for i, reduced in enumerate(_reduce_rows(rows, pivots)):
        bit = 1 << i
        pivots[i] = reduced | bit
        # bit i is the minor with the row's own diagonal value: keep it if 1
        yield rows[i] if reduced & bit else rows[i] ^ bit


def complete_nondegenerate(m: Gf2Matrix) -> tuple[Gf2Matrix, DiagonalAssignment]:
    """Rewrite the diagonal of ``m`` so the result has full rank.

    Every square matrix can be made invertible this way.  Returns
    ``(completed, d)`` where ``completed`` equals ``m`` outside the
    diagonal, carries ``d`` on it, and has determinant 1; every leading
    corner minor of ``completed`` is 1 as well.  The output is
    deterministic: the same input always yields the same diagonal, the
    one `completed_rows` produces.
    """
    completed = Gf2Matrix._trusted(m.n, tuple(completed_rows(m)))
    return completed, completed.diagonal()


def rank_rows(rows: Iterable[int], cap: int | None = None) -> int:
    """Rank of packed rows over GF(2): the size of their `basis`.

    With ``cap`` given, cap + 1 is returned once the rank exceeds it, and
    the remaining rows are never read; useful when only "rank <= cap?" is
    needed.
    """
    return len(basis(rows, cap))


def rank(m: Gf2Matrix) -> int:
    """GF(2) rank of ``m``; the input is not modified."""
    return rank_rows(m.rows)


def determinant(m: Gf2Matrix) -> int:
    """1 iff ``m`` has full rank (the empty matrix counts as full rank)."""
    return int(rank(m) == m.n)


def corner_minor(m: Gf2Matrix, size: int) -> int:
    """Determinant of the top-left ``size`` x ``size`` submatrix, 1 <= size <= n."""
    if not 1 <= size <= m.n:
        raise ValueError(f"corner size {size} out of range 1..{m.n}")
    mask = (1 << size) - 1
    return int(rank_rows(row & mask for row in m.rows[:size]) == size)


def add(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """Entrywise XOR; over GF(2) this is both the sum and the difference."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return Gf2Matrix(a.n, tuple(x ^ y for x, y in zip(a.rows, b.rows)))


def with_diagonal(m: Gf2Matrix, d: DiagonalAssignment) -> Gf2Matrix:
    """Copy of ``m`` with the main diagonal replaced by ``d``."""
    if m.n != d.n:
        raise ValueError(f"dimension mismatch: {m.n} vs {d.n}")
    rows = tuple(
        (row & ~(1 << i)) | (d.mask & (1 << i)) for i, row in enumerate(m.rows)
    )
    return Gf2Matrix._trusted(m.n, rows)


def parse_matrix(text: str) -> Gf2Matrix:
    """Parse the text format: n lines of exactly n characters from {0, 1}.

    CRLF line endings are tolerated; one trailing newline is optional.

    Valid text is checked in whole-text C passes: it is ASCII, deleting
    0, 1 and newline leaves nothing, and every line is n long.  It must
    be checked first, as int() would also accept "_", whitespace and
    signs.  Only text that fails is scanned line by line, to report its
    first faulty line: a ragged line before an illegal character.
    """
    normalized = text.replace("\r\n", "\n") if "\r" in text else text
    if normalized.endswith("\n"):
        normalized = normalized[:-1]
    if not normalized:
        raise MatrixFormatError("empty input")
    # the lines bottom to top, each read right to left, so int() puts column j at bit j
    flipped = normalized[::-1].split("\n")
    n = len(flipped)
    if (
        normalized.isascii()  # first: encode() would raise on a lone surrogate
        and not normalized.encode().translate(None, b"01\n")
        and set(map(len, flipped)) == {n}
    ):
        return Gf2Matrix._trusted(n, tuple([int(line, 2) for line in reversed(flipped)]))
    for i, line in enumerate(normalized.split("\n"), 1):
        if len(line) != n:
            raise MatrixFormatError(
                f"ragged input: line {i} has {len(line)} characters, expected {n}"
            )
        illegal = line.lstrip("01")
        if illegal:
            raise MatrixFormatError(f"illegal character {illegal[0]!r} on line {i}")
    raise AssertionError("unreachable: text failing the check has a faulty line")


def render_matrix(m: Gf2Matrix, newline: str = "\n") -> str:
    """Inverse of :func:`parse_matrix`: each row's n characters, then ``newline``.

    The default LF is the text format.  Rows hold only 0 and 1, so with
    ``newline="\\n"`` the result is already the escaped body of the JSON
    string that holds the LF rendering.
    """
    top = 1 << m.n  # bin(row | top) is "0b1" and then the row's n bits, column 0 last
    return newline.join([*(bin(row | top)[:2:-1] for row in m.rows), ""])
