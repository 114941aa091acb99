"""Bit-packed linear algebra over GF(2) for square matrices.

Rows are stored as Python integers: bit j of ``rows[i]`` holds entry
(i, j).  Arbitrary-precision ints give whole-row XOR as a single
word-parallel operation, which is what keeps the elimination and the
diagonal searches built on top of it fast enough in pure Python.  All
reduction is one generator, `reduce_rows`, against pivots keyed by
lowest bit, and all insertion into an XOR basis is one loop, `basis`.
Dense reductions switch on Four-Russians tables of 2^W pivot
combinations per W key columns, once their own count of single-pivot
XORs shows the tables would pay: ~n^3/(64 W) word operations for n
dense rows instead of ~n^3/64.  Sparse reductions never build a table
and run the plain lowest-bit loop.

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

    ``rows[i]`` packs row i with bit j = entry (i, j).  Bits at or above
    column n must be zero.  n = 0 is legal and behaves like the empty
    matrix (rank 0, determinant 1).
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise ValueError(f"row {i} has bits outside columns 0..{self.n - 1}")

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
                if v not in (0, 1):
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
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        if self.mask < 0 or self.mask >> self.n:
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
            if b not in (0, 1):
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
        return "".join("1" if (self.mask >> i) & 1 else "0" for i in range(self.n))

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


def _window_table(pivots: dict[int, int], start: int) -> list[int]:
    """The 2^W XOR combinations of the pivots keyed start..start+W-1.

    The W pivots are first reduced to the identity on those columns and
    stored back (keys and span unchanged), so entry i is the combination
    whose bits there are i, read with ``row >> start & _MASK``.
    """
    keys = range(start, start + W)
    for key in reversed(keys):
        pivot = pivots[key]
        for above in range(key + 1, start + W):
            if pivot >> above & 1:
                pivot ^= pivots[above]
        pivots[key] = pivot
    table = [0]
    for key in keys:
        pivot = pivots[key]
        table += [t ^ pivot for t in table]
    return table


def reduce_rows(rows: Iterable[int], pivots: dict[int, int]) -> Iterator[int]:
    """Yield each of ``rows`` reduced by ``pivots``, reading a row only when asked.

    ``pivots`` maps a bit index to a pivot row whose lowest set bit is
    that index.  Each yielded row is 0 or has a lowest set bit that is
    not a key.  Between yields the caller may add pivots, keyed the same
    way; the generator may rewrite pivots in place, keeping every key,
    the lowest-bit invariant and the span.

    A row is reduced by XORing in the pivot keyed by its lowest set bit
    until there is none.  Windows are the W-column blocks starting at
    0, W, 2W, ...; the next one to tabulate is the first past the
    tabulated prefix.  `_window_table` tabulates it once all of these
    hold:

    * its W keys are all pivots;
    * the single-pivot XORs spent so far reach (len(pivots) // W) * 2^W,
      what tabulating every window the pivots could fill would cost;
    * the reduced row reaches 2^(W-1) columns past the pivots, so enough
      pivots can still come for the table to pay back its 2^W XORs at
      about W/2 - 1 saved per later row.

    Each later row first takes one lookup per table, and only then the
    lowest-bit loop.  Dense rows spend ~k/2 XORs against k pivots and
    switch on after ~4 * 2^W / W = 43 pivots; an elimination of n dense
    rows then costs ~n^3/(64 W) word operations instead of ~n^3/64.
    Sparse reductions, ~1 XOR per row, never switch on and pay nothing.
    """
    tables: list[tuple[int, list[int]]] = []
    start = 0  # first key of the next window to tabulate
    spent = 0  # single-pivot XORs so far
    due = 1 << W  # spent at which the switch is next checked
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
            spent += 1
        yield row
        if row and spent >= due and len(pivots) >= start + W:
            due = len(pivots) // W << W
            if (
                spent >= due
                and row.bit_length() >= len(pivots) + (1 << W - 1)
                and all(map(pivots.__contains__, range(start, start + W)))
            ):
                tables.append((start, _window_table(pivots, start)))
                start += W


def basis(rows: Iterable[int], cap: int | None = None) -> dict[int, int]:
    """XOR basis of packed rows over GF(2), keyed by lowest set bit.

    Rows are inserted one at a time, each reduced by `reduce_rows` and
    kept under its lowest set bit if nonzero, so no basis row has a set
    bit below its key; ``rows`` is only read.  The key set depends only
    on the span, the basis rows may depend on how the reduction ran.
    With ``cap`` given, insertion stops as soon as the basis grows past
    it, to cap + 1 entries, so the remaining rows are never read.
    """
    pivots: dict[int, int] = {}
    for row in reduce_rows(rows, pivots):
        if row:
            pivots[(row & -row).bit_length() - 1] = row
            if cap is not None and len(pivots) > cap:
                break
    return pivots


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
    return Gf2Matrix(m.n, rows)


def parse_matrix(text: str) -> Gf2Matrix:
    """Parse the text format: n lines of exactly n characters from {0, 1}.

    CRLF line endings are tolerated; one trailing newline is optional.
    """
    normalized = text.replace("\r\n", "\n")
    if normalized.endswith("\n"):
        normalized = normalized[:-1]
    if not normalized:
        raise MatrixFormatError("empty input")
    lines = normalized.split("\n")
    n = len(lines)
    rows = []
    for i, line in enumerate(lines):
        if len(line) != n:
            raise MatrixFormatError(
                f"ragged input: line {i + 1} has {len(line)} characters, expected {n}"
            )
        # validated first: int() would also accept "_", whitespace and signs
        if line.count("0") + line.count("1") != n:
            c = next(c for c in line if c not in "01")
            raise MatrixFormatError(f"illegal character {c!r} on line {i + 1}")
        rows.append(int(line[::-1], 2))
    return Gf2Matrix(n, tuple(rows))


def render_matrix(m: Gf2Matrix) -> str:
    """Inverse of :func:`parse_matrix`; emits LF line endings."""
    return "".join(format(row, f"0{m.n}b")[::-1] + "\n" for row in m.rows)
