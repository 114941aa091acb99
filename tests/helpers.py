"""Shared brute-force oracles and random-instance helpers.

Everything here is deliberately independent of the library's elimination
and search code: rank by row-span enumeration, min rank by trying every
diagonal against that span rank or, in `inverse_formula_min_rank`, by
the nullities of the principal submatrices of I + M'^-1 for one
Gauss-Jordan inverse, interlacement by the pairwise crossing
condition on occurrence positions, completion by one fresh minor per
diagonal cell, rank by column-pivot elimination, canonical form by
relabeling every rotation, cyclic period by the prefix function, XOR
basis and completion by the lowest-bit loop without window tables.  The
exceptions are two slow paths of the search, on the library's
completion and rank: `exact_by_decide` repeats the library's decision
once per budget, and `unpruned_flip_sweep` is the flip-set sweep
without any pruning.  `size_pruned_flip_sweep`, the sweep
pruned by the size bound alone, with no codeword-support bound, runs on
the lowest-bit completion and basis of this module.
The matrix text reference, `line_scan_parse`, checks and converts one
line at a time, and the generator reference, `scalar_gen_random`, makes
one `SplitMix64.next_u64` draw per cell.  The oracle reference,
`product_oracle`, is a third exception: it runs one capped library
elimination of all n rows for each of the 2^n rewrites, in their
product order.
"""

from __future__ import annotations

import itertools
import random
import string
from collections.abc import Iterator

from diagrank.generate import SplitMix64
from diagrank.gf2 import (
    DiagonalAssignment,
    Gf2Matrix,
    MatrixFormatError,
    complete_nondegenerate,
    rank_rows,
    with_diagonal,
)
from diagrank.hieroglyph import Hieroglyph
from diagrank.rankmin import ORACLE_MAX_DIM, OracleSizeError, min_rank_decide


def span(rows) -> set[int]:
    """Every XOR combination of the packed rows, 0 included."""
    words = {0}
    for row in rows:
        words |= {v ^ row for v in words}
    return words


def row_space(rows) -> frozenset[int]:
    """The reduced echelon basis of the packed rows' span, keyed by leading bits.

    Two row lists give the same set exactly when their spans are equal.
    """
    reduced: list[int] = []
    for row in rows:
        for r in reduced:
            row = min(row, row ^ r)  # clears r's leading bit from row
        if row:
            reduced = [min(r, r ^ row) for r in reduced] + [row]
    return frozenset(reduced)


def span_rank(m: Gf2Matrix) -> int:
    """Rank as log2 of the number of distinct XOR combinations of rows."""
    return len(span(m.rows)).bit_length() - 1


def brute_force_min_rank(m: Gf2Matrix) -> int:
    """Minimum span rank over every one of the 2^n diagonals (tiny n only)."""
    assert m.n <= 10, "brute force oracle is for tiny matrices"
    best = m.n
    for bits in itertools.product((0, 1), repeat=m.n):
        d = DiagonalAssignment.from_bits(bits)
        best = min(best, span_rank(with_diagonal(m, d)))
        if best == 0:
            break
    return best


def gauss_jordan_inverse(m: Gf2Matrix) -> Gf2Matrix | None:
    """M^-1 by Gauss-Jordan elimination of [M | I], or None if M is singular."""
    n = m.n
    aug = [row | 1 << (n + i) for i, row in enumerate(m.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r] >> col & 1), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r] >> col & 1:
                aug[r] ^= aug[col]
    return Gf2Matrix(n, tuple(row >> n for row in aug))


def inverse_formula_min_rank(m: Gf2Matrix) -> int:
    """R(M) = n - max_T nullity(P[T, T]), with P = I + M'^-1 (small n only).

    M' is the first invertible rewrite of M in diagonal-mask order.  Every
    rewrite is M' + E_T for a set T of diagonal positions, and
    M' + E_T = M'(I + M'^-1 E_T), whose nullity is that of P[T, T].  The
    inverse and every rank are this module's own, so the value shares no
    code with the library's completion, elimination or search.
    """
    assert m.n <= 12, "the formula reference tries every T"
    n = m.n
    off = [row & ~(1 << i) for i, row in enumerate(m.rows)]
    for d in range(1 << n):  # some rewrite is invertible, so the loop breaks
        inverse = gauss_jordan_inverse(Gf2Matrix(n, [r | d & 1 << i for i, r in enumerate(off)]))
        if inverse is not None:
            break
    p = [row ^ 1 << i for i, row in enumerate(inverse.rows)]
    nullity = 0
    for t in range(1 << n):
        members = [i for i in range(n) if t >> i & 1]
        nullity = max(nullity, len(members) - len(row_space(p[i] & t for i in members)))
    return n - nullity


def random_matrix(rng: random.Random, n: int, density: float = 0.5) -> Gf2Matrix:
    rows = tuple(
        sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
    )
    return Gf2Matrix(n, rows)


def random_diagonal(rng: random.Random, n: int) -> DiagonalAssignment:
    return DiagonalAssignment(n, rng.getrandbits(n) if n else 0)


def token_names(n: int) -> list[str]:
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"t{i}" for i in range(n)]


def random_hieroglyph(rng: random.Random, n: int) -> Hieroglyph:
    word = token_names(n) * 2
    rng.shuffle(word)
    return Hieroglyph(tuple(word))


def naive_overlap(h: Hieroglyph) -> list[list[int]]:
    """Pairwise interlacement via the crossing condition on positions.

    Letters interlace iff exactly one occurrence of one lies strictly
    between the two occurrences of the other.
    """
    order = list(h.alphabet)
    pos = {tok: [] for tok in order}
    for p, tok in enumerate(h.letters):
        pos[tok].append(p)
    n = h.n
    out = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        p1, p2 = pos[order[i]]
        q1, q2 = pos[order[j]]
        crossing = (p1 < q1 < p2) != (p1 < q2 < p2)
        out[i][j] = out[j][i] = int(crossing)
    return out


def rotate_word(h: Hieroglyph, offset: int) -> Hieroglyph:
    w = h.letters
    return Hieroglyph(w[offset % len(w):] + w[: offset % len(w)]) if w else h


def reverse_word(h: Hieroglyph) -> Hieroglyph:
    return Hieroglyph(h.letters[::-1])


def relabel_word(h: Hieroglyph, rng: random.Random) -> Hieroglyph:
    fresh = [f"r{i}" for i in range(h.n)]
    rng.shuffle(fresh)
    mapping = dict(zip(h.alphabet, fresh))
    return Hieroglyph(tuple(mapping[tok] for tok in h.letters))


def random_image(h: Hieroglyph, rng: random.Random) -> Hieroglyph:
    """Random combination of rotation, optional reversal, and relabeling."""
    img = rotate_word(h, rng.randrange(max(len(h.letters), 1)))
    if rng.random() < 0.5:
        img = reverse_word(img)
    return relabel_word(img, rng)


def rotation_scan_canonical(h: Hieroglyph) -> Hieroglyph:
    """Canonical form by relabeling all 4n rotations and reflections, O(n^2).

    Every rotation of the word and of its reversal is relabeled by
    first-occurrence order; the lexicographically least result is
    returned.
    """
    word = h.letters
    length = len(word)
    if length == 0:
        return h
    best: tuple[int, ...] | None = None
    for seq in (word, word[::-1]):
        for r in range(length):
            rotated = seq[r:] + seq[:r]
            ids: dict[str, int] = {}
            img = []
            for tok in rotated:
                if tok not in ids:
                    ids[tok] = len(ids)
                img.append(ids[tok])
            key = tuple(img)
            if best is None or key < best:
                best = key
    assert best is not None
    n = length // 2
    if n <= len(string.ascii_lowercase):
        names = string.ascii_lowercase
        return Hieroglyph(tuple(names[i] for i in best))
    return Hieroglyph(tuple(f"t{i}" for i in best))


def prefix_period(values: list[int]) -> int:
    """Smallest cyclic period of ``values`` (a divisor of its length), by the prefix function."""
    pi = [0] * len(values)
    for i in range(1, len(values)):
        j = pi[i - 1]
        while j and values[i] != values[j]:
            j = pi[j - 1]
        if values[i] == values[j]:
            j += 1
        pi[i] = j
    d = len(values) - pi[-1]
    return d if len(values) % d == 0 else len(values)


def _minor(rows: list[int], size: int) -> int:
    """Determinant of the first ``size`` rows over columns 0..size-1."""
    rows = [row & ((1 << size) - 1) for row in rows[:size]]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r] >> col & 1), None)
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            if rows[r] >> col & 1:
                rows[r] ^= rows[col]
    return 1


def column_pivot_rank(rows: list[int], n: int, cap: int | None = None) -> int:
    """Rank of packed rows by forward elimination over columns 0..n-1.

    The pivot for a column is the lowest-index remaining row with a 1
    there; works on a copy.  With ``cap`` given, elimination stops as
    soon as the rank exceeds it and returns cap + 1.
    """
    rows = list(rows)
    nrows = len(rows)
    rank = 0
    for col in range(n):
        bit = 1 << col
        pivot = next((r for r in range(rank, nrows) if rows[r] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(pivot + 1, nrows):
            if rows[r] & bit:
                rows[r] ^= rows[rank]
        rank += 1
        if rank == nrows or (cap is not None and rank > cap):
            break
    return rank


def plain_basis(rows, cap: int | None = None) -> dict[int, int]:
    """`gf2.basis` without window tables: the lowest-bit loop alone.

    Each row is reduced by the pivot keyed by its lowest set bit until
    there is none, and kept under that bit if nonzero; with ``cap``,
    reading stops once the basis has cap + 1 rows.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        row = _plain_reduce(row, pivots)
        if row:
            pivots[(row & -row).bit_length() - 1] = row
            if cap is not None and len(pivots) > cap:
                break
    return pivots


def plain_completed_rows(m: Gf2Matrix) -> Iterator[int]:
    """`gf2.completed_rows` by the lowest-bit loop alone.

    Row i with a zero at (i, i) is reduced by the pivots of rows 0..i-1;
    bit i of the result is the leading minor, and a_i its complement.
    """
    pivots: dict[int, int] = {}
    for i, row in enumerate(m.rows):
        bit = 1 << i
        reduced = _plain_reduce(row & ~bit, pivots)
        pivots[i] = reduced | bit
        yield row & ~bit if reduced & bit else row | bit


def _plain_reduce(row: int, pivots: dict[int, int]) -> int:
    while row:
        pivot = pivots.get((row & -row).bit_length() - 1)
        if pivot is None:
            break
        row ^= pivot
    return row


def corner_minor_completion(m: Gf2Matrix) -> tuple[Gf2Matrix, DiagonalAssignment]:
    """Greedy completion with one fresh corner minor per diagonal cell (~n^4).

    a_i is the complement of the leading (i+1)-minor taken with a zero at
    (i, i), the earlier cells already holding a_0..a_{i-1}.
    """
    work = list(m.rows)
    mask = 0
    for i in range(m.n):
        work[i] &= ~(1 << i)
        a = 1 - _minor(work, i + 1)
        work[i] |= a << i
        mask |= a << i
    return Gf2Matrix(m.n, tuple(work)), DiagonalAssignment(m.n, mask)


def exact_by_decide(m: Gf2Matrix, k_max: int) -> tuple[int, DiagonalAssignment] | None:
    """Exact minimum as the first yes among the decisions at budgets 0..k_max."""
    for k in range(min(k_max, m.n) + 1):
        witness = min_rank_decide(m, k).witness
        if witness is not None:
            return k, witness
    return None


def product_oracle(m: Gf2Matrix) -> tuple[int, DiagonalAssignment]:
    """`rankmin.min_rank_oracle` as one capped elimination per rewrite.

    The rewrites are the product of each row's two versions, bit i clear,
    then set, so they come in lexicographic order; the witness is the
    diagonal of the first minimizing rows.
    """
    n = m.n
    if n > ORACLE_MAX_DIM:
        raise OracleSizeError(f"oracle limited to n <= {ORACLE_MAX_DIM}, got {n}")
    pairs = [(row & ~(1 << i), row | 1 << i) for i, row in enumerate(m.rows)]
    best_rank = n + 1
    for rows in itertools.product(*pairs):  # the first always improves on n + 1
        r = rank_rows(rows, cap=best_rank - 1)
        if r < best_rank:
            best_rank = r
            best = rows
            if r == 0:
                break
    return best_rank, Gf2Matrix._trusted(n, best).diagonal()


def unpruned_flip_sweep(m: Gf2Matrix, k: int) -> Iterator[tuple[int, DiagonalAssignment]]:
    """The flip-set sweep of `rankmin` with no rank-bound pruning.

    Every flip set S of size < best, by size then lexicographically, is
    scored max(|S|, rank(A0 + E_S)); each strict improvement on the best
    (starting at k + 1) is yielded.  The first yield is the decision's
    witness at budget k, the last one the exact minimum's.
    """
    n = m.n
    completed, d = complete_nondegenerate(m)
    erased = [row ^ (1 << i) for i, row in enumerate(completed.rows)]
    base = d.complement().mask
    best = k + 1
    for size in range(min(k, n) + 1):
        if size >= best:
            return
        for flips in itertools.combinations(range(n), size):
            rows = erased.copy()
            w = base
            for i in flips:
                rows[i] ^= 1 << i
                w ^= 1 << i
            value = max(size, rank_rows(rows, cap=best - 1))
            if value < best:
                best = value
                yield value, DiagonalAssignment(n, w)
                if best == size:
                    return


def size_pruned_flip_sweep(m: Gf2Matrix, k: int) -> Iterator[tuple[int, DiagonalAssignment]]:
    """The flip-set sweep of `rankmin` pruned by the size bound alone.

    Every flip set of a size s with u - s < best is scored, u being the
    rank of the erased completion; no codeword-support bound is applied.
    Yields the same improvements, in the same order, as the library.
    A0 comes from `plain_completed_rows` and every rank from `plain_basis`.
    """
    n = m.n
    erased = [row ^ 1 << i for i, row in enumerate(plain_completed_rows(m))]
    base = sum(row & 1 << i for i, row in enumerate(erased))
    u = len(plain_basis(erased))
    best = k + 1
    for size in range(min(k, n) + 1):
        if size >= best:
            return
        if u - size >= best:
            continue
        for flips in itertools.combinations(range(n), size):
            rows = erased.copy()
            w = base
            for i in flips:
                rows[i] ^= 1 << i
                w ^= 1 << i
            value = max(size, len(plain_basis(rows, cap=best - 1)))
            if value < best:
                best = value
                yield value, DiagonalAssignment(n, w)
                if best == size:  # no flip set of this size or larger can improve
                    return
                if u - size >= best:  # none of this size can improve
                    break


def planted_matrix(rng: random.Random, n: int, r: int) -> Gf2Matrix:
    """U·Vᵀ for random n x r factors U, V, with the diagonal zeroed.

    Writing back the diagonal of U·Vᵀ gives rank <= r, so the minimum is
    at most r.
    """
    us = [rng.getrandbits(r) for _ in range(n)]
    vs = [rng.getrandbits(r) for _ in range(n)]
    rows = tuple(
        sum(((us[i] & vs[j]).bit_count() & 1) << j for j in range(n) if j != i)
        for i in range(n)
    )
    return Gf2Matrix(n, rows)


def planted_noise_matrix(rng: random.Random, n: int, r: int, t: int) -> Gf2Matrix:
    """`planted_matrix` with t distinct off-diagonal bits flipped.

    The minimum is at most r + t, and the noise usually lifts it above
    half the `approx` upper bound, so a sweep must certify "no" at the
    sizes in between.
    """
    rows = list(planted_matrix(rng, n, r).rows)
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng.sample(cells, t):
        rows[i] ^= 1 << j
    return Gf2Matrix(n, tuple(rows))


def line_scan_parse(text: str) -> Gf2Matrix:
    """`gf2.parse_matrix` checking and converting one line at a time.

    Each line is checked for its length, then counted for 0s and 1s, in
    order, so the first faulty line names the error, ragged first.
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


def scalar_gen_random(n: int, density: float, seed: int) -> Gf2Matrix:
    """`generate.gen_random` one draw at a time, for valid arguments.

    The README procedure as written: cells in row-major order, the
    diagonal skipped, one `SplitMix64.next_u64` draw per off-diagonal
    cell, and a 1 where the draw is below floor(density * 2^64).
    """
    threshold = int(density * (1 << 64))
    rng = SplitMix64(seed)
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if i != j and rng.next_u64() < threshold:
                row |= 1 << j
        rows.append(row)
    return Gf2Matrix(n, tuple(rows))
