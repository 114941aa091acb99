"""Minimum rank over all rewrites of the main diagonal.

For a square GF(2) matrix M, the quantity of interest is the smallest
rank achievable by replacing the main-diagonal entries with arbitrary
bits.  This module provides:

* an exact fixed-budget decision (`min_rank_decide`) and an exact search
  (`min_rank_exact`), both one sweep over flip sets (`_flip_sweep`),
* a factor-2 approximation (`min_rank_approx`) in two eliminations,
* an exhaustive oracle (`min_rank_oracle`) over all 2^n diagonals for
  n <= 24,
* the always-available n-1 upper bound via an even-row-sum diagonal
  (`upper_bound_even_rows`).

The sweep and the oracle are depth-first walks of one design: a node
carries the XOR basis of the rows fixed before it, each row reduced into
it once, and is left once that basis has as many rows as the best
leaf's rank, since adding rows never lowers a rank.  `_with_rows` is
the step both take to branch on a row.

Decision and search work through the invertible completion M' of M and
its erasure A0 = M' + I.  A rewrite differing from M' in fewer than n-k
diagonal places cannot reach rank <= k (erasing r diagonal ones lowers
the rank by at most r), so only the rewrites A0 + E_S, flipping a set S
of at most k diagonal cells of A0, need to be tried.  A0 + E_S is M'
with the n - |S| diagonal cells outside S changed, so by the same
argument its rank is at least |S|.  Hence the minimum rank is the least
rank(A0 + E_S) over all flip sets S, and `_flip_sweep` scores only the
flip sets that can beat the best so far.  Every witness is the diagonal
of the rows that earned it: A0's for the approximation, A0's XOR S for
the decision and the search.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .gf2 import DiagonalAssignment, Gf2Matrix, _reduce_rows, basis, completed_rows, rank_rows

ORACLE_MAX_DIM = 24


class OracleSizeError(ValueError):
    """Brute-force oracle invoked above its dimension guard."""


@dataclass(frozen=True)
class RankBounds:
    """Inclusive lower/upper bracket on the minimum achievable rank."""

    lower: int
    upper: int

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper:
            raise ValueError(f"invalid bounds ({self.lower}, {self.upper})")


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of a budget-k decision.

    ``witness`` is a diagonal achieving rank <= decided_k when the answer
    is yes, and None for a certified no.
    """

    decided_k: int
    witness: DiagonalAssignment | None

    @property
    def is_yes(self) -> bool:
        return self.witness is not None


def _erased_completion(m: Gf2Matrix, cap: int | None = None) -> tuple[list[int], dict[int, int]]:
    """Packed rows and row basis of A0, the completion with its diagonal erased.

    `basis` reads A0's rows as the completion yields them, and `tee`
    keeps each one read.  Once their rank passes ``cap`` the basis holds
    cap + 1 entries, the rest of the completion is never computed, and
    no rows are returned: no flip set is scored past the cap.
    """
    bits = map((1).__lshift__, range(m.n))  # 1 << i for row i
    read, kept = itertools.tee(map(operator.xor, completed_rows(m), bits))
    pivots = basis(read, cap)
    return [] if cap is not None and len(pivots) > cap else list(kept), pivots


def _columns(rows: list[int], keys: Iterable[int], n: int) -> list[int]:
    """Columns j of the n-bit ``rows``, for j in ``keys``, as packed ints.

    Bit i of column j is bit j of ``rows[i]``.  All of them are read
    from one string: the rows' n-digit binary spellings, bottom row
    first, so the digits of column j are every n-th one from n - 1 - j,
    and the first of them, of the last row, is the most significant.
    """
    top = 1 << n  # bin(row | top) is "0b1" and then the row's n bits, column n - 1 first
    bits = "".join([bin(row | top)[3:] for row in reversed(rows)])
    return [int(bits[n - 1 - j :: n] or "0", 2) for j in keys]


def _span(rows: Iterable[int]) -> list[int]:
    """Every XOR combination of ``rows`` by doubling: entry i XORs the rows at i's set bits."""
    words = [0]
    for row in rows:
        words += [x ^ row for x in words]
    return words


def _low_weight_support(gens: list[int], n: int) -> list[int]:
    """Entry s is the union of the supports of codewords of weight 1..s.

    The code is the span of the independent length-n words ``gens``.  Each
    codeword is one word of the `_span` of the first half of ``gens`` XOR
    one of the second half's, so about 2 * 2^(len(gens) / 2) are held at once.
    """
    half = len(gens) // 2
    low = _span(gens[:half])
    support = [0] * (n + 1)
    for high in _span(gens[half:]):
        for word in low:
            word ^= high
            support[word.bit_count()] |= word
    return list(itertools.accumulate(support, operator.or_))


def _with_rows(pivots: dict[int, int], rows: Iterable[int]) -> list[dict[int, int]]:
    """The XOR basis ``pivots`` plus each of ``rows`` alone, copied only for a new pivot."""
    reduced = _reduce_rows(rows, pivots)
    return [{**pivots, (r & -r).bit_length() - 1: r} if r else pivots for r in reduced]


def _flip_sweep(m: Gf2Matrix, k: int) -> Iterator[tuple[int, DiagonalAssignment]]:
    """Yield ``(value, witness)`` each time a flip set improves on the best.

    Flip sets S are walked by ascending size, then lexicographically; the
    value of S is rank(A0 + E_S), never below |S|, and the best starts
    at k + 1.  The first yield is the first flip set reaching rank <= k,
    and the last one is the first reaching the minimum.

    Each size is one depth-first walk that picks positions in increasing
    order, position i before skipping it, so flip sets come in order,
    with one level per pick.  A node carries the XOR basis of A0's rows
    before its position, picked rows flipped: skipped rows join it through
    one `_reduce_rows`, and a picked row is reduced once into the child's
    (`_with_rows`).  A node whose basis reaches the best is left; a leaf is
    scored by `rank_rows` of its basis and the rows after its last pick.

    Only flip sets that can still beat the best are scored.  With
    u = rank(A0), rank(A0 + E_S) >= u - |S|, so every flip set of size s
    has value at least its floor max(s, u - s).  A size whose floor is at
    least the best is skipped, and the walk leaves a size once an
    improvement reaches its floor; for k < ceil(u/2) no flip set is
    tried at all.  Some size has a floor of at most k exactly when
    u <= 2k, so the completion stops at the first rows of A0 whose rank
    passes 2k: a "no" below ceil(u/2) costs about 2k + 1 completed rows,
    not n.

    Within a size s, rank(A0 + E_S) >= u + s - a_S - b_S, where a_S (b_S)
    is the dimension of the subcode of colspace(A0) (rowspace(A0))
    supported inside S.  That subcode's support has at least a_S
    positions, each on a codeword of weight <= s, so a_S (b_S) is at most
    the number of positions of S on such codewords of the column (row)
    code.  Giving position i the cost [i on none in the column code] +
    [i on none in the row code], S can beat the best only if its cost is
    at most s - (u - best + 1); the walk leaves a node once the cheapest
    picks it still has to make cost more than is left.

    Both codes come from the XOR basis of A0's rows.  The basis rows
    generate the row code.  No basis row has a set bit below its key, so
    the basis restricted to the key columns is unitriangular; A0's
    columns at the keys are then u independent vectors of colspace(A0)
    and generate the column code; `_columns` reads them all from one
    binary spelling of the rows.  The 2^u codewords are listed once per
    sweep, at the first walked size with 2^u <= C(n, s), so listing them
    never takes more steps than walking that size's flip sets; they then
    price every later size.  Before that every position costs 0, a cover
    for which the bound says no more than the floor.
    """
    n = m.n
    erased, pivots = _erased_completion(m, cap=2 * k)
    u = len(pivots)  # capped at 2k + 1: every size is then skipped
    diagonal = sum(map(operator.and_, erased, map((1).__lshift__, range(n))))
    best = k + 1
    covered = None  # covered[code][s]: positions on a codeword of weight <= s
    for size in range(min(k, n) + 1):
        floor = max(size, u - size)
        if floor >= best:
            continue
        if covered is None and 1 << u <= math.comb(n, size):
            columns = _columns(erased, pivots, n)
            covered = [_low_weight_support(code, n) for code in (columns, [*pivots.values()])]
        col_cover, row_cover = (c[size] for c in covered) if covered else ((1 << n) - 1,) * 2
        free, half = col_cover & row_cover, col_cover ^ row_cover  # positions of cost 0, 1

        def least(i: int, t: int) -> int:
            """Least cost of t positions >= i."""
            t -= (free >> i).bit_count()
            ones = (half >> i).bit_count()
            return 0 if t <= 0 else t if t <= ones else 2 * t - ones

        def walk(start: int, t: int, left: int, prefix: dict[int, int], flips: int):
            """Improvements (value, flip mask) among ``flips`` plus t positions >= start."""
            if not t:
                value = rank_rows(itertools.chain(prefix.values(), erased[start:]), cap=best - 1)
                if value < best:
                    yield value, flips
                return
            pivots = dict(prefix)  # the rows skipped here join this copy
            skipped = _reduce_rows(erased[start:], pivots)
            for i in range(start, n - t + 1):
                if len(pivots) >= best or least(i, t) > left:  # least only grows with i
                    return
                c = 2 - (col_cover >> i & 1) - (row_cover >> i & 1)
                if c + least(i + 1, t - 1) <= left:
                    [picked] = _with_rows(pivots, [erased[i] ^ 1 << i])
                    yield from walk(i + 1, t - 1, left - c, picked, flips | 1 << i)
                row = next(skipped)
                if row:
                    pivots[(row & -row).bit_length() - 1] = row

        # fixed per size: an improvement that keeps the walk in this size
        # lowers the best, and the surplus candidates are merely scored
        for value, flips in walk(0, size, size - (u - best + 1), {}, 0):
            best = value  # at least size, as it is below best
            yield value, DiagonalAssignment(n, diagonal ^ flips)
            if floor >= best:
                break


def min_rank_decide(m: Gf2Matrix, k: int) -> DecisionOutcome:
    """Decide whether some diagonal rewrite of ``m`` has rank <= k.

    Tries flip sets of at most k diagonal positions of the erased
    completion, by ascending size and lexicographically within a size,
    so the returned witness is the first success in that canonical
    order.  Flip sets that cannot succeed are skipped (`_flip_sweep`),
    but at worst C(n, <= k) are scored.  k >= n is trivially yes.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    if k >= m.n:
        return DecisionOutcome(k, m.diagonal())
    for _, witness in _flip_sweep(m, k):
        return DecisionOutcome(k, witness)
    return DecisionOutcome(k, None)


def min_rank_approx(m: Gf2Matrix) -> tuple[RankBounds, DiagonalAssignment]:
    """Bracket the minimum achievable rank within a factor of 2.

    Completes ``m`` to an invertible matrix, erases the completed
    diagonal (adds the identity), and takes that rank as the upper
    bound; no diagonal rewrite can do better than half of it.  The
    returned witness, A0's own diagonal, achieves the upper bound exactly.
    """
    erased, pivots = _erased_completion(m)
    upper = len(pivots)
    return RankBounds((upper + 1) // 2, upper), Gf2Matrix._trusted(m.n, tuple(erased)).diagonal()


def min_rank_exact(
    m: Gf2Matrix, k_max: int
) -> tuple[int, DiagonalAssignment] | None:
    """Exact minimum achievable rank, if it is at most k_max.

    Returns ``(value, witness)`` or None when no rewrite reaches rank
    k_max or less.  One sweep of the decision's flip sets at budget
    k_max, scoring only those that can beat the best value so far, at
    worst C(n, <= k_max), so cap with care.  The witness is the one
    `min_rank_decide` returns for budget value.
    """
    if k_max < 0:
        raise ValueError("budget cap must be non-negative")
    result = None
    for result in _flip_sweep(m, k_max):
        pass
    return result


def min_rank_oracle(m: Gf2Matrix) -> tuple[int, DiagonalAssignment]:
    """Ground truth by exhaustion over all 2^n diagonals (n <= 24).

    Returns the true minimum and the lexicographically least minimizing
    diagonal, reading bit i of the assignment as digit i.  The rewrites
    are the leaves of a depth-first walk over the rows, each row's two
    versions in turn, bit i clear, then set, so leaves come in that
    order.  A node carries the XOR basis of the rows fixed so far, and
    `_with_rows` reduces each version of the next row into it once.
    Adding rows never lowers a rank, so a prefix whose basis already has
    as many rows as the best leaf's rank is dropped; the witness is the
    diagonal of the first least leaf.  On a 2-vCPU x86 host under Python
    3.11.7, `gen_random(n, 0.5, 1)` takes ~0.05 s at n = 16, ~0.15 s at
    18, ~0.4 s at 20, ~1.4 s at 22 and ~4 s at 24 (best of 3 in-process
    runs).
    """
    if m.n > ORACLE_MAX_DIM:
        raise OracleSizeError(f"oracle limited to n <= {ORACLE_MAX_DIM}, got {m.n}")

    def walk(i: int, pivots: dict[int, int], mask: int, best: tuple[int, int]) -> tuple[int, int]:
        """The first least (rank, diagonal) of ``best`` and the leaves past this prefix."""
        if i == m.n:
            return len(pivots), mask
        row = m.rows[i] & ~(1 << i)
        for bit, child in zip((0, 1 << i), _with_rows(pivots, (row, row | 1 << i))):
            if len(child) < best[0]:  # else no leaf past this prefix has a lower rank
                best = walk(i + 1, child, mask | bit, best)
        return best

    value, mask = walk(0, {}, 0, (m.n + 1, 0))
    return value, DiagonalAssignment(m.n, mask)


def upper_bound_even_rows(m: Gf2Matrix) -> DiagonalAssignment:
    """Diagonal making every row sum even, hence rank <= n - 1.

    Each entry is the XOR of the off-diagonal entries of its row; the
    rewritten matrix annihilates the all-ones vector, so it is
    degenerate.  Defined for n >= 1.
    """
    if m.n == 0:
        raise ValueError("bound requires n >= 1")
    odd = ((row & ~(1 << i)).bit_count() & 1 for i, row in enumerate(m.rows))
    return DiagonalAssignment.from_bits(odd)
