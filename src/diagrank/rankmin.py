"""Minimum rank over all rewrites of the main diagonal.

For a square GF(2) matrix M, the quantity of interest is the smallest
rank achievable by replacing the main-diagonal entries with arbitrary
bits.  This module provides:

* an exact fixed-budget decision (`min_rank_decide`), at worst C(n, <= k)
  eliminations capped at rank k,
* a factor-2 approximation (`min_rank_approx`) in two eliminations,
* an exact search (`min_rank_exact`) in one sweep of the decision's
  enumeration,
* a 2^n brute-force oracle (`min_rank_oracle`) for small matrices,
* the always-available n-1 upper bound via an even-row-sum diagonal
  (`upper_bound_even_rows`).

Decision and search work through the invertible completion M' of M and
its erasure A0 = M' + I.  A rewrite differing from M' in fewer than n-k
diagonal places cannot reach rank <= k (erasing r diagonal ones lowers
the rank by at most r), so only the rewrites A0 + E_S, flipping a set S
of at most k diagonal cells of A0, need to be tried.  Hence the minimum
rank is the least max(|S|, rank(A0 + E_S)) over all flip sets S, and
`_flip_sweep` scores only the flip sets that can beat the best so far.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from .gf2 import DiagonalAssignment, Gf2Matrix, basis, completed_rows, rank_rows

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


def _erased_completion(
    m: Gf2Matrix, cap: int | None = None
) -> tuple[int, list[int], dict[int, int]]:
    """Diagonal mask, packed rows and row basis of A0, the completion with its diagonal erased.

    The completion runs only as far as `basis` reads A0's rows: once their
    rank passes ``cap`` the basis holds cap + 1 entries, and the rows and
    the mask cover only the rows read so far.
    """
    erased: list[int] = []

    def rows() -> Iterator[int]:
        for i, row in enumerate(completed_rows(m)):
            row ^= 1 << i
            erased.append(row)
            yield row

    pivots = basis(rows(), cap)
    return sum(row & (1 << i) for i, row in enumerate(erased)), erased, pivots


def _low_weight_support(gens: list[int], n: int) -> list[int]:
    """Entry s is the union of the supports of codewords of weight 1..s.

    The code is the span of the independent length-n words ``gens``; its
    2^len(gens) codewords are walked in Gray-code order.
    """
    support = [0] * (n + 1)
    word = 0
    for i in range(1, 1 << len(gens)):
        word ^= gens[(i & -i).bit_length() - 1]
        support[word.bit_count()] |= word
    return list(itertools.accumulate(support, operator.or_))


def _cheap_subsets(costs: list[int], size: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Size-``size`` subsets of positions, in lexicographic order, costing <= budget.

    A subset costs the sum of ``costs`` (each 0, 1 or 2) over its
    positions.  A prefix is extended only while the cheapest completion
    from the positions after it still fits the budget; once no completion
    can exceed it, they are yielded as whole combination runs.
    """
    n = len(costs)
    zeros = [0] * (n + 1)  # zeros[i], ones[i]: positions >= i of cost 0, 1
    ones = [0] * (n + 1)
    for i in reversed(range(n)):
        zeros[i] = zeros[i + 1] + (costs[i] == 0)
        ones[i] = ones[i + 1] + (costs[i] == 1)

    def least(i: int, t: int) -> int:
        """Least cost of t positions >= i."""
        t -= zeros[i]
        if t <= 0:
            return 0
        return t if t <= ones[i] else 2 * t - ones[i]

    def walk(start: int, t: int, left: int, prefix: tuple[int, ...]):
        if 2 * t <= left or zeros[start] == n - start:  # every completion fits
            for rest in itertools.combinations(range(start, n), t):
                yield prefix + rest
            return
        for i in range(start, n - t + 1):
            if least(i, t) > left:  # least only grows with i
                return
            c = costs[i]
            if c + least(i + 1, t - 1) <= left:
                yield from walk(i + 1, t - 1, left - c, prefix + (i,))

    return walk(0, size, budget, ()) if budget >= 0 else iter(())


def _flip_sweep(m: Gf2Matrix, k: int) -> Iterator[tuple[int, DiagonalAssignment]]:
    """Yield ``(value, witness)`` each time a flip set improves on the best.

    Flip sets S are walked by ascending size, then lexicographically; the
    value of S is max(|S|, rank(A0 + E_S)) and the best starts at k + 1.
    The first yield is the first flip set reaching rank <= k, and the
    last one is the first reaching the minimum.

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
    at most s - (u - best + 1).

    Both codes come from the XOR basis of A0's rows.  The basis rows
    generate the row code.  No basis row has a set bit below its key, so
    the basis restricted to the key columns is unitriangular; A0's
    columns at the keys are then u independent vectors of colspace(A0)
    and generate the column code.  The 2^u codewords are listed once per
    sweep, at the first walked size with 2^u <= C(n, s), so listing them
    never takes more steps than walking that size's flip sets; they then
    price every later size.  Before that every position costs 0, a cover
    for which the bound says no more than the floor.
    """
    n = m.n
    base, erased, pivots = _erased_completion(m, cap=2 * k)
    u = len(pivots)  # capped at 2k + 1: every size is then skipped
    best = k + 1
    covered = None  # covered[code][s]: positions on a codeword of weight <= s
    for size in range(min(k, n) + 1):
        floor = max(size, u - size)
        if floor >= best:
            continue
        if covered is None and 1 << u <= math.comb(n, size):
            columns = [sum((row >> j & 1) << i for i, row in enumerate(erased)) for j in pivots]
            covered = [_low_weight_support(code, n) for code in (columns, [*pivots.values()])]
        col_cover, row_cover = (c[size] for c in covered) if covered else (-1, -1)
        costs = [2 - (col_cover >> i & 1) - (row_cover >> i & 1) for i in range(n)]
        # fixed per size: an improvement that keeps the walk in this size
        # lowers the best, and the surplus candidates are merely scored
        for flips in _cheap_subsets(costs, size, size - (u - best + 1)):
            rows = erased.copy()
            w = base
            for i in flips:
                rows[i] ^= 1 << i
                w ^= 1 << i
            value = max(size, rank_rows(rows, cap=best - 1))
            if value < best:
                best = value
                yield value, DiagonalAssignment(n, w)
                if floor >= best:
                    break


def min_rank_decide(m: Gf2Matrix, k: int) -> DecisionOutcome:
    """Decide whether some diagonal rewrite of ``m`` has rank <= k.

    Tries flip sets of at most k diagonal positions of the erased
    completion, by ascending size and lexicographically within a size,
    so the returned witness is the first success in that canonical
    order.  Flip sets that cannot succeed are skipped (`_flip_sweep`);
    the worst case is C(n, <= k) capped eliminations.  k >= n is
    trivially yes.
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
    returned witness achieves the upper bound exactly.
    """
    base, _, pivots = _erased_completion(m)
    upper = len(pivots)
    return RankBounds((upper + 1) // 2, upper), DiagonalAssignment(m.n, base)


def min_rank_exact(
    m: Gf2Matrix, k_max: int
) -> tuple[int, DiagonalAssignment] | None:
    """Exact minimum achievable rank, if it is at most k_max.

    Returns ``(value, witness)`` or None when no rewrite reaches rank
    k_max or less.  One sweep of the decision's flip sets at budget
    k_max, skipping those that cannot beat the best value so far; at
    worst it scores C(n, <= k_max) flip sets, so cap with care.  The
    witness is the one `min_rank_decide` returns for budget value.
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
    diagonal, reading bit i of the assignment as digit i.
    """
    n = m.n
    if n > ORACLE_MAX_DIM:
        raise OracleSizeError(f"oracle limited to n <= {ORACLE_MAX_DIM}, got {n}")
    off = [row & ~(1 << i) for i, row in enumerate(m.rows)]
    best_rank = n + 1
    best_bits: tuple[int, ...] = ()
    for bits in itertools.product((0, 1), repeat=n):
        r = rank_rows((off[i] | (bits[i] << i) for i in range(n)), cap=best_rank - 1)
        if r < best_rank:
            best_rank = r
            best_bits = bits
            if r == 0:
                break
    return best_rank, DiagonalAssignment.from_bits(best_bits)


def upper_bound_even_rows(m: Gf2Matrix) -> DiagonalAssignment:
    """Diagonal making every row sum even, hence rank <= n - 1.

    Each entry is the XOR of the off-diagonal entries of its row; the
    rewritten matrix annihilates the all-ones vector, so it is
    degenerate.  Defined for n >= 1.
    """
    if m.n == 0:
        raise ValueError("bound requires n >= 1")
    mask = 0
    for i, row in enumerate(m.rows):
        mask |= ((row & ~(1 << i)).bit_count() & 1) << i
    return DiagonalAssignment(m.n, mask)
