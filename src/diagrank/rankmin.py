"""Minimum rank over all rewrites of the main diagonal.

For a square GF(2) matrix M, the quantity of interest is the smallest
rank achievable by replacing the main-diagonal entries with arbitrary
bits.  This module provides:

* an exact fixed-budget decision (`min_rank_decide`) that runs in
  ~n^(k+4) bit operations for budget k,
* a factor-2 approximation (`min_rank_approx`) in ~n^3,
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
rank is the least max(|S|, rank(A0 + E_S)) over all flip sets S.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .completion import complete_nondegenerate
from .gf2 import DiagonalAssignment, Gf2Matrix, rank_rows

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


def _erased_completion(m: Gf2Matrix) -> tuple[int, list[int], int]:
    """Diagonal mask, packed rows and rank of A0, the completion with its diagonal erased."""
    completed, d = complete_nondegenerate(m)
    erased = [row ^ (1 << i) for i, row in enumerate(completed.rows)]
    return d.complement().mask, erased, rank_rows(erased)


def _flip_sweep(m: Gf2Matrix, k: int) -> Iterator[tuple[int, DiagonalAssignment]]:
    """Yield ``(value, witness)`` each time a flip set improves on the best.

    Flip sets S are walked by ascending size, then lexicographically; the
    value of S is max(|S|, rank(A0 + E_S)) and the best starts at k + 1.
    The walk stops once |S| reaches the best value, so the first yield is
    the first flip set reaching rank <= k and the last one is the first
    reaching the minimum.  With u = rank(A0), rank(A0 + E_S) >= u - |S|,
    so a size s with u - s >= best cannot improve and is skipped; for
    k < ceil(u/2) no flip set is tried at all.
    """
    n = m.n
    base, erased, u = _erased_completion(m)
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
            value = max(size, rank_rows(rows, cap=best - 1))
            if value < best:
                best = value
                yield value, DiagonalAssignment(n, w)
                if best == size:  # no flip set of this size or larger can improve
                    return
                if u - size >= best:  # none of this size can improve
                    break


def min_rank_decide(m: Gf2Matrix, k: int) -> DecisionOutcome:
    """Decide whether some diagonal rewrite of ``m`` has rank <= k.

    Enumerates candidate diagonals through the invertible completion:
    flip sets of at most k diagonal positions, by ascending size and
    lexicographically within a size, so the returned witness is the
    first success in that canonical order.  Sizes below u - k, where u is
    the rank of the erased completion, are skipped, so k < ceil(u/2) is
    a no without any search.  k >= n is trivially yes.
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
    base, _, upper = _erased_completion(m)
    return RankBounds((upper + 1) // 2, upper), DiagonalAssignment(m.n, base)


def min_rank_exact(
    m: Gf2Matrix, k_max: int
) -> tuple[int, DiagonalAssignment] | None:
    """Exact minimum achievable rank, if it is at most k_max.

    Returns ``(value, witness)`` or None when no rewrite reaches rank
    k_max or less (the runtime grows as n^(k_max+4), so cap with care).
    The witness is the one `min_rank_decide` returns for budget value.
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
