"""Diagonal completion to an invertible matrix.

Every square GF(2) matrix can be made non-degenerate by rewriting only
its main diagonal.  The diagonal is chosen greedily from top-left to
bottom-right: with entries a_1..a_{i-1} already fixed, the leading i x i
minor is evaluated with a zero in place i and a_i is set to its
complement.  Expanding the next minor along its last row shows that this
forces every leading minor of the result to 1, so the completed matrix
is invertible.

All n minors come from one forward elimination without pivoting: every
earlier leading minor is 1, so row i reduced by the pivot rows 0..i-1
(with a zero in place i) keeps that minor in bit i.  The diagonal value
enters the reduced row additively, so setting a_i = 1 - (that bit) makes
the reduced row a pivot for column i.  The reduction is `gf2.reduce_row`,
shared with `gf2.basis`, with pivot i keyed by bit i; the cost is
~n^3 bit operations (word-parallel over packed rows).

Completed row i depends only on rows 0..i, so `completed_rows` produces
the rows one at a time, and a caller that needs only the first t rows
stops early after ~t^2 n bit operations; `complete_nondegenerate`
drains it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .gf2 import DiagonalAssignment, Gf2Matrix, reduce_row


def completed_rows(m: Gf2Matrix) -> Iterator[int]:
    """Rows of the completion of ``m``, top to bottom, computed lazily.

    Row i is ``m.rows[i]`` with a_i at (i, i); it is computed only when
    requested, by reducing against the pivots of rows 0..i-1.
    """
    pivots: dict[int, int] = {}  # pivot i: bit i set, bits 0..i-1 clear
    for i, row in enumerate(m.rows):
        bit = 1 << i
        reduced = reduce_row(row & ~bit, pivots)  # the minor with a zero at (i, i)
        pivots[i] = reduced | bit
        yield row & ~bit if reduced & bit else row | bit


def complete_nondegenerate(m: Gf2Matrix) -> tuple[Gf2Matrix, DiagonalAssignment]:
    """Rewrite the diagonal of ``m`` so the result has full rank.

    Returns ``(completed, d)`` where ``completed`` equals ``m`` outside
    the diagonal, carries ``d`` on it, and has determinant 1; every
    leading corner minor of ``completed`` is 1 as well.  The output is
    deterministic: the same input always yields the same diagonal.
    """
    completed = Gf2Matrix(m.n, tuple(completed_rows(m)))
    return completed, completed.diagonal()
