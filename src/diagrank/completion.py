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
keeps in bit i the leading minor taken with the row's own diagonal
value.  That value enters the minor additively, so a_i is the row's own
value when the bit is 1 and its complement when it is 0; either way the
reduced completed row is a pivot for column i.  The reduction is
`gf2.reduce_rows`, shared with `gf2.basis`, with pivot i keyed by bit i.
On dense rows it switches on Four-Russians tables after ~50 rows, and
the cost is ~n^3/(64 W) word operations (W = `gf2.W` = 6) instead of
~n^3/64; sparse rows, ~1 XOR each, never build a table.

Completed row i depends only on rows 0..i, so `completed_rows` produces
the rows one at a time, and a caller that needs only the first t rows
stops early after ~t^2 n bit operations; `complete_nondegenerate`
drains it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .gf2 import DiagonalAssignment, Gf2Matrix, reduce_rows


def completed_rows(m: Gf2Matrix) -> Iterator[int]:
    """Rows of the completion of ``m``, top to bottom, computed lazily.

    Row i is ``m.rows[i]`` with a_i at (i, i); it is computed only when
    requested, by reducing against the pivots of rows 0..i-1.
    """
    rows = m.rows
    pivots: dict[int, int] = {}  # pivot i: bit i set, bits 0..i-1 clear
    for i, reduced in enumerate(reduce_rows(rows, pivots)):
        bit = 1 << i
        pivots[i] = reduced | bit
        # bit i is the minor with the row's own diagonal value: keep it if 1
        yield rows[i] if reduced & bit else rows[i] ^ bit


def complete_nondegenerate(m: Gf2Matrix) -> tuple[Gf2Matrix, DiagonalAssignment]:
    """Rewrite the diagonal of ``m`` so the result has full rank.

    Returns ``(completed, d)`` where ``completed`` equals ``m`` outside
    the diagonal, carries ``d`` on it, and has determinant 1; every
    leading corner minor of ``completed`` is 1 as well.  The output is
    deterministic: the same input always yields the same diagonal.
    """
    completed = Gf2Matrix(m.n, tuple(completed_rows(m)))
    return completed, completed.diagonal()
