"""Deterministic random-instance generation.

Uses SplitMix64, a published 64-bit mixer with a golden-ratio Weyl
sequence, so that a (n, density, seed) triple reproduces the same matrix
bit-for-bit on any platform or implementation.  The exact procedure is
documented in the README.
"""

from __future__ import annotations

from .gf2 import Gf2Matrix

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream: state += 0x9E3779B97F4A7C15, output mixed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def gen_random(n: int, density: float, seed: int) -> Gf2Matrix:
    """Random n x n matrix with zero diagonal.

    Off-diagonal cells are visited in row-major order, one SplitMix64
    draw per cell; the entry is 1 when the draw is below
    ``density * 2**64`` (an exact integer threshold, so density 0 and 1
    degenerate to the all-zero and all-one off-diagonal patterns).  The
    seed must lie in 0..2^64 - 1, the state space of the stream.
    """
    if not isinstance(n, int):
        raise ValueError(f"dimension {n!r} is not an integer")
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    if not isinstance(seed, int) or not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} outside 0..2^64 - 1")
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
