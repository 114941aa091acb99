"""Deterministic random-instance generation.

Uses SplitMix64, a published 64-bit mixer with a golden-ratio Weyl
sequence, so that a (n, density, seed) triple reproduces the same matrix
bit-for-bit on any platform or implementation.  The exact procedure is
documented in the README.  Draw k of the stream (counting from 1)
depends only on k: its state is seed + k * gamma mod 2^64.  So
`gen_random` mixes a whole row of draws at once, one per 128-bit slot of
a packed int; `SplitMix64.next_u64` is the one-draw form of the stream.
"""

from __future__ import annotations

from .gf2 import Gf2Matrix

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# carry byte of a slot -> matrix text: no carry means draw < threshold
_CELL = bytes.maketrans(b"\x00\x01", b"10")


class SplitMix64:
    """SplitMix64 stream: state += 0x9E3779B97F4A7C15, output mixed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


def gen_random(n: int, density: float, seed: int) -> Gf2Matrix:
    """Random n x n matrix with zero diagonal.

    Off-diagonal cells are visited in row-major order, one SplitMix64
    draw per cell; the entry is 1 when the draw is below
    ``density * 2**64`` (an exact integer threshold, so density 0 and 1
    degenerate to the all-zero and all-one off-diagonal patterns).  The
    seed must lie in 0..2^64 - 1, the state space of the stream.

    The n - 1 draws of row i are computed together, by the same per-draw
    procedure: slot t of a packed int (bits 128t..128t+127) holds draw
    i * (n - 1) + t + 1 of the stream in its low 64 bits.  Masking back
    to those bits after each step but the last keeps every 64 x 64-bit
    product inside its slot.  Adding 2^64 - threshold then carries into
    bit 64 of a slot exactly when its draw is not below the threshold.
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
    lanes = n - 1
    width = 16 * lanes
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * lanes, "little")
    low = _MASK64 * ones
    offset = ((1 << 64) - threshold) * ones
    steps = int.from_bytes(
        b"".join((t * _GAMMA & _MASK64).to_bytes(16, "little") for t in range(1, n)), "little"
    )
    stride = (lanes * _GAMMA & _MASK64) * ones  # one row's draws further on
    state = (seed * ones + steps) & low
    rows = []
    for i in range(n):
        z = (state ^ (state >> 30)) & low
        z = z * _MIX1 & low
        z = (z ^ (z >> 27)) & low
        z = z * _MIX2 & low
        # the shift leaves bits of slot t + 1 in bits 97..127 of slot t,
        # where the carry into the clear bit 64 cannot reach them
        z = (z ^ (z >> 31)) + offset
        # big-endian byte 16(n - 2 - t) + 7 holds bits 64..71 of slot t,
        # so the slice lists columns n - 1 down to 0, skipping i
        carries = z.to_bytes(width, "big")[7::16]
        cut = lanes - i
        rows.append(int((carries[:cut] + b"\x01" + carries[cut:]).translate(_CELL), 2))
        state = (state + stride) & low
    return Gf2Matrix._trusted(n, tuple(rows))
