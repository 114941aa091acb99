"""Machine-speed gauge: a fixed pure-Python kernel timed between requests.

The benchmark runs on shared hosts whose speed for identical pure-Python
work drifts by 10-20% between half-minute windows and by more over
minutes.  Every timing of a run moves with that drift, so seconds as
read off the clock compare runs made at different moments badly.

The gauge times a kernel that never changes, made of the two kinds of
work the package does: XOR-basis elimination of a fixed set of 128
pseudo-random 128-bit rows (big-int work, as in ``gf2`` and ``rankmin``)
and relabeling rotations of a fixed 2000-letter word (tuple and dict
work over a larger memory footprint, as in ``hieroglyph``).  Either part
alone tracks the other kind of work less well.  It runs between requests
(and set-up repetitions) for a fixed share of their time, so its samples
cover the run evenly.  ``factor()`` is the reference time of one kernel
unit divided by its mean time in this run: multiplying a run's seconds
by it gives seconds at the reference speed.  The kernel does not depend
on the package, so a change to the package moves the scaled seconds
exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

# Kernel time per unit of gauge work on the machine the baseline was
# measured on (see bench/README.md).  Only a fixed scale: any constant
# gives the same ratios between runs.
REFERENCE_S = 0.008
# Gauge time as a share of the time it accompanies.
SHARE = 0.05
PASSES = 2
ROTATIONS = 10
WARMUP_UNITS = 3


def _rows(n: int = 128, seed: int = 12345) -> tuple[int, ...]:
    """Fixed pseudo-random n-bit rows from a 64-bit LCG."""
    mask = (1 << 64) - 1
    x, rows = seed, []
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        y = (x * 0x9E3779B97F4A7C15) & mask
        rows.append(((x << 64) | y) & ((1 << n) - 1))
    return tuple(rows)


ROWS = _rows()
WORD = tuple(f"t{i}" for i in range(1000)) * 2


def kernel() -> tuple[int, tuple[int, ...]]:
    """Rank of ROWS by XOR basis, PASSES times, and the least relabeled
    rotation of WORD among ROTATIONS evenly spaced ones."""
    rank = 0
    for _ in range(PASSES):
        basis: list[int] = []
        for row in ROWS:
            for b in basis:
                row = min(row, row ^ b)
            if row:
                basis.append(row)
        rank = len(basis)
    best: tuple[int, ...] = ()
    step = len(WORD) // ROTATIONS
    for shift in range(0, len(WORD), step):
        rotated = WORD[shift:] + WORD[:shift]
        names: dict[str, int] = {}
        image = tuple(names.setdefault(tok, len(names)) for tok in rotated)
        if not best or image < best:
            best = image
    return rank, best


class Gauge:
    """Accumulates kernel units run alongside the timed work."""

    def __init__(self):
        for _ in range(WARMUP_UNITS):
            kernel()
        self.units = 0
        self.seconds = 0.0
        self.timed = 0.0

    def unit(self) -> None:
        start = time.perf_counter()
        kernel()
        self.seconds += time.perf_counter() - start
        self.units += 1

    def accompany(self, timed_s: float) -> None:
        """Add ``timed_s`` of timed work; run units up to the gauge's share."""
        self.timed += timed_s
        while self.seconds < SHARE * self.timed or self.units == 0:
            self.unit()

    def mark(self) -> tuple[int, float]:
        """The gauge's state, for ``factor(since=...)``."""
        return self.units, self.seconds

    def mean_s(self, since: tuple[int, float] = (0, 0.0)) -> float:
        return (self.seconds - since[1]) / (self.units - since[0])

    def factor(self, since: tuple[int, float] = (0, 0.0)) -> float:
        """Reference seconds per second of this run, or of its part after
        the mark ``since``."""
        return REFERENCE_S / self.mean_s(since)
