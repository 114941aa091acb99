"""Double-occurrence cyclic words and their interlacement matrices.

A hieroglyph on n letters is an unoriented cyclic word of length 2n in
which every letter occurs exactly twice (a chord diagram read along the
circle).  Two letters overlap when their occurrences alternate around
the cycle (abab, not aabb).  The overlap matrix records that relation;
its minimum rank over free diagonal rewrites equals the least number of
Möbius strips on which the word's ribbon surface can be realized when
each ribbon may be twisted freely, which is what `genus_decide` and
`genus_approx` bound.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field

from .gf2 import Gf2Matrix
from .rankmin import DecisionOutcome, RankBounds, min_rank_approx, min_rank_decide


class HieroglyphFormatError(ValueError):
    """Input that is not a double-occurrence word."""


@dataclass(frozen=True)
class Hieroglyph:
    """Validated double-occurrence word; ``letters`` is the cyclic sequence.

    Any sequence of letters is stored as a tuple.  ``mates[p]``, the
    position of the other occurrence of the letter at p, is recorded by
    validation and left out of ``repr``, ``==`` and ``hash``.
    """

    letters: tuple[str, ...]
    mates: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        mates = [-1] * len(self.letters)  # -1: unpaired, its letter does not occur twice
        first: dict[str, int] = {}
        for p, tok in enumerate(self.letters):
            if not isinstance(tok, str):
                raise HieroglyphFormatError(f"token {tok!r} is not a string")
            if not tok:
                raise HieroglyphFormatError("empty token")
            q = first.setdefault(tok, p)
            if q < p and mates[q] < 0:
                mates[q], mates[p] = p, q
        if len(self.letters) % 2:
            raise HieroglyphFormatError(
                f"odd length {len(self.letters)}: not a double-occurrence word"
            )
        if -1 in mates:
            tok, c = next((tok, c) for tok, c in Counter(self.letters).items() if c != 2)
            raise HieroglyphFormatError(f"letter {tok!r} occurs {c} times, expected 2")
        object.__setattr__(self, "mates", tuple(mates))

    @classmethod
    def _trusted(cls, letters: tuple[str, ...], mates: tuple[int, ...]) -> "Hieroglyph":
        """A word whose pairing the package already knows, unchecked."""
        h = object.__new__(cls)
        object.__setattr__(h, "letters", letters)
        object.__setattr__(h, "mates", mates)
        return h

    @property
    def n(self) -> int:
        """Number of distinct letters."""
        return len(self.letters) // 2

    @property
    def alphabet(self) -> tuple[str, ...]:
        """Distinct letters in first-occurrence order."""
        return tuple(self.letters[p] for p, q in enumerate(self.mates) if q > p)

    def to_text(self) -> str:
        """The word as `parse_hieroglyph` reads it back.

        Every word that `parse_hieroglyph` returns round-trips.  Letters
        holding a comma, or whitespace at either end, can only be built
        through the constructor and do not: a comma splits such a letter
        and the stripping of comma fields trims it.
        """
        joined = "".join(self.letters)
        if joined.split() != [joined]:  # a letter holds whitespace: commas keep it whole
            return ",".join(self.letters)
        if all(len(tok) == 1 for tok in self.letters):
            return joined
        return " ".join(self.letters)


def parse_hieroglyph(text: str) -> Hieroglyph:
    """Parse a word: contiguous single characters, or tokens separated by
    whitespace / commas (multi-character letters allowed)."""
    s = text.strip()
    if "," in s:
        tokens = [field.strip() for field in s.split(",")]
        if any(not field for field in tokens):
            raise HieroglyphFormatError("empty token between commas")
    elif any(c.isspace() for c in s):
        tokens = s.split()
    else:
        tokens = list(s)
    return Hieroglyph(tuple(tokens))


def overlap_matrix(h: Hieroglyph) -> Gf2Matrix:
    """Interlacement matrix: entry (i, j) is 1 iff letters i and j alternate.

    Indexed by first-occurrence order of the alphabet.  With P[p] the XOR
    of the letter bits before position p, the row of a letter at
    positions lo < hi is P[hi] ^ P[lo + 1]: the letters seen once between
    its occurrences, i.e. those it alternates with.  One pass, O(n)
    big-int operations.
    """
    row_at = [0] * len(h.letters)  # row of the letter whose second occurrence is at p
    rows: list[int] = []
    prefix = 0  # P[pos]
    for p, q in enumerate(h.mates):
        if q > p:
            i = row_at[q] = len(rows)
            prefix ^= 1 << i
            rows.append(prefix)  # P[lo + 1]
        else:
            i = row_at[p]
            rows[i] ^= prefix  # P[hi]
            prefix ^= 1 << i
    return Gf2Matrix._trusted(h.n, tuple(rows))


def genus_decide(h: Hieroglyph, k: int) -> DecisionOutcome:
    """Can the word's surface be realized with at most k Möbius strips?

    Decided on the overlap matrix; bit i of the witness is the twisting
    datum for ribbon i (alphabet order).
    """
    return min_rank_decide(overlap_matrix(h), k)


def genus_approx(h: Hieroglyph) -> RankBounds:
    """Factor-2 bracket on the least number of Möbius strips."""
    bounds, _ = min_rank_approx(overlap_matrix(h))
    return bounds


def _period(values: list[int]) -> int:
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


def canonical_form(h: Hieroglyph) -> Hieroglyph:
    """Least representative of the word under rotation, reversal, relabeling.

    Of every rotation of the word and of its reversal, relabeled by
    first-occurrence order, the lexicographically least image is
    returned (letters ``a..z``, or ``t0, t1, ...`` beyond 26).  Two
    hieroglyphs describe the same unoriented cyclic structure iff their
    canonical forms are equal.

    The winner is chosen on a relabel-invariant encoding read off the
    pairing.  Let g[p] = (p - mates[p]) mod L be the backward cyclic
    distance from position p to the other occurrence of its letter; the
    reversal's g is L - g, in reverse order.  In the rotation starting at
    r, position t is a first occurrence iff g[r + t] > t.  Of two
    rotations whose images agree before t, a first occurrence at t gets
    a fresh label, larger than every earlier one; a repeat gets the
    label of its first occurrence, t - g positions back, so a larger g
    means a smaller label.  The least image is therefore the rotation
    whose sequence v[t] = (g[r + t] if g[r + t] <= t else 0) is
    lexicographically greatest, and equal sequences give equal images.
    All 2L candidates (L = 2n) are filtered one position at a time,
    keeping those with the greatest v[t], until one is left or t = L;
    positions t < min(g) are skipped, since v is 0 there for all.  If g
    has cyclic period d, starts r and r + d give the same v, so only
    starts r < d are candidates; the reversal's g has the same period.
    The winner is labeled from its g alone: a first occurrence takes the
    next label, a repeat copies the label g places back.  Its g also
    gives its pairing, the mate of t being (t - g) mod L, so the result
    is not validated again.  Typical cost is O(n); near-periodic words,
    whose candidates agree on long prefixes, cost up to O(n^2).
    """
    length = len(h.letters)
    if length == 0:
        return h
    forward = [(p - q) % length for p, q in enumerate(h.mates)]
    # each orientation's g, doubled, so start s reads gaps[s + t]
    gaps = 2 * forward + 2 * [length - x for x in reversed(forward)]
    period = _period(forward)  # reversal and x -> L - x keep the cyclic period
    starts = [*range(period), *range(2 * length, 2 * length + period)]
    t = min(gaps)
    while len(starts) > 1 and t < length:
        vals = [gaps[s + t] for s in starts]
        best = max((g for g in vals if g <= t), default=0)
        if best:
            starts = [s for s, g in zip(starts, vals) if g == best]
        t += 1
    winner = gaps[starts[0] : starts[0] + length]
    small = h.n <= len(string.ascii_lowercase)
    names = iter(string.ascii_lowercase) if small else map("t{}".format, range(h.n))
    letters: list[str] = []
    for t, g in enumerate(winner):
        letters.append(next(names) if g > t else letters[t - g])
    mates = tuple((t - g) % length for t, g in enumerate(winner))
    return Hieroglyph._trusted(tuple(letters), mates)
