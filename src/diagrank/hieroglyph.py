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
from dataclasses import dataclass

from .gf2 import Gf2Matrix
from .rankmin import DecisionOutcome, RankBounds, min_rank_approx, min_rank_decide


class HieroglyphFormatError(ValueError):
    """Input that is not a double-occurrence word."""


@dataclass(frozen=True)
class Hieroglyph:
    """Validated double-occurrence word; ``letters`` is the cyclic sequence."""

    letters: tuple[str, ...]

    def __post_init__(self):
        counts: dict[str, int] = {}
        for tok in self.letters:
            if not isinstance(tok, str) or not tok:
                raise HieroglyphFormatError("empty token")
            counts[tok] = counts.get(tok, 0) + 1
        if len(self.letters) % 2:
            raise HieroglyphFormatError(
                f"odd length {len(self.letters)}: not a double-occurrence word"
            )
        for tok, c in counts.items():
            if c != 2:
                raise HieroglyphFormatError(f"letter {tok!r} occurs {c} times, expected 2")

    @property
    def n(self) -> int:
        """Number of distinct letters."""
        return len(self.letters) // 2

    @property
    def alphabet(self) -> tuple[str, ...]:
        """Distinct letters in first-occurrence order."""
        seen: dict[str, None] = {}
        for tok in self.letters:
            seen.setdefault(tok)
        return tuple(seen)

    def to_text(self) -> str:
        if all(len(tok) == 1 for tok in self.letters):
            return "".join(self.letters)
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
    index: dict[str, int] = {}
    rows: list[int] = []
    prefix = 0  # P[pos]
    for tok in h.letters:
        i = index.setdefault(tok, len(index))
        if i == len(rows):
            prefix ^= 1 << i
            rows.append(prefix)  # P[lo + 1]
        else:
            rows[i] ^= prefix  # P[hi]
            prefix ^= 1 << i
    return Gf2Matrix(h.n, tuple(rows))


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


def _gaps(seq: tuple[str, ...]) -> list[int]:
    """g[p]: backward cyclic distance from position p to its letter's other occurrence."""
    length = len(seq)
    gaps = [0] * length
    first: dict[str, int] = {}
    for p, tok in enumerate(seq):
        q = first.pop(tok, None)
        if q is None:
            first[tok] = p
        else:
            gaps[p] = p - q
            gaps[q] = length - (p - q)
    return gaps


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

    The winner is chosen on a relabel-invariant encoding and only it is
    relabeled.  Let g[p] be the backward cyclic distance from position p
    to the other occurrence of its letter.  In the rotation starting at
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
    starts r < d are candidates.  Typical cost is O(n); near-periodic
    words, whose candidates agree on long prefixes, cost up to O(n^2).
    """
    word = h.letters
    length = len(word)
    if length == 0:
        return h
    orientations = (word, word[::-1])
    gaps: list[int] = []  # each orientation's g, doubled, so start s reads gaps[s + t]
    starts: list[int] = []
    for seq in orientations:
        g = _gaps(seq)
        starts.extend(range(len(gaps), len(gaps) + _period(g)))
        gaps.extend(g + g)
    t = min(gaps)
    while len(starts) > 1 and t < length:
        vals = [gaps[s + t] for s in starts]
        best = max((g for g in vals if g <= t), default=0)
        if best:
            starts = [s for s, g in zip(starts, vals) if g == best]
        t += 1
    orientation, r = divmod(starts[0], 2 * length)
    seq = orientations[orientation]
    ids: dict[str, int] = {}
    image = [ids.setdefault(tok, len(ids)) for tok in seq[r:] + seq[:r]]
    if h.n <= len(string.ascii_lowercase):
        names = string.ascii_lowercase
        return Hieroglyph(tuple(names[i] for i in image))
    return Hieroglyph(tuple(f"t{i}" for i in image))
