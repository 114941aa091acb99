"""Double-occurrence cyclic words and their interlacement matrices.

A hieroglyph on n letters is an unoriented cyclic word of length 2n in
which every letter occurs exactly twice (a chord diagram read along the
circle).  Two letters overlap when their occurrences alternate around
the cycle (abab, not aabb).  The overlap matrix records that relation;
its minimum rank over free diagonal rewrites equals the least number of
Möbius strips on which the word's ribbon surface can be realized when
each ribbon may be twisted freely, which is what `genus_decide` and
`genus_approx` bound.

One loop builds the overlap rows, with each letter's column at a bit
its caller picks: `overlap_matrix` puts letter j at bit j, as every
`Gf2Matrix` does, and the text writer `render_overlap` at bit n - 1 - j,
the order in which ``bin`` prints a row.
"""

from __future__ import annotations

import string
from array import array
from collections import Counter
from dataclasses import dataclass, field

from .gf2 import Gf2Matrix
from .rankmin import DecisionOutcome, RankBounds, min_rank_approx, min_rank_decide


class HieroglyphFormatError(ValueError):
    """Input that is not a double-occurrence word."""


@dataclass(frozen=True)
class Hieroglyph:
    """Validated double-occurrence word; ``letters`` is the cyclic sequence.

    Any sequence of letters is stored as a tuple.  Validation pairs the
    letters in one pass and records two fields, both left out of
    ``repr``, ``==`` and ``hash``: ``mates[p]``, the position of the other
    occurrence of the letter at p, and ``alphabet``, the distinct letters
    in first-occurrence order.
    """

    letters: tuple[str, ...]
    mates: tuple[int, ...] = field(init=False, repr=False, compare=False)
    alphabet: tuple[str, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "alphabet", tuple(first))  # dicts keep insertion order

    @classmethod
    def _trusted(
        cls, letters: tuple[str, ...], mates: tuple[int, ...], alphabet: tuple[str, ...]
    ) -> "Hieroglyph":
        """A word whose pairing and alphabet the package already knows, unchecked."""
        h = object.__new__(cls)
        object.__setattr__(h, "letters", letters)
        object.__setattr__(h, "mates", mates)
        object.__setattr__(h, "alphabet", alphabet)
        return h

    @property
    def n(self) -> int:
        """Number of distinct letters."""
        return len(self.letters) // 2

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


def _overlap_rows(h: Hieroglyph, bits: list[int]) -> list[int]:
    """Overlap rows in alphabet order, with letter j's column at ``bits[j]``.

    With P[p] the XOR of the bits of the letters before position p, the
    row of a letter at positions lo < hi is P[hi] ^ P[lo + 1]: the
    letters seen once between its occurrences, i.e. those it alternates
    with.  One pass, O(n) big-int operations.
    """
    row_at = [0] * len(h.letters)  # row of the letter whose second occurrence is at p
    rows: list[int] = []
    prefix = 0  # P[pos]
    for p, q in enumerate(h.mates):
        if q > p:
            i = row_at[q] = len(rows)
            prefix ^= bits[i]
            rows.append(prefix)  # P[lo + 1]
        else:
            i = row_at[p]
            rows[i] ^= prefix  # P[hi]
            prefix ^= bits[i]
    return rows


def overlap_matrix(h: Hieroglyph) -> Gf2Matrix:
    """Interlacement matrix: entry (i, j) is 1 iff letters i and j alternate.

    Indexed by first-occurrence order of the alphabet; column j is bit j.
    """
    bits = [1 << j for j in range(h.n)]
    return Gf2Matrix._trusted(h.n, tuple(_overlap_rows(h, bits)))


def render_overlap(h: Hieroglyph, newline: str = "\n") -> str:
    """``render_matrix(overlap_matrix(h), newline)``, with no row reversed.

    The rows are built mirrored, letter j's column at bit n - 1 - j, so
    ``bin`` already writes columns 0..n-1 left to right.  As there,
    ``newline="\\n"`` gives the escaped body of the JSON string.
    """
    top = 1 << h.n  # bin(row | top) is "0b1" and then the row's n bits, column 0 first
    rows = _overlap_rows(h, [top >> j for j in range(1, h.n + 1)])
    return newline.join([*(bin(row | top)[3:] for row in rows), ""])


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
    """Smallest cyclic period of a non-empty ``values``, a divisor of its length.

    That is the first offset past 0 at which ``values`` occurs in its own
    doubling (Knuth, Morris and Pratt, 1977), found by one C-level
    ``bytes.find`` over the narrowest array that holds every value; a
    match that starts inside an item is skipped.
    """
    width = max(values).bit_length()
    packed = next(array(c, values) for c in "BHIQ" if 8 * array(c).itemsize >= width)
    size = packed.itemsize
    pattern = packed.tobytes()
    doubled = pattern + pattern
    offset = doubled.find(pattern, size)
    while offset % size:
        offset = doubled.find(pattern, offset + 1)
    return offset // size


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
    If g has cyclic period d, its first offset in its own doubling,
    starts r and r + d give the same v, so only starts r < d of each
    orientation are candidates; the reversal's g has the same period.
    Each letter gives gaps e and L - e, so v is 0 before t0 = min(g) in
    both orientations, and the starts kept at t0 are those with
    g[r + t0] = t0, found with ``list.index``.  From t0 + 1 on, they are
    filtered one position at a time, keeping those with the greatest
    v[t], until one is left or t = L.
    The winner is labeled from its g alone: a first occurrence takes the
    next label, a repeat copies the label g places back.  Its g also
    gives its pairing, the mate of t being (t - g) mod L, and the labels
    in order are its alphabet, so the result is not validated again.
    Typical cost is O(n); near-periodic words, whose candidates agree on
    long prefixes, cost up to O(n^2).
    """
    length = len(h.letters)
    if length == 0:
        return h
    forward = [(p - q) % length for p, q in enumerate(h.mates)]
    # each orientation's g, doubled, so start s reads gaps[s + t]
    gaps = 2 * forward + 2 * [length - x for x in reversed(forward)]
    period = _period(forward)  # reversal and x -> L - x keep the cyclic period
    t = min(forward)
    starts: list[int] = []
    for lo in (t, 2 * length + t):  # each orientation's candidates, read at t
        try:
            pos = gaps.index(t, lo, lo + period)
            while True:
                starts.append(pos - t)
                pos = gaps.index(t, pos + 1, lo + period)
        except ValueError:
            pass
    t += 1
    while len(starts) > 1 and t < length:
        vals = [gaps[s + t] for s in starts]
        best = max((g for g in vals if g <= t), default=0)
        if best:
            starts = [s for s, g in zip(starts, vals) if g == best]
        t += 1
    winner = gaps[starts[0] : starts[0] + length]
    small = h.n <= len(string.ascii_lowercase)
    alphabet = tuple(string.ascii_lowercase[: h.n] if small else map("t{}".format, range(h.n)))
    names = iter(alphabet)
    letters: list[str] = []
    for t, g in enumerate(winner):
        letters.append(next(names) if g > t else letters[t - g])
    mates = tuple((t - g) % length for t, g in enumerate(winner))
    return Hieroglyph._trusted(tuple(letters), mates, alphabet)
