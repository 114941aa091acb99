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


def canonical_form(h: Hieroglyph) -> Hieroglyph:
    """Least representative of the word under rotation, reversal, relabeling.

    Every rotation of the word and of its reversal is relabeled by
    first-occurrence order; the lexicographically least result is
    returned.  Two hieroglyphs describe the same unoriented cyclic
    structure iff their canonical forms are equal.
    """
    word = h.letters
    length = len(word)
    if length == 0:
        return h
    best: tuple[int, ...] | None = None
    for seq in (word, word[::-1]):
        for r in range(length):
            rotated = seq[r:] + seq[:r]
            ids: dict[str, int] = {}
            img = []
            for tok in rotated:
                if tok not in ids:
                    ids[tok] = len(ids)
                img.append(ids[tok])
            key = tuple(img)
            if best is None or key < best:
                best = key
    assert best is not None
    n = length // 2
    if n <= len(string.ascii_lowercase):
        names = string.ascii_lowercase
        return Hieroglyph(tuple(names[i] for i in best))
    return Hieroglyph(tuple(f"t{i}" for i in best))
