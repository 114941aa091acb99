import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagrank.gf2 import Gf2Matrix, rank, with_diagonal
from diagrank.hieroglyph import (
    Hieroglyph,
    HieroglyphFormatError,
    canonical_form,
    genus_approx,
    genus_decide,
    overlap_matrix,
    parse_hieroglyph,
)
from diagrank.rankmin import min_rank_exact, min_rank_oracle
from helpers import (
    naive_overlap,
    random_hieroglyph,
    random_image,
    rotation_scan_canonical,
    token_names,
)

# parsing ----------------------------------------------------------------------


def test_parse_contiguous_characters():
    h = parse_hieroglyph("abab")
    assert h.letters == ("a", "b", "a", "b")
    assert h.n == 2 and h.alphabet == ("a", "b")
    assert h.to_text() == "abab"


def test_parse_whitespace_tokens():
    h = parse_hieroglyph("t1 t2  t1\tt2")
    assert h.letters == ("t1", "t2", "t1", "t2")
    assert h.to_text() == "t1 t2 t1 t2"


def test_parse_comma_tokens():
    assert parse_hieroglyph("x,y,x,y").letters == ("x", "y", "x", "y")
    assert parse_hieroglyph(" x , y ,x,y ").letters == ("x", "y", "x", "y")


def test_parse_empty_word():
    h = parse_hieroglyph("")
    assert h.n == 0 and h.letters == ()


def test_parse_rejects_bad_words():
    with pytest.raises(HieroglyphFormatError):
        parse_hieroglyph("aba")  # odd length
    with pytest.raises(HieroglyphFormatError):
        parse_hieroglyph("aab")  # b occurs once
    with pytest.raises(HieroglyphFormatError):
        parse_hieroglyph("abca")  # b and c occur once
    with pytest.raises(HieroglyphFormatError):
        parse_hieroglyph("aaaa")  # a occurs four times
    with pytest.raises(HieroglyphFormatError):
        parse_hieroglyph("a,,a")  # empty token


def test_construction_rejects_bad_tokens():
    with pytest.raises(HieroglyphFormatError):
        Hieroglyph(("a", "", "a", ""))


def test_alphabet_order_is_first_occurrence():
    assert parse_hieroglyph("baba").alphabet == ("b", "a")


# overlap matrix -----------------------------------------------------------------


def test_overlap_fixed_cases():
    assert overlap_matrix(parse_hieroglyph("abab")).to_lists() == [[0, 1], [1, 0]]
    assert overlap_matrix(parse_hieroglyph("aabb")) == Gf2Matrix.zero(2)
    assert overlap_matrix(parse_hieroglyph("abcabc")).to_lists() == [
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 0],
    ]
    assert overlap_matrix(parse_hieroglyph("aabbcc")) == Gf2Matrix.zero(3)
    assert overlap_matrix(parse_hieroglyph("abacbc")).to_lists() == [
        [0, 1, 0],
        [1, 0, 1],
        [0, 1, 0],
    ]
    assert overlap_matrix(parse_hieroglyph("")) == Gf2Matrix.zero(0)


def test_overlap_matches_pairwise_check():
    rng = random.Random(31)
    for _ in range(200):
        h = random_hieroglyph(rng, rng.randrange(1, 13))
        assert overlap_matrix(h).to_lists() == naive_overlap(h)


def test_overlap_rows_follow_alphabet_order():
    h = parse_hieroglyph("baba")
    # rows are indexed b, a here; the relation itself is unchanged
    assert overlap_matrix(h).to_lists() == [[0, 1], [1, 0]]


# genus bounds ---------------------------------------------------------------------


def test_genus_fixed_cases():
    assert genus_decide(parse_hieroglyph("aabb"), 0).is_yes
    assert genus_decide(parse_hieroglyph("aabbcc"), 0).is_yes
    out = genus_decide(parse_hieroglyph("abab"), 0)
    assert not out.is_yes
    out = genus_decide(parse_hieroglyph("abab"), 1)
    assert out.is_yes and out.witness.to_string() == "11"
    bounds = genus_approx(parse_hieroglyph("abab"))
    assert (bounds.lower, bounds.upper) == (1, 2)
    assert genus_approx(parse_hieroglyph("aabb")).upper == 0
    aabbcc = genus_approx(parse_hieroglyph("aabbcc"))
    assert (aabbcc.lower, aabbcc.upper) == (0, 0)


def test_genus_witness_achieves_budget():
    rng = random.Random(37)
    for _ in range(40):
        h = random_hieroglyph(rng, rng.randrange(1, 9))
        m = overlap_matrix(h)
        value, _ = min_rank_oracle(m)
        out = genus_decide(h, value)
        assert out.is_yes
        assert rank(with_diagonal(m, out.witness)) <= value
        assert not genus_decide(h, value - 1).is_yes if value else True


def test_genus_invariant_under_symmetry():
    rng = random.Random(41)
    for _ in range(30):
        h = random_hieroglyph(rng, rng.randrange(1, 8))
        g = random_image(h, rng)
        vh = min_rank_exact(overlap_matrix(h), h.n)
        vg = min_rank_exact(overlap_matrix(g), g.n)
        assert vh is not None and vg is not None
        assert vh[0] == vg[0]
        # the factor-2 bracket depends on letter order, but both must
        # contain the (shared) true value
        for bounds in (genus_approx(h), genus_approx(g)):
            assert bounds.lower <= vh[0] <= bounds.upper


def test_disjoint_union_adds_genus():
    rng = random.Random(43)
    for _ in range(20):
        a = random_hieroglyph(rng, rng.randrange(1, 5))
        # second word on letters disjoint from a's (token_names starts at "a")
        fresh = [f"u{i}" for i in range(rng.randrange(1, 5))]
        word = fresh * 2
        rng.shuffle(word)
        b = Hieroglyph(tuple(word))
        joined = Hieroglyph(a.letters + b.letters)
        va, _ = min_rank_oracle(overlap_matrix(a))
        vb, _ = min_rank_oracle(overlap_matrix(b))
        vj, _ = min_rank_oracle(overlap_matrix(joined))
        assert vj == va + vb


# canonical form ---------------------------------------------------------------------


def test_canonical_fixed_cases():
    assert canonical_form(parse_hieroglyph("baba")).to_text() == "abab"
    assert canonical_form(parse_hieroglyph("abba")).to_text() == "aabb"
    assert canonical_form(parse_hieroglyph("abab")).to_text() == "abab"
    assert canonical_form(parse_hieroglyph("")).letters == ()
    assert (
        canonical_form(parse_hieroglyph("abab")).letters
        != canonical_form(parse_hieroglyph("aabb")).letters
    )


def test_canonical_idempotent():
    rng = random.Random(47)
    for _ in range(30):
        h = random_hieroglyph(rng, rng.randrange(1, 10))
        c = canonical_form(h)
        assert canonical_form(c) == c


def test_canonical_invariant_under_symmetry():
    rng = random.Random(53)
    for _ in range(60):
        h = random_hieroglyph(rng, rng.randrange(1, 10))
        assert canonical_form(random_image(h, rng)) == canonical_form(h)


def test_canonical_separates_inequivalent_words():
    # abab has an alternating pair, aabb does not; no symmetry maps one
    # to the other, and the overlap rank certifies it
    a = canonical_form(parse_hieroglyph("abab"))
    b = canonical_form(parse_hieroglyph("aabb"))
    assert a != b


def test_canonical_names_beyond_alphabet():
    rng = random.Random(59)
    h = random_hieroglyph(rng, 27)
    c = canonical_form(h)
    assert c.n == 27
    assert c.letters[0] == "t0"
    assert canonical_form(c) == c


def test_canonical_matches_rotation_scan_random():
    rng = random.Random(61)
    for _ in range(3000):
        h = random_hieroglyph(rng, rng.randrange(13))
        assert canonical_form(h) == rotation_scan_canonical(h), h.letters


def structured_word(family: str, n: int, rng: random.Random) -> list[str]:
    """Words whose rotations agree on long prefixes (n >= 2)."""
    names = token_names(n)
    w = names.copy()
    rng.shuffle(w)
    if family == "periodic":
        return w + w
    if family == "mirror":
        return w + w[::-1]
    if family == "nested":
        return [x for x in names for _ in range(2)]
    if family == "two-block":
        a, b = w[: n // 2], w[n // 2 :]
        return a + a + b + b
    if family == "near-periodic":  # w·w with one transposition
        word = w + w
        i, j = rng.sample(range(2 * n), 2)
        word[i], word[j] = word[j], word[i]
        return word
    if family == "nested-defect":  # aabbcc... with one abab
        word = [x for x in names for _ in range(2)]
        i = 2 * rng.randrange(n - 1) + 1
        word[i], word[i + 1] = word[i + 1], word[i]
        return word
    raise ValueError(family)


@pytest.mark.parametrize(
    "family", ["periodic", "mirror", "nested", "two-block", "near-periodic", "nested-defect"]
)
def test_canonical_matches_rotation_scan_structured(family):
    rng = random.Random(67)
    for n in range(2, 61):
        h = Hieroglyph(tuple(structured_word(family, n, rng)))
        c = canonical_form(h)
        assert c == rotation_scan_canonical(h), (family, n)
        assert canonical_form(random_image(h, rng)) == c, (family, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.randoms(use_true_random=False))
def test_canonical_invariant_under_random_image(n, rnd):
    h = random_hieroglyph(rnd, n)
    assert canonical_form(random_image(h, rnd)) == canonical_form(h)
