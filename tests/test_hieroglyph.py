import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagrank.gf2 import Gf2Matrix, rank, render_matrix, with_diagonal
from diagrank.hieroglyph import (
    Hieroglyph,
    HieroglyphFormatError,
    _period,
    canonical_form,
    genus_approx,
    genus_decide,
    overlap_matrix,
    parse_hieroglyph,
    render_overlap,
)
from diagrank.rankmin import min_rank_exact, min_rank_oracle
from helpers import (
    naive_overlap,
    prefix_period,
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
    h = parse_hieroglyph("a b,c,a b,c")  # a letter with whitespace is written back with commas
    assert h.letters == ("a b", "c", "a b", "c")
    assert h.to_text() == "a b,c,a b,c"


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


@pytest.mark.parametrize(
    "letters, message",
    [
        # an empty token wins over the length, the length over the counts
        (("a", "a", "a", ""), "empty token"),
        (("a", "a", "a"), "odd length 3: not a double-occurrence word"),
        # the first bad letter in first-occurrence order is named
        (("b", "a", "a", "a", "b", "c"), "letter 'a' occurs 3 times, expected 2"),
        (("a", "b", "b", "b"), "letter 'a' occurs 1 times, expected 2"),
        (("a", "a", "b", "b", "b", "b"), "letter 'b' occurs 4 times, expected 2"),
        # a non-string token has its own message and also wins over the length
        ((1, 1), "token 1 is not a string"),
        (("a", "a", 1), "token 1 is not a string"),
    ],
)
def test_format_error_messages_and_order(letters, message):
    with pytest.raises(HieroglyphFormatError) as exc:
        Hieroglyph(letters)
    assert str(exc.value) == message


def test_letters_are_stored_as_a_tuple():
    h = Hieroglyph(["a", "b", "a", "b"])
    assert type(h.letters) is tuple
    assert h == parse_hieroglyph("abab") and hash(h) == hash(parse_hieroglyph("abab"))


def test_alphabet_order_is_first_occurrence():
    assert parse_hieroglyph("baba").alphabet == ("b", "a")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.randoms(use_true_random=False))
def test_mates_pair_each_position_with_its_letters_other_occurrence(n, rnd):
    h = random_hieroglyph(rnd, n)
    assert len(h.mates) == len(h.letters)
    for p, q in enumerate(h.mates):
        assert q != p and h.mates[q] == p
        assert h.letters[q] == h.letters[p]


def test_pairing_is_left_out_of_repr_eq_and_hash():
    h = parse_hieroglyph("abab")
    assert h.mates == (2, 3, 0, 1) and h.alphabet == ("a", "b")
    assert repr(h) == "Hieroglyph(letters=('a', 'b', 'a', 'b'))"
    other = Hieroglyph(h.letters)
    object.__setattr__(other, "mates", ())
    object.__setattr__(other, "alphabet", ())
    assert other == h and hash(other) == hash(h) and repr(other) == repr(h)
    with pytest.raises(TypeError):
        Hieroglyph(h.letters, (2, 3, 0, 1))  # not an init field
    with pytest.raises(TypeError):
        Hieroglyph(h.letters, alphabet=("a", "b"))


@pytest.mark.parametrize(
    "text",
    [
        *["", "abab", "αβαβ", "a/a/"],  # contiguous
        *["t1 t2  t1\tt2", "αβ γ αβ γ"],  # whitespace
        *["x,y,x,y", "xy,z,xy,z", "a b,c,a b,c", " a\tb , c,a\tb,c"],  # commas
    ],
)
def test_to_text_round_trips(text):
    h = parse_hieroglyph(text)
    assert parse_hieroglyph(h.to_text()) == h


@pytest.mark.parametrize(
    "letters, read_back",
    [
        (("a,b", "c", "a,b", "c"), "odd length 3"),  # a comma splits the letter
        ((" a", "c", " a", "c"), ("a", "c", "a", "c")),  # comma fields are stripped
        (("a ", "c", "a ", "c"), ("a", "c", "a", "c")),
    ],
)
def test_to_text_of_api_only_letters_does_not_round_trip(letters, read_back):
    # the constructor takes letters that parse_hieroglyph cannot make; documented, not rejected
    text = Hieroglyph(letters).to_text()
    if isinstance(read_back, str):
        with pytest.raises(HieroglyphFormatError, match=read_back):
            parse_hieroglyph(text)
    else:
        assert parse_hieroglyph(text).letters == read_back


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


def overlap_writer_cases():
    rng = random.Random(37)
    for n in [*range(41), 500, 1000, 2048]:
        yield random_hieroglyph(rng, n)
    yield parse_hieroglyph("t10 t2 t10 t2 t333 t333")  # multi-character letters
    yield parse_hieroglyph("a b,c,a b,c")  # a letter that only commas hold together
    yield Hieroglyph(("a,b", "c", "a,b", "c"))  # a letter holding a comma
    yield parse_hieroglyph("αβγαγβ")  # non-ASCII letters
    yield parse_hieroglyph("αβ γ δ αβ δ γ")


def test_render_overlap_writes_the_overlap_matrix():
    # the mirrored rows print as the matrix's rows do, in both newline forms
    for h in overlap_writer_cases():
        naive = "".join(f"{''.join(map(str, row))}\n" for row in naive_overlap(h))
        m = overlap_matrix(h)
        for nl in ("\n", "\\n"):
            text = render_overlap(h, nl)
            assert text == render_matrix(m, nl) == naive.replace("\n", nl), (h.n, nl)
        assert render_overlap(h) == naive


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


STRUCTURED_FAMILIES = ("periodic", "mirror", "nested", "two-block", "near-periodic", "nested-defect")


@pytest.mark.parametrize("family", ["random", *STRUCTURED_FAMILIES])
def test_alphabet_is_the_first_occurrences_of_the_pairing(family):
    rng = random.Random(73)
    for n in [*range(2, 41), 500, 2048]:
        if family == "random":
            h = random_hieroglyph(rng, n)
        else:
            h = Hieroglyph(tuple(structured_word(family, n, rng)))
        assert h.alphabet == tuple(h.letters[p] for p, q in enumerate(h.mates) if q > p)


@pytest.mark.parametrize("family", STRUCTURED_FAMILIES)
def test_canonical_matches_rotation_scan_structured(family):
    rng = random.Random(67)
    for n in range(2, 61):
        h = Hieroglyph(tuple(structured_word(family, n, rng)))
        c = canonical_form(h)
        assert c == rotation_scan_canonical(h), (family, n)
        assert canonical_form(random_image(h, rng)) == c, (family, n)


@pytest.mark.parametrize("family", ["nested", "nested-defect", "periodic"])
def test_canonical_invariant_with_many_tied_starts(family):
    # the first step keeps about n starts here, far past the sizes that
    # the rotation scan can check
    rng = random.Random(79)
    h = Hieroglyph(tuple(structured_word(family, 1000, rng)))
    c = canonical_form(h)
    for _ in range(2):
        assert canonical_form(random_image(h, rng)) == c


@pytest.mark.parametrize("family", ["random", "periodic", "two-block", "nested-defect"])
@pytest.mark.parametrize("n", [0, 1, 2, 13, 26, 27, 60, 500, 2048])
def test_canonical_form_is_a_validated_word(family, n):
    # the result is built without validation: it must equal the word the
    # constructor builds from its letters, pairing and alphabet included
    rng = random.Random(n)
    if family == "random" or n < 2:
        h = random_hieroglyph(rng, n)
    else:
        h = Hieroglyph(tuple(structured_word(family, n, rng)))
    c = canonical_form(h)
    checked = Hieroglyph(c.letters)
    assert c == checked
    assert type(c.letters) is tuple
    assert c.mates == checked.mates
    assert c.alphabet == checked.alphabet


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.randoms(use_true_random=False))
def test_canonical_invariant_under_random_image(n, rnd):
    h = random_hieroglyph(rnd, n)
    assert canonical_form(random_image(h, rnd)) == canonical_form(h)


def test_both_orientations_share_one_period():
    # canonical_form computes the period of the forward gaps only
    rng = random.Random(71)
    words = [random_hieroglyph(rng, rng.randrange(1, 40)) for _ in range(300)]
    for n in range(1, 13):  # a random block repeated with fresh letters
        block = random_hieroglyph(rng, n).letters
        copies = rng.randrange(2, 5)
        words.append(Hieroglyph(tuple(f"{c}.{x}" for c in range(copies) for x in block)))
    words += [Hieroglyph(tuple(structured_word("periodic", n, rng))) for n in range(2, 20)]
    periodic = 0
    for h in words:
        length = len(h.letters)
        forward = [(p - q) % length for p, q in enumerate(h.mates)]
        period = _period(forward)
        assert period == _period([length - x for x in reversed(forward)]), h.letters
        periodic += period < length
    assert periodic >= 30


def _period_cases(rng: random.Random, top: int) -> list[list[int]]:
    """Random, block-repeated and single-defect lists of values below ``top``."""
    cases = []
    for length in (1, 2, 3, 5, 12, 60, 97):
        cases.append([rng.randrange(1, top) for _ in range(length)])
    for size, copies in ((1, 7), (2, 5), (3, 4), (12, 6), (25, 3), (7, 9371)):
        block = [rng.randrange(1, top) for _ in range(size)]
        cases.append(block * copies)
        for bit in (0, top.bit_length() - 2):  # a defect in the lowest or the highest byte
            defect = block * copies
            defect[rng.randrange(len(defect))] ^= 1 << bit
            cases.append(defect)
    return cases


@pytest.mark.parametrize("top", [1 << 8, 1 << 16, 1 << 24, 1 << 40])
def test_period_matches_the_prefix_function(top):
    rng = random.Random(top.bit_length())
    cases = _period_cases(rng, top)
    assert any(len(values) > 1 << 16 for values in cases)
    assert any(max(values) >= top >> 1 for values in cases)
    for values in cases:
        assert _period(values) == prefix_period(values), (top, len(values))


@pytest.mark.parametrize("code", ["H", "I", "Q"])
def test_period_skips_matches_inside_an_item(code):
    # bytes repeating with an odd period p match the doubling at byte
    # offset p, inside an item; the values themselves have period p
    rng = random.Random(83)
    size = array(code).itemsize
    for p in (3, 5, 7, 9):
        block = bytes(rng.randrange(1, 256) for _ in range(p))
        values = list(array(code, block * (2 * size)))  # every byte nonzero: needs this width
        assert _period(values) == prefix_period(values) == p, (code, p)
