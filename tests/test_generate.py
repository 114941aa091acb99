import hashlib
import itertools

import pytest

from diagrank.generate import SplitMix64, gen_random
from diagrank.gf2 import render_matrix

from helpers import scalar_gen_random

# published reference outputs for the SplitMix64 stream
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SEED1234567_OUTPUTS = (0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77)


def test_splitmix64_reference_vectors():
    g = SplitMix64(0)
    assert tuple(g.next_u64() for _ in range(3)) == SEED0_OUTPUTS
    g = SplitMix64(1234567)
    assert tuple(g.next_u64() for _ in range(3)) == SEED1234567_OUTPUTS


def test_splitmix64_outputs_are_64_bit():
    g = SplitMix64(2**64 - 1)  # wraps instead of overflowing
    for _ in range(100):
        assert 0 <= g.next_u64() < 2**64


def test_gen_random_frozen_instances():
    assert render_matrix(gen_random(4, 0.5, 42)) == "0011\n1010\n1001\n0110\n"
    assert render_matrix(gen_random(5, 0.3, 7)) == "00100\n00100\n10010\n00000\n00000\n"


def test_gen_random_reproducible_and_seed_sensitive():
    a = gen_random(12, 0.5, 99)
    assert gen_random(12, 0.5, 99) == a
    assert gen_random(12, 0.5, 100) != a


def test_gen_random_zero_diagonal_always():
    for seed in range(5):
        m = gen_random(9, 0.8, seed)
        assert m.diagonal().weight() == 0


def test_gen_random_density_extremes():
    assert gen_random(6, 0.0, 1).rows == (0,) * 6
    m = gen_random(6, 1.0, 1)
    assert all(
        m.entry(i, j) == (0 if i == j else 1) for i in range(6) for j in range(6)
    )


def test_gen_random_density_shifts_mass():
    sparse = sum(r.bit_count() for r in gen_random(40, 0.1, 3).rows)
    dense = sum(r.bit_count() for r in gen_random(40, 0.9, 3).rows)
    cells = 40 * 39
    assert sparse < cells // 4 < 3 * cells // 4 < dense


def test_gen_random_validation():
    with pytest.raises(ValueError):
        gen_random(4, -0.1, 0)
    with pytest.raises(ValueError):
        gen_random(4, 1.1, 0)
    with pytest.raises(ValueError):
        gen_random(-1, 0.5, 0)
    with pytest.raises(ValueError, match=r"^dimension 2\.0 is not an integer$"):
        gen_random(2.0, 0.5, 1)
    for seed in (-1, 2**64, 2**64 + 1, 1.5, 1.0):
        with pytest.raises(ValueError, match="seed"):
            gen_random(4, 0.5, seed)
    assert gen_random(3, 0.5, True) == gen_random(3, 0.5, 1)
    assert gen_random(4, 0.5, 2**64 - 1).n == 4
    assert gen_random(0, 0.5, 0).n == 0


# digests of render_matrix(gen_random(n, 0.5, 1)) from the one-draw-per-cell loop
PINNED_SHA256 = {
    256: "ffc0b0cf8bba3928311ec943c236250346f87fa31097897f97be2d8803637889",
    1024: "ab1e3472f677c135a63441237ff303ce0826b47bc9ee7f41ff0abe61b6c094ed",
}


@pytest.mark.parametrize("n", sorted(PINNED_SHA256))
def test_gen_random_pinned_digests(n):
    text = render_matrix(gen_random(n, 0.5, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[n]


@pytest.mark.parametrize("density", [0.0, 1.0, 0.5, 0.3, 2.0**-60, 1.0 - 2.0**-53])
@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, True])
def test_gen_random_matches_scalar_stream(density, seed):
    for n in [*range(41), 97, 130]:
        assert gen_random(n, density, seed) == scalar_gen_random(n, density, seed), n


def test_gen_random_threshold_is_strict():
    # a draw d whose low 11 bits are all clear (all set) makes d (d + 1) a
    # float-exact threshold: the cell is 0 at threshold d and 1 at d + 1
    n = 130
    draws = itertools.islice(iter(SplitMix64(0).next_u64, None), n * (n - 1))
    seen = set()
    for k, d in enumerate(draws):
        low = d % 2048
        if low not in (0, 2047) or low in seen:
            continue
        seen.add(low)
        i, t = divmod(k, n - 1)
        density = (d + low % 2) / 2**64
        m = gen_random(n, density, 0)
        assert m.rows[i] >> (t + (t >= i)) & 1 == low % 2
        assert m == scalar_gen_random(n, density, 0)
    assert seen == {0, 2047}
