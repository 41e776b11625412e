import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablesim.money import MICRO, ceil_div, frac_of, mul_div, mul_frac


def test_half_even_at_exact_half():
    assert mul_div(5, 1, 2) == 2
    assert mul_div(3, 1, 2) == 2
    assert mul_div(-5, 1, 2) == -2
    assert mul_div(-3, 1, 2) == -2


def test_plain_rounding():
    assert mul_div(7, 1, 2) == 4  # 3.5 -> 4 (even)
    assert mul_div(10, 3, 4) == 8  # 7.5 -> 8
    assert mul_frac(10_000_00, 20_000) == 200_00  # 2% of 10,000.00


def test_denominator_must_be_positive():
    with pytest.raises(ValueError):
        mul_div(1, 1, 0)
    with pytest.raises(ValueError):
        mul_div(1, 1, -3)


@given(st.integers(-10**15, 10**15), st.integers(-10**9, 10**9),
       st.integers(1, 10**9))
def test_matches_fraction_round_half_even(value, num, den):
    exact = Fraction(value * num, den)
    assert mul_div(value, num, den) == round(exact)


@given(st.integers(0, 10**12), st.integers(1, 10**12))
def test_frac_of_roundtrip_bound(part, whole):
    part = min(part, whole)
    frac = frac_of(part, whole)
    assert 0 <= frac <= MICRO


def test_ceil_div():
    assert ceil_div(10, 3) == 4
    assert ceil_div(9, 3) == 3
    assert ceil_div(0, 5) == 0


def _rounding_draws(rng, count):
    """`count` (value, fraction, part, whole) draws: plain amounts, exact
    half ties of either sign, zeros and 40-digit values."""
    for i in range(count):
        shape = i % 5
        if shape == 0:     # plain amounts and fractions of either sign
            value, frac = rng.randint(-10**12, 10**12), rng.randint(-2 * MICRO, 2 * MICRO)
            part, whole = rng.randint(-10**12, 10**12), rng.randint(1, 10**12)
        elif shape == 1:   # exact ties: an odd value at half, an odd part of 2k over 2k
            value, frac = rng.randrange(-10**9 - 1, 10**9, 2), rng.choice((MICRO // 2,
                                                                            -MICRO // 2))
            k = rng.randint(1, 10**6)
            part, whole = k * rng.choice((1, -1)) * rng.randrange(1, 10**6, 2), 2 * MICRO * k
        elif shape == 2:   # one step either side of a tie, odd and even quotients
            q, step = rng.randint(-10**9, 10**9), rng.choice((-1, 0, 1))
            value, frac = q * MICRO + MICRO // 2 + step, 1
            part, whole = rng.randint(-10**9, 10**9), 2 * MICRO + 2 * step
        elif shape == 3:   # zeros
            value, frac = rng.choice(((0, rng.randint(-MICRO, MICRO)),
                                      (rng.randint(-10**9, 10**9), 0)))
            part, whole = 0, rng.randint(1, 10**9)
        else:              # 40-digit values
            value, frac = rng.randint(-10**40, 10**40), rng.randint(-10**40, 10**40)
            part, whole = rng.randint(-10**40, 10**40), rng.randint(1, 10**40)
        yield value, frac, part, whole


def test_one_frame_rounding_equals_mul_div_on_every_draw():
    """`mul_frac` and `frac_of` round in their own frame; on 100,000 seeded
    draws each equals `mul_div` with the micro scale, ties included."""
    rng, ties = random.Random(20240521), 0
    for value, frac, part, whole in _rounding_draws(rng, 100_000):
        assert mul_frac(value, frac) == mul_div(value, frac, MICRO), (value, frac)
        assert frac_of(part, whole) == mul_div(part, MICRO, whole), (part, whole)
        ties += (value * frac) % MICRO == MICRO // 2
        ties += 2 * ((part * MICRO) % whole) == whole
    assert ties >= 20_000


@pytest.mark.parametrize("whole", [0, -1, -MICRO])
def test_frac_of_rejects_a_whole_that_is_not_positive_as_mul_div_does(whole):
    with pytest.raises(ValueError) as mul_div_err:
        mul_div(1, MICRO, whole)
    with pytest.raises(ValueError) as frac_of_err:
        frac_of(1, whole)
    assert str(frac_of_err.value) == str(mul_div_err.value) == (
        f"denominator must be positive, got {whole}")
