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

