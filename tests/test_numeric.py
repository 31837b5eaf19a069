from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from floorsums import (
    InternalInvariantError,
    InvalidArgumentError,
    sum_first,
    sum_squares,
)
from floorsums.numeric import exact_int


class TestPolynomialSums:
    def test_examples(self):
        assert sum_first(4) == 10
        assert sum_squares(4) == 30
        assert sum_first(0) == 0
        assert sum_squares(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sum_first(-1)
        with pytest.raises(InvalidArgumentError):
            sum_squares(-1)

    @pytest.mark.parametrize("fn, h", [(sum_first, "3"), (sum_first, 1.5), (sum_squares, True)])
    def test_non_int_rejected(self, fn, h):
        with pytest.raises(InvalidArgumentError):
            fn(h)

    @given(st.integers(0, 2000))
    def test_against_loop(self, h):
        assert sum_first(h) == sum(range(1, h + 1))
        assert sum_squares(h) == sum(i * i for i in range(1, h + 1))


def test_exact_int():
    with pytest.raises(InternalInvariantError):
        exact_int(Fraction(1, 2), "T2", 5, 3, 4)
    assert type(exact_int(Fraction(6, 3), "T2")) is int
    assert exact_int(Fraction(6, 3), "T2") == 2
    assert type(exact_int(-7, "T3")) is int
    assert exact_int(-7, "T3") == -7


def test_exact_at_4096_bits():
    # gamma-sized intermediates reach ~3x the input bit length; check the
    # primitives stay exact well past 4096-bit inputs.
    import random

    rng = random.Random(4096)
    x = rng.getrandbits(4096) | (1 << 4095)
    y = rng.getrandbits(4096) | (1 << 4095)
    cube = Fraction(x, y) ** 3
    assert cube * Fraction(y, x) ** 3 == 1


@given(
    st.integers(-10**40, 10**40), st.integers(1, 10**40),
    st.integers(-10**40, 10**40), st.integers(1, 10**40),
)
def test_rational_round_trip(p, q, r, s):
    x = Fraction(p, q)
    y = Fraction(r, s)
    z = (x + y) - y
    assert z == x
    import math

    assert math.gcd(abs(z.numerator), z.denominator) == 1
    assert z.denominator > 0
