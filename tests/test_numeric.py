from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from floorsums import (
    InternalInvariantError,
    InvalidArgumentError,
    NotInvertibleError,
    ext_gcd,
    floor_mod,
    mod_inverse,
    sum_first,
    sum_squares,
)
from floorsums.numeric import exact_int


class TestExtGcd:
    def test_known_pair(self):
        assert ext_gcd(240, 46) == (2, -9, 47)
        assert 240 * -9 + 46 * 47 == 2

    def test_identity_case(self):
        assert ext_gcd(1, 0) == (1, 1, 0)

    def test_worked_example_pair(self):
        g, u, v = ext_gcd(8411, 2732)
        assert g == 1
        assert u * 8411 + v * 2732 == 1

    def test_both_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ext_gcd(0, 0)

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
    def test_bezout(self, x, y):
        if x == 0 and y == 0:
            return
        g, u, v = ext_gcd(x, y)
        assert g > 0
        assert u * x + v * y == g
        assert x % g == 0 and y % g == 0


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(2, 3) == 2
        assert mod_inverse(5, 3) == 2
        assert mod_inverse(7, 1) == 0

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            mod_inverse(4, 6)

    def test_bad_modulus(self):
        with pytest.raises(InvalidArgumentError):
            mod_inverse(3, 0)

    @given(st.integers(-10**20, 10**20), st.integers(2, 10**20))
    def test_inverse_property(self, x, m):
        import math

        if math.gcd(x, m) != 1:
            return
        y = mod_inverse(x, m)
        assert 0 <= y < m
        assert floor_mod(x * y, m) == 1


class TestFloorMod:
    def test_negative_dividends(self):
        assert floor_mod(-15, 5) == 0
        assert floor_mod(-20, 3) == 1
        assert floor_mod(7, 7) == 0

    def test_bad_modulus(self):
        with pytest.raises(InvalidArgumentError):
            floor_mod(5, 0)

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**20))
    def test_range_and_divisibility(self, x, m):
        r = floor_mod(x, m)
        assert 0 <= r < m
        assert (x - r) % m == 0


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
    import math
    import random

    rng = random.Random(4096)
    x = rng.getrandbits(4096) | (1 << 4095)
    y = rng.getrandbits(4096) | (1 << 4095)
    g, u, v = ext_gcd(x, y)
    assert u * x + v * y == g
    m = y | 1
    if math.gcd(x, m) == 1:
        assert floor_mod(x * mod_inverse(x, m), m) == 1
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
