"""T2 above the oracle, checked by the reciprocity law of Dedekind sums.

For coprime a, b the Dedekind sum s(b, a) = sum_{0<i<a} ((i/a))((ib/a)) is
ir(a, b; a-1)/a^2 - (a-1)/4, where ir(a, b; h) = b*sum i^2 - a*T2(a, b; h)
is sum i*r_i.  The reciprocity law (Rademacher and Grosswald, *Dedekind
Sums*; Knuth, TAOCP Vol. 2, 3.3.3)

    s(a, b) + s(b, a) = -1/4 + (a/b + b/a + 1/(ab))/12

is derived from neither the S nor the T2 recursion, so it checks t2 at sizes
the oracle cannot reach.  Up to 512 bits the law checks the paper's chain,
t2(a, b, a-1).  From 1024 to 4096 bits it checks the period route:
t2(a, b, a) - ab = T2(a, b; a-1), which the period reduction takes from the
Barkan-Hickerson-Knuth formula for s(b, a) (see ``cross_sum``), not from a
chain.  The two routes are also compared with each other, and the period
route with brute force.
"""

import math
import random
from fractions import Fraction

import pytest

from floorsums import sum_squares, t2


def sawtooth(x: Fraction) -> Fraction:
    # ((x)) = x - floor(x) - 1/2, and 0 at integers.
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def brute_dedekind(b: int, a: int) -> Fraction:
    return sum((sawtooth(Fraction(i, a)) * sawtooth(Fraction(i * b, a)) for i in range(1, a)),
               Fraction(0))


def dedekind_from_t2(b: int, a: int, t2_value: int) -> Fraction:
    """s(b, a) from t2_value = T2(a, b; a-1)."""
    ir = b * sum_squares(a - 1) - a * t2_value
    return Fraction(ir, a * a) - Fraction(a - 1, 4)


def dedekind(b: int, a: int) -> Fraction:
    """s(b, a) from the paper's chain for T2(a, b; a-1)."""
    return dedekind_from_t2(b, a, t2(a, b, a - 1))


def dedekind_by_period(b: int, a: int) -> Fraction:
    """s(b, a) from the period route: T2(a, b; a) - ab = T2(a, b; a-1)."""
    return dedekind_from_t2(b, a, t2(a, b, a) - a * b)


def test_matches_brute_force():
    for a in range(2, 40):
        for b in range(1, 40):
            if math.gcd(a, b) == 1:
                assert dedekind(b, a) == brute_dedekind(b, a), (a, b)


def test_period_route_matches_brute_force():
    for a in range(2, 40):
        for b in range(1, 40):
            if math.gcd(a, b) == 1:
                assert dedekind_by_period(b, a) == brute_dedekind(b, a), (a, b)


def test_period_route_equals_the_paper_chain():
    # b < a and a < b < 2a: the period rule runs before the division step
    # that the paper's chain takes first, so it meets b > a unreduced.
    for a in range(2, 80):
        for b in [*range(1, a), *range(a + 1, 2 * a)]:
            if math.gcd(a, b) == 1:
                assert t2(a, b, a) - a * b == t2(a, b, a - 1), (a, b)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_period_route_equals_the_paper_chain_above_the_oracle(bits):
    rng = random.Random(bits)
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(1, 2 * a)
    assert t2(a, b, a) - a * b == t2(a, b, a - 1), (a, b)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_reciprocity_law(bits):
    rng = random.Random(bits)
    for _ in range(2):
        a = b = 0
        while math.gcd(a, b) != 1:
            a = rng.getrandbits(bits) | (1 << (bits - 1))
            b = rng.randrange(2, a)
        law = Fraction(-1, 4) + (Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)) / 12
        assert dedekind(a, b) + dedekind(b, a) == law, (a, b)


@pytest.mark.parametrize("bits", [1024, 2048, 4096])
def test_reciprocity_law_through_the_period_reduction(bits):
    rng = random.Random(bits)
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(2, a)
    law = Fraction(-1, 4) + (Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)) / 12
    assert dedekind_by_period(a, b) + dedekind_by_period(b, a) == law, bits
