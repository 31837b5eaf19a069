"""Identities above the oracle that no route derives from.

For coprime a, b and 0 < t < a, r_{a-t} = a - r_t and q_{a-t} = b - 1 - q_t.
So the terms t = a-h .. a-1 of a full period are those of t = 1 .. h
reflected, which ties the sums up to a-1-h to the sums up to h:

    sum r^2 (a-1-h) = (a-1)a(2a-1)/6 - h*a^2 + 2a*sum r(h) - sum r^2(h),
    T2(a-1) - T2(a-1-h) = (b-1)(ah - h(h+1)/2) - a*Q(h) + T2(h).

The two instances take different Euclidean chains, and the T2 identity takes
T2(a-1) from the period route, t2(a, b, a) - ab, while t2 walks the paper's
chain for h and a-1-h.  Over a full period the remainders are a permutation
of 1 .. a-1, which fixes sum r and sum r^2 at h = a-1.
"""

import math
import random

import pytest

from floorsums import Instance, floor_sum, remainder_square_sum, remainder_sum, sum_squares, t2


def coprime_pair(bits):
    rng = random.Random(bits)
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(1, a)
    return a, b, rng.randrange(a)


@pytest.mark.parametrize("bits", [512, 2048])
def test_remainder_square_sum_reflection(bits):
    a, b, h = coprime_pair(bits)
    r2_reflected = remainder_square_sum(a, b, a - 1 - h)
    expected = (
        sum_squares(a - 1)
        - h * a * a
        + 2 * a * remainder_sum(Instance(a, b, h))
        - remainder_square_sum(a, b, h)
    )
    assert r2_reflected == expected, (a, b, h)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_t2_reflection(bits):
    a, b, h = coprime_pair(bits)
    t2_period = t2(a, b, a) - a * b
    expected = (
        (b - 1) * (a * h - h * (h + 1) // 2)
        - a * floor_sum(Instance(a, b, h))
        + t2(a, b, h)
    )
    assert t2_period - t2(a, b, a - 1 - h) == expected, (a, b, h)


def test_full_period_remainder_sums():
    a, b, _ = coprime_pair(4096)
    assert remainder_sum(Instance(a, b, a - 1)) == a * (a - 1) // 2
    assert remainder_square_sum(a, b, a - 1) == sum_squares(a - 1)
