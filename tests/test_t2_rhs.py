"""Differential test: t2_reciprocity_rhs against the paper's form of the T2
reciprocity.

The package writes the right-hand side from S(a,b;h) and Q(b,a;h') alone.
The reference below transcribes the paper's statement term by term, with
T1(a,b;h) and Q(b,a;h') taken from the oracle or the public functions.
"""

import math
import random
from fractions import Fraction

import pytest

from floorsums import Instance, floor_sum, oracle_report, t1, t2_reciprocity_rhs


def paper_rhs(a, b, h, t1_value, q_swapped):
    # a*h*h'^2/(2b) + (a/(2b))*Q(b,a;h') - (a/(2b))*T1(a,b;h)
    # + b*h(h+1)(2h+1)/(12a), with h' = floor(bh/a).
    hp = b * h // a
    return (
        Fraction(a * h * hp * hp, 2 * b)
        + Fraction(a, 2 * b) * q_swapped
        - Fraction(a, 2 * b) * t1_value
        + Fraction(b * h * (h + 1) * (2 * h + 1), 12 * a)
    )


def test_small_grid_against_oracle():
    for a in range(2, 40):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a):
                t1_value = oracle_report(Instance(a, b, h)).t1
                q_swapped = oracle_report(Instance(b, a, b * h // a)).q_sum
                expected = paper_rhs(a, b, h, t1_value, q_swapped)
                assert t2_reciprocity_rhs(a, b, h) == expected, (a, b, h)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_seeded_large_inputs(bits):
    rng = random.Random(bits)
    for _ in range(3):
        a = b = 0
        while math.gcd(a, b) != 1:
            a = rng.getrandbits(bits) | (1 << (bits - 1))
            b = rng.randrange(1, a)
        h = rng.randrange(a)
        q_swapped = floor_sum(Instance(b, a, b * h // a))
        expected = paper_rhs(a, b, h, t1(a, b, h), q_swapped)
        assert t2_reciprocity_rhs(a, b, h) == expected, (a, b, h)
