"""Differential test: reciprocity_terms against the paper's definitions.

The package evaluates gamma, eta1 and eta2 from one integer polynomial for
2ab*eta2, and n1 from the quotient of the division that gives n0.  The
reference below transcribes the paper's rational definitions term by term,
with n1 from a modular inverse, and shares nothing with that path.
"""

import math
import random
from fractions import Fraction

import pytest

from floorsums import reciprocity_terms, s_value


def paper_terms(a, b, h):
    # Returns gamma, eta1, eta2, n1, H exactly as the paper defines them.
    n0 = -b * (h + 1) % a
    n = a * b - a + n0
    n1 = -n * pow(a, -1, b) % b or b
    big_h = n1 - 1
    ab = a * b
    alpha = Fraction(ab * (a + b - 2), 2)
    beta = Fraction(ab * (a - 1) * (b - 1), 2) + Fraction(
        ab * ((a - 1) * (a - 2) + (b - 1) * (b - 2)), 3
    )
    gamma = (2 * alpha * alpha - ab * beta) / (2 * ab**3)
    eta1 = (
        (h + big_h + 1)
        + n * gamma
        + Fraction(n * (n + 3), 2) * Fraction(a + b - 2, 2 * ab)
        + Fraction(n**3 + 6 * n**2 + 11 * n, 6 * ab)
        + Fraction((h + 1) * (a - 1) * (a - 5), 12 * a)
        + Fraction((big_h + 1) * (b - 1) * (b - 5), 12 * b)
        - Fraction(b * h * (h + 1) * (a + 2), 4 * a)
        - Fraction(a * big_h * (big_h + 1) * (b + 2), 4 * b)
    )
    eta2 = (
        Fraction((n + 1) * (n + 2), 2)
        + Fraction((a - 1) * (b - 1) * (2 * ab - a - b - 6 * n - 7), 12)
        - eta1
    )
    return gamma, eta1, eta2, n1, big_h


def assert_matches(a, b, h):
    terms = reciprocity_terms(a, b, h)
    got = (terms.gamma, terms.eta1, terms.eta2, terms.n1, terms.H)
    assert got == paper_terms(a, b, h), (a, b, h)
    assert all(type(x) is Fraction for x in got[:3])
    return terms


def random_coprime(rng, bits):
    while True:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(1, a)
        if math.gcd(a, b) == 1:
            return a, b


def test_full_small_grid():
    for a in range(2, 40):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a):
                assert_matches(a, b, h)


def test_outside_chain_domain():
    # reciprocity_terms also accepts b >= a and h >= a, which the S chain
    # never passes; the values must still follow the definitions.
    for a in range(2, 16):
        for b in range(1, 3 * a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(0 if b > a else a, 3 * a + 2):
                assert_matches(a, b, h)


@pytest.mark.parametrize("bits, count", [(64, 200), (512, 60), (4096, 10)])
def test_random_large(bits, count):
    rng = random.Random(20210717 + bits)
    for _ in range(count):
        a, b = random_coprime(rng, bits)
        assert_matches(a, b, rng.randrange(a))


def test_reciprocity_identity_at_512_bits():
    rng = random.Random(512)
    for _ in range(8):
        a, b = random_coprime(rng, 512)
        h = rng.randrange(a)
        terms = reciprocity_terms(a, b, h)
        assert s_value(a, b, h) + s_value(b, a, terms.H) == terms.eta2


def test_n1_when_a_divides_b_times_h_plus_1():
    # n0 = 0: with a, b coprime, a divides h + 1.
    seen = 0
    for a in range(2, 40):
        for b in range(1, 3 * a):
            if math.gcd(a, b) != 1:
                continue
            for h in (a - 1, 2 * a - 1, 3 * a - 1):
                assert assert_matches(a, b, h).n0 == 0
                seen += 1
    assert seen > 1000


def test_n1_promoted_from_zero_to_b():
    # n1 = b exactly when -n*a^(-1) = 0 (mod b), i.e. n0 = a (mod b).
    promoted = 0
    for a in range(2, 24):
        for b in range(2, 2 * a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(3 * a + 2):
                if assert_matches(a, b, h).n1 == b:
                    promoted += 1
    assert promoted > 1000


@pytest.mark.parametrize("bits", [64, 512, 4096])
def test_n1_promoted_at_scale(bits):
    # Choose n0 = a mod b + kb < a, then the h that gives it:
    # h + 1 = -n0 * b^(-1) (mod a).
    rng = random.Random(4096 + bits)
    for _ in range(6):
        a, b = random_coprime(rng, bits)
        n0 = a % b + b * rng.randrange((a - a % b) // b)
        h = (-n0 * pow(b, -1, a) - 1) % a
        terms = assert_matches(a, b, h)
        assert (terms.n0, terms.n1) == (n0, b)


def test_n1_random_4096_bits_beyond_chain_domain():
    rng = random.Random(4096)
    for _ in range(8):
        a = rng.getrandbits(4096) | (1 << 4095)
        b = rng.randrange(1, 3 * a)
        if math.gcd(a, b) == 1:
            assert_matches(a, b, rng.randrange(3 * a + 2))
        assert_matches(a, 1, rng.randrange(3 * a + 2))
