"""Seeded inputs and the chain of states shared by the T2 pass tests.

``tests/test_t2_table.py`` and ``tests/test_walk_memo.py`` draw their
seeded (a, b, h) from ``coprime_instance`` and count the pass's levels with
``levels``; this module holds no tests.
"""

import math


def coprime_instance(bits, rng, b_periods=(0, 1), h_periods=(0, 3)):
    """Seeded coprime a of the given bits, b in [b0*a, b1*a) and h in
    [h0*a, h1*a), for (b0, b1) = b_periods and (h0, h1) = h_periods."""
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(max(1, b_periods[0] * a), b_periods[1] * a)
    return a, b, rng.randrange(h_periods[0] * a, h_periods[1] * a)


def levels(a, b, h):
    """The reciprocity states (a, b, h) of the T2 chain of coprime (a, b), h."""
    states = []
    b, h = b % a, h % a
    while h and b > 1:
        states.append((a, b, h))
        a, b, h = b, a % b, b * h // a
    return states
