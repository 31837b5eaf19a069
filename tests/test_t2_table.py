"""The table an untraced T2 call reads its S and Q values from.

``cross_sum._table`` fills, in one pass up the T2 chain, S(a,b;h) and
Q(b,a;h') at every reciprocity state, and Q(a,b;m) for the period rule.
Each entry is checked here against the independent S and floor-sum walks
(``s_value`` and ``floor_sum``), and the two facts the pass rests on are
checked directly: ``_terms`` at the reflected bound a-1-h swaps to
h' = floor(bh/a), and the division by b in each level is exact.
"""

import importlib
import math
import random

import pytest

from floorsums import Instance, InternalInvariantError, floor_sum, s_value, square_sum, t2
from floorsums.cross_sum import _table
from floorsums.trace import euclid_steps

floor_sum_module = importlib.import_module("floorsums.floor_sum")


def coprime_instance(bits, rng):
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(1, a)
    return a, b, rng.randrange(3 * a)


def levels(a, b, h):
    """The reciprocity states (a, b, h) of the T2 chain of coprime (a, b), h."""
    states = []
    b, h = b % a, h % a
    while h and b > 1:
        states.append((a, b, h))
        a, b, h = b, a % b, b * h // a
    return states


def expected_keys(a, b, h):
    q_chain, s_chain = floor_sum_module._division, square_sum._division
    keys = set()
    for x, y, k in levels(a, b, h):
        keys |= {(s_chain, x, y, k), (q_chain, y, x, y * k // x)}
    if h >= a:
        keys.add((q_chain, a, b, h % a))
    return keys


def check_entry(key, value):
    chain, x, y, k = key
    if chain is square_sum._division:
        assert value == s_value(x, y, k), key
        assert (2 * x * value).denominator == 1, key
    else:
        assert chain is floor_sum_module._division, key
        assert value == floor_sum(Instance(x, y, k)), key


def test_every_entry_on_the_small_grid():
    for a in range(2, 50):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a):
                table = _table(a, b, h)
                assert set(table) == expected_keys(a, b, h), (a, b, h)
                for key, value in table.items():
                    check_entry(key, value)


def test_every_entry_past_the_period_and_for_b_above_a():
    for a in range(2, 16):
        for b in range(1, 3 * a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a, 3 * a + 2):
                table = _table(a, b, h)
                assert set(table) == expected_keys(a, b, h), (a, b, h)
                for key, value in table.items():
                    check_entry(key, value)


@pytest.mark.parametrize("bits, checked", [(64, None), (512, 40), (2048, 4)])
def test_seeded_pairs(bits, checked):
    # At 64 bits every entry is walked; above that a seeded sample, because
    # each independent walk from a state costs as much as the rest of the
    # chain.  The top state's S and the period entry are always in it.
    rng = random.Random(bits)
    a, b, h = coprime_instance(bits, rng)
    h = max(h, a)
    table = _table(a, b, h)
    keys = expected_keys(a, b, h)
    assert set(table) == keys
    assert len(table) == 2 * len(levels(a, b, h)) + 1
    assert len(levels(a, b, h)) <= euclid_steps(a, b)
    top = {(square_sum._division, a, b % a, h % a), (floor_sum_module._division, a, b, h % a)}
    assert top <= keys
    rest = sorted(keys - top, key=lambda key: key[1:])
    sample = rest if checked is None else rng.sample(rest, checked)
    for key in sorted(top, key=lambda key: key[1:]) + sample:
        check_entry(key, table[key])


def test_terms_at_the_reflected_bound_swaps_to_h_prime():
    # H = floor(bh/a) also where n1 = 0 mod b is promoted to b (H = b - 1).
    promoted = 0
    for a in range(2, 60):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a):
                n0, n, n1, big_h, _ = square_sum._terms(a, b, a - 1 - h)
                assert big_h == b * h // a, (a, b, h)
                promoted += n1 == b
    assert promoted > 0


def test_inexact_division_is_an_internal_error(monkeypatch):
    # E + 1 leaves a*X' - E - 1 = -1 (mod b) at the first level the pass
    # reaches, the bottom one.  With the threshold at 2^200, only levels
    # whose a shown() names by bit length are off.
    original = square_sum._terms
    threshold = {"a": 0}

    def off_by_one(a, b, h):
        *head, e = original(a, b, h)
        return (*head, e + (a > threshold["a"]))

    monkeypatch.setattr(square_sum, "_terms", off_by_one)
    message = r"^2a\*S\(a,b;a-1-h\) is not integral for \(5, 2, 4\)$"
    with pytest.raises(InternalInvariantError, match=message):
        t2(5, 2, 4)
    threshold["a"] = 2**200
    a, b, h = coprime_instance(512, random.Random(512))
    with pytest.raises(InternalInvariantError, match=r"-bit int>") as raised:
        t2(a, b, h % a)
    assert len(str(raised.value)) < 120
