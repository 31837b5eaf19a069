"""The integer pass an untraced T2 call takes.

``cross_sum._pass`` computes T2(a,b;h) in one pass up the T2 chain, carrying
2a*S and Q alongside.  The traced ``t2`` walks the paper's chain and is the
reference: the pass must equal it and its ``replay()`` at the top state and
at every state the chain passes.  The facts the pass rests on are checked
directly: ``_terms`` at the reflected bound a-1-h swaps to h' = floor(bh/a),
and each level's divisions, by b for 2a*S and by 2ab for T2, are exact.
"""

import math
import random
from fractions import Fraction

import pytest

from floorsums import Instance, InternalInvariantError, floor_sum, square_sum, t2, t3, t3_alt
from floorsums.cross_sum import _pass
from floorsums.trace import RULE_RECIPROCITY, Trace


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


def check_chain(a, b, h):
    """The pass equals traced t2 and its replay() at (a, b, h), and at every
    state its chain passes.  The value at a step's entry state is what is
    left of the replay there, over the coefficient the walk carries."""
    trace = Trace()
    value = t2(a, b, h, trace)
    assert _pass(a, b, h) == value == trace.replay(), (a, b, h)
    rest, coef = trace.replay(), Fraction(1)
    for step in trace.steps:
        assert _pass(step.a, step.b, step.h) == rest / coef, (a, b, h, step.rule, step.a, step.b, step.h)
        rest -= step.contribution
        if step.rule == RULE_RECIPROCITY:
            coef *= Fraction(-step.a, step.b)
    assert rest == 0


def test_every_entry_on_the_small_grid():
    for a in range(2, 50):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a):
                check_chain(a, b, h)


def test_every_entry_past_the_period_and_for_b_above_a():
    for a in range(1, 16):
        for b in range(3 * a):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a, 3 * a + 2):
                check_chain(a, b, h)


@pytest.mark.parametrize("bits, checked", [(64, None), (512, 40), (2048, 4)])
def test_seeded_pairs(bits, checked):
    # A traced t2 grows as bits^3 (about 2 s at 512 bits), so the states
    # sampled for a traced chain of their own are those of at most 128 bits
    # (all of them at 64 bits).  Up to 512 bits the top state's traced chain
    # checks every state; at 2048 bits t3 and t3_alt, which take T2 by
    # different chains, and the reflection h <-> a-1-h check the top.
    rng = random.Random(bits)
    a, b, h = coprime_instance(bits, rng)
    h = max(h, a)
    deep = [state for state in levels(a, b, h) if state[0].bit_length() <= 128]
    for state in deep if checked is None else rng.sample(deep, checked):
        check_chain(*state)
    if bits <= 512:
        check_chain(a, b, h)
        return
    assert t3(a, b, h) == t3_alt(a, b, h)
    m = h % a
    expected = (b - 1) * (a * m - m * (m + 1) // 2) - a * floor_sum(Instance(a, b, m)) + t2(a, b, m)
    assert t2(a, b, a) - a * b - t2(a, b, a - 1 - m) == expected


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


def test_inexact_t2_division_is_an_internal_error(monkeypatch):
    # E + 6b keeps the division by b exact and lowers 2a*S by 6, which
    # leaves 2ab*T2 off by 6; 2ab >= 12 at every level, so the T2 division
    # is inexact at the first level the pass reaches.
    original = square_sum._terms

    def off_by_six_b(a, b, h):
        *head, e = original(a, b, h)
        return (*head, e + 6 * b)

    monkeypatch.setattr(square_sum, "_terms", off_by_six_b)
    with pytest.raises(InternalInvariantError, match=r"^T2 is not integral for \(5, 2, 4\)$"):
        t2(5, 2, 4)
