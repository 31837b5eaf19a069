"""The integer pass up the T2 chain that untraced ``t2`` and ``t3_alt`` take.

``cross_sum._sums`` computes Q, T2 and T3 of (a, b; m) in one pass up the
T2 chain, carrying the three sums from level to level by the floor-sum
reciprocity and one division step, with no S; ``cross_sum._pass`` adds the
full periods for h >= a.  The traced ``t2`` walks the paper's chain and is
the reference: the pass must equal it and its ``replay()`` at the top state
and at every state the chain passes, and the pass's Q and T3 must equal
``floor_sum`` and ``t3`` at the top state and at every reciprocity state.
The pass's one exactness check, the parity of 2*T2, must turn a wrong sum
into an ``InternalInvariantError`` that names the state in one short line.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from floorsums import (
    Instance,
    InternalInvariantError,
    cross_sum,
    floor_sum,
    t2,
    t3,
    t3_alt,
)
from floorsums.cross_sum import _pass, _sums
from floorsums.trace import RULE_RECIPROCITY, Trace
from t2_chain import coprime_instance, levels


@functools.cache
def check_sums(a, b, m):
    """The pass's Q and T3 of (a, b; m) equal floor_sum and t3."""
    q, _, u = _sums(a, b, m)
    assert (q, u) == (floor_sum(Instance(a, b, m)), t3(a, b, m)), (a, b, m)


def check_chain(a, b, h):
    """The pass equals traced t2 and its replay() at (a, b, h), and at every
    state its chain passes; its Q and T3 equal floor_sum and t3 at the top
    state and at every reciprocity state.  The value at a step's entry state
    is what is left of the replay there, over the coefficient the walk
    carries."""
    trace = Trace()
    value = t2(a, b, h, trace)
    assert _pass(a, b, h) == value == trace.replay(), (a, b, h)
    if a >= 2:
        check_sums(a, b, h % a)
    rest, coef = trace.replay(), Fraction(1)
    for step in trace.steps:
        assert _pass(step.a, step.b, step.h) == rest / coef, (a, b, h, step.rule, step.a, step.b, step.h)
        rest -= step.contribution
        if step.rule == RULE_RECIPROCITY:
            check_sums(step.a, step.b, step.h)
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
    # checks every state; at 2048 bits t3 and t3_alt, which take T3 by
    # different routes, and the reflection h <-> a-1-h check the top.
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


def test_inexact_t2_division_is_an_internal_error(monkeypatch):
    # One more in sum_{i<=h'} i^2 at a level with an odd quotient d moves
    # 2*T2 by -d^2, an odd amount, so the halving of 2*T2 is inexact there.
    # At (7, 2, 5) the one level has d = 3.  With the threshold at 2^200,
    # only sums whose bound shown() names by bit length are off.
    original = cross_sum.sum_squares
    threshold = {"h": 0}

    def off_by_one(h):
        return original(h) + (h > threshold["h"])

    monkeypatch.setattr(cross_sum, "sum_squares", off_by_one)
    with pytest.raises(InternalInvariantError, match=r"^T2 is not integral for \(7, 2, 5\)$"):
        t2(7, 2, 5)
    threshold["h"] = 2**200
    a, b, h = coprime_instance(512, random.Random(512))
    message = r"^T2 is not integral for \(<\d+-bit int>, <\d+-bit int>, <\d+-bit int>\)$"
    with pytest.raises(InternalInvariantError, match=message) as raised:
        t2(a, b, h % a)
    assert len(str(raised.value)) < 120
