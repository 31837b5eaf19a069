"""The walk memo of an untraced T2 call.

An untraced ``t2`` keeps, for the one call, a memo of its nested S and
floor-sum walks; a traced ``t2`` walks the paper's full chain and records
every nested step.  The traced call is the reference: the untraced value must
equal it and its ``replay()``.  The memo must also save work: a nested walk
stops at the first state an earlier walk passed, so the S reciprocity steps
(one ``square_sum._terms`` evaluation each) and the floor-sum reciprocity
steps of the whole call stay within a small multiple of the Euclid steps of
(a, b); for h >= a the period rule's Q walk shares the memo too.  It must
not outlive the call.
"""

import functools
import importlib
import math
import random

import pytest

from floorsums import square_sum, t2, t3, t3_alt
from floorsums.trace import Trace, euclid_steps

# The package attribute floorsums.floor_sum is the function.
floor_sum = importlib.import_module("floorsums.floor_sum")


def coprime_instance(bits, past_the_period=False):
    # h < a, or a <= h < 3a so that the period rule runs first.
    rng = random.Random(bits)
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(1, a)
    return a, b, a + rng.randrange(2 * a) if past_the_period else rng.randrange(a)


def step_calls(monkeypatch, call):
    """(value, S reciprocity steps, floor-sum reciprocity steps) of call()."""
    calls = {"_terms": 0, "_reciprocity": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(square_sum, "_terms", counted(square_sum, "_terms"))
        patch.setattr(floor_sum, "_reciprocity", counted(floor_sum, "_reciprocity"))
        value = call()
    return value, calls["_terms"], calls["_reciprocity"]


@functools.cache
def traced_t2(a, b, h):
    trace = Trace()
    return t2(a, b, h, trace), trace.replay()


def test_untraced_t2_equals_traced_on_small_grid():
    for a in range(1, 40):
        for b in range(2 * a):
            if math.gcd(a, b) != 1:
                continue
            for h in sorted({0, 1, a // 2, a - 1, a, 2 * a + 3}):
                value, replayed = traced_t2(a, b, h)
                assert t2(a, b, h) == value == replayed, (a, b, h)
                if a > b >= 1:
                    assert t3(a, b, h) == t3_alt(a, b, h), (a, b, h)


@pytest.mark.parametrize("bits", [64, 256, 512, 1024])
def test_untraced_t2_equals_traced_on_seeded_pairs(bits):
    # The traced t2 at 1024 bits walks the paper's O(log^2) chain: about 20 s.
    a, b, h = coprime_instance(bits)
    value, replayed = traced_t2(a, b, h)
    assert t2(a, b, h) == value == replayed, (a, b, h)
    assert t3(a, b, h) == t3_alt(a, b, h), (a, b, h)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_untraced_t2_equals_traced_past_the_period(bits):
    a, b, h = coprime_instance(bits, past_the_period=True)
    value, replayed = traced_t2(a, b, h)
    assert t2(a, b, h) == value == replayed, (a, b, h)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_period_q_walk_shares_the_memo(bits, monkeypatch):
    # The period rule's Q(a,b;m) walk goes down the Euclid pairs of (a, b);
    # the Q walks of the reciprocity steps then stop where it passed.
    # Outside the memo, that walk would take the floor-sum steps to about
    # twice the Euclid steps.
    a, b, h = coprime_instance(bits, past_the_period=True)
    _, _, q_steps = step_calls(monkeypatch, lambda: t2(a, b, h))
    euclid = euclid_steps(a, b)
    assert q_steps <= euclid + 2, (q_steps, euclid)


@pytest.mark.parametrize("bits", [256, 512, 1024])
def test_memo_saves_most_s_reciprocity_steps(bits, monkeypatch):
    # Measured about 2.3x (S) and 1.0x (Q) the Euclid steps.  A memo read
    # only where a nested walk starts would make 16x, 37x and 50x S steps.
    a, b, h = coprime_instance(bits)
    _, s_steps, q_steps = step_calls(monkeypatch, lambda: t2(a, b, h))
    euclid = euclid_steps(a, b)
    assert s_steps <= 3 * euclid, (s_steps, euclid)
    assert q_steps <= 2 * euclid, (q_steps, euclid)


def test_no_memo_outlives_a_call(monkeypatch):
    a, b, h = coprime_instance(256)
    first = step_calls(monkeypatch, lambda: t2(a, b, h))
    second = step_calls(monkeypatch, lambda: t2(a, b, h))
    assert first == second
    assert first[1] > 0
