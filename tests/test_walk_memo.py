"""An untraced T2 call walks nothing.

An untraced ``t2`` runs no nested S or floor-sum walk: it computes T2 in
one integer pass up its chain, carrying 2a*S and Q along; a traced ``t2``
walks the paper's full chain and records every nested step.  The traced
call is the reference: the untraced value must equal it and its
``replay()``.  The pass must also save work: it makes exactly one S
reciprocity step (one ``square_sum._terms`` evaluation) per T2 reciprocity
level, at most the Euclid steps of (a, b), and no floor-sum reciprocity
step, also when h >= a and the period rule needs Q(a,b;m).  Nothing of it
outlives the call.
"""

import functools
import importlib
import math
import random

import pytest

from floorsums import square_sum, t2, t3, t3_alt
from floorsums.trace import RULE_RECIPROCITY, Trace, euclid_steps

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


def t2_levels(a, b, h):
    """Number of T2 reciprocity steps of coprime (a, b) and h, a >= 2."""
    n = 0
    b, h = b % a, h % a
    while h and b > 1:
        a, b, h = b, a % b, b * h // a
        n += 1
    return n


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


def test_level_count_matches_the_traced_chain():
    for a in range(2, 40):
        for b in range(1, 2 * a):
            if math.gcd(a, b) != 1:
                continue
            for h in sorted({1, a // 2, a - 1, a, 2 * a + 3}):
                trace = Trace()
                t2(a, b, h, trace)
                swaps = sum(step.rule == RULE_RECIPROCITY for step in trace.steps)
                assert t2_levels(a, b, h) == swaps, (a, b, h)


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
    # The pass gives the period rule's Q(a,b;m) too: one S step per level
    # and no floor-sum step.
    a, b, h = coprime_instance(bits, past_the_period=True)
    _, s_steps, q_steps = step_calls(monkeypatch, lambda: t2(a, b, h))
    assert s_steps == t2_levels(a, b, h) <= euclid_steps(a, b), (s_steps, euclid_steps(a, b))
    assert q_steps == 0


@pytest.mark.parametrize("bits", [256, 512, 1024])
def test_memo_saves_most_s_reciprocity_steps(bits, monkeypatch):
    # The paper's chain makes O(levels^2) S steps (46,971 traced at 512
    # bits); the pass makes one per level.
    a, b, h = coprime_instance(bits)
    _, s_steps, q_steps = step_calls(monkeypatch, lambda: t2(a, b, h))
    assert s_steps == t2_levels(a, b, h) <= euclid_steps(a, b), (s_steps, euclid_steps(a, b))
    assert q_steps == 0


def test_no_memo_outlives_a_call(monkeypatch):
    a, b, h = coprime_instance(256)
    first = step_calls(monkeypatch, lambda: t2(a, b, h))
    second = step_calls(monkeypatch, lambda: t2(a, b, h))
    assert first == second
    assert first[1] > 0
