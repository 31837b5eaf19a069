"""An untraced T2 call, and t3_alt, walk nothing.

An untraced ``t2`` runs no nested S or floor-sum walk: it computes T2 in
one integer pass up its chain, carrying Q, T2 and T3 along; a traced ``t2``
walks the paper's full chain and records every nested step.  The traced
call is the reference: the untraced value must equal it and its
``replay()``, for b < a and for a < b < 3a.  The pass must also do exactly
its own work: no S reciprocity step (no ``square_sum._terms`` evaluation),
no floor-sum reciprocity step, also when h >= a and the period rule needs
Q(a,b;m), and one sum of squares per T2 reciprocity level plus one for the
top state's division step.  ``t3_alt`` takes all it needs from the same
pass: no S or floor-sum step, and never the period term's Dedekind-sum
formula, which ``t3`` past the period uses.
"""

import functools
import importlib
import math
import random

import pytest

from floorsums import cross_sum, square_sum, t2, t3, t3_alt
from floorsums.trace import RULE_RECIPROCITY, Trace
from t2_chain import coprime_instance, levels

# The package attribute floorsums.floor_sum is the function.
floor_sum = importlib.import_module("floorsums.floor_sum")


def step_calls(monkeypatch, call):
    """(value, S reciprocity steps, floor-sum reciprocity steps, cross_sum's
    sum_squares calls) of call()."""
    calls = {"_terms": 0, "_reciprocity": 0, "sum_squares": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(square_sum, "_terms", counted(square_sum, "_terms"))
        patch.setattr(floor_sum, "_reciprocity", counted(floor_sum, "_reciprocity"))
        patch.setattr(cross_sum, "sum_squares", counted(cross_sum, "sum_squares"))
        value = call()
    return value, calls["_terms"], calls["_reciprocity"], calls["sum_squares"]


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
                assert len(levels(a, b, h)) == swaps, (a, b, h)


@pytest.mark.parametrize("bits", [64, 256, 512, 1024])
def test_untraced_t2_equals_traced_on_seeded_pairs(bits):
    # The traced t2 at 1024 bits walks the paper's O(log^2) chain: about 20 s.
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=(0, 1))
    value, replayed = traced_t2(a, b, h)
    assert t2(a, b, h) == value == replayed, (a, b, h)
    assert t3(a, b, h) == t3_alt(a, b, h), (a, b, h)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_untraced_t2_equals_traced_past_the_period(bits):
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=(1, 3))
    value, replayed = traced_t2(a, b, h)
    assert t2(a, b, h) == value == replayed, (a, b, h)


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("h_periods", [(0, 1), (1, 3)], ids=["h_below_a", "h_past_a"])
def test_untraced_t2_equals_traced_for_b_above_a(bits, h_periods):
    # The pass's top division step, b >= a, on a seeded pair.
    a, b, h = coprime_instance(bits, random.Random(bits), (1, 3), h_periods)
    value, replayed = traced_t2(a, b, h)
    assert t2(a, b, h) == value == replayed, (a, b, h)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_pass_past_the_period_makes_no_s_or_floor_sum_step(bits, monkeypatch):
    # The pass gives the period rule's Q(a,b;m) too: no S or floor-sum step,
    # and one sum of squares per level, one for the top state's division
    # step and two for the period rule (its block sum and the period term).
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=(1, 3))
    _, s_steps, q_steps, squares = step_calls(monkeypatch, lambda: t2(a, b, h))
    assert (s_steps, q_steps) == (0, 0)
    assert squares == len(levels(a, b, h)) + 3


@pytest.mark.parametrize("bits", [256, 512, 1024])
def test_pass_makes_no_s_or_floor_sum_step(bits, monkeypatch):
    # The paper's chain makes O(levels^2) S steps (46,971 traced at 512
    # bits); the pass makes none, and one sum of squares per level plus
    # one for the top state's division step.
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=(0, 1))
    _, s_steps, q_steps, squares = step_calls(monkeypatch, lambda: t2(a, b, h))
    assert (s_steps, q_steps) == (0, 0)
    assert squares == len(levels(a, b, h)) + 1


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("h_periods", [(0, 1), (1, 3)], ids=["h_below_a", "h_past_a"])
def test_t3_alt_makes_no_s_or_floor_sum_step(bits, h_periods, monkeypatch):
    # t3_alt runs one pass for (a,b;h mod a) and, past the period, one for
    # (a,b;a-1) and the block sum of squares.
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=h_periods)
    value, s_steps, q_steps, squares = step_calls(monkeypatch, lambda: t3_alt(a, b, h))
    assert (s_steps, q_steps) == (0, 0)
    passes = len(levels(a, b, h)) + 1
    if h >= a:
        passes += len(levels(a, b, a - 1)) + 1 + 1
    assert squares == passes
    assert value == t3(a, b, h), (a, b, h)


def test_t3_alt_never_takes_the_period_term(monkeypatch):
    # Past the period t3 takes T2(a,b;a-1) from the Dedekind-sum formula and
    # t3_alt takes T3(a,b;a-1) from the chain, so t3 == t3_alt checks the
    # formula.
    cases = [
        (a, b, h)
        for a in range(2, 25)
        for b in range(1, a)
        if math.gcd(a, b) == 1
        for h in (a, a + 1, 2 * a + 3, 3 * a + 1)
    ]
    cases += [coprime_instance(bits, random.Random(bits), h_periods=(1, 3)) for bits in (64, 512)]
    expected = [t3(*case) for case in cases]

    def refused(a, b):
        raise AssertionError(f"the period term of {(a, b)} was taken")

    monkeypatch.setattr(cross_sum, "_period_term", refused)
    with pytest.raises(AssertionError, match="period term"):
        t3(*cases[0])
    assert [t3_alt(*case) for case in cases] == expected
