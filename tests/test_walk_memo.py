"""The walk memo of an untraced T2 call.

An untraced ``t2`` keeps, for the one call, a memo of its nested S and
floor-sum walks; a traced ``t2`` walks the paper's full chain and records
every nested step.  The traced call is the reference: the untraced value must
equal it and its ``replay()``.  The memo must also save work (fewer
``square_sum._terms`` evaluations, one per S reciprocity step) and must not
outlive the call.
"""

import functools
import math
import random

import pytest

from floorsums import square_sum, t2, t3, t3_alt
from floorsums.trace import Trace


def coprime_instance(bits):
    rng = random.Random(bits)
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(1, a)
    return a, b, rng.randrange(a)


def terms_calls(monkeypatch, call):
    """(value, number of square_sum._terms calls) of call()."""
    calls = 0
    original = square_sum._terms

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(square_sum, "_terms", counted)
        return call(), calls


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


@pytest.mark.parametrize("bits", [256, 512])
def test_memo_saves_most_s_reciprocity_steps(bits, monkeypatch):
    a, b, h = coprime_instance(bits)
    traced, traced_calls = terms_calls(monkeypatch, lambda: t2(a, b, h, Trace()))
    untraced, untraced_calls = terms_calls(monkeypatch, lambda: t2(a, b, h))
    assert untraced == traced
    assert untraced_calls <= 0.3 * traced_calls, (untraced_calls, traced_calls)


def test_no_memo_outlives_a_call(monkeypatch):
    a, b, h = coprime_instance(256)
    first = terms_calls(monkeypatch, lambda: t2(a, b, h))
    second = terms_calls(monkeypatch, lambda: t2(a, b, h))
    assert first == second
    assert first[1] > 0
