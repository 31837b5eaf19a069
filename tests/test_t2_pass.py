"""The integer pass up the T2 chain that untraced ``t2``, ``t3_alt``, ``t1``,
``remainder_square_sum``, ``s_value`` and ``compute`` take.

``engine._sums`` computes Q, T2 and T3 of (a, b; m) in one pass up the
T2 chain, carrying the three sums from level to level by the floor-sum
reciprocity and one division step, with no S; ``engine._report``, from
which an untraced ``t2`` takes T2, adds the full periods for h >= a.  A
traced ``t2`` walks the paper's full chain and records every nested step,
and it is the reference: the untraced value must equal it and its
``replay()``, at the top state and at every state the chain passes, for
b < a and for a < b < 3a.  The pass's Q and T3 must equal
``floor_sum`` and ``t3`` at the top state and at every reciprocity state.

The pass must also do exactly its own work: one ``_report`` call, one
pass, no S reciprocity step (no ``square_sum._terms`` evaluation) and no
floor-sum walk, traced or untraced, also when h >= a and the period rule
needs Q(a,b;m).  The pass takes its sums of i and i^2 inline, so the only
``sum_squares`` calls are those of ``_report``'s full periods past the
period: the block sum and the period term of T2, and the sum of squares of
sum r_i^2.  ``t3_alt`` takes all it needs from the same pass, and past the
period from a second pass for (a,b;a-1), with no ``_report``: no S or
floor-sum step, and never the period term's Dedekind-sum formula, which
``t3`` past the period uses.  Untraced ``t1``, ``remainder_square_sum`` and
``s_value`` each make the same one ``_report`` call, with no S or
floor-sum step; ``t1`` equals the traced ``t1``, which walks S and Q, and
``s_value`` the traced ``s_value``, which walks S.  ``engine._report``,
which untraced ``compute`` takes all nine targets from, gives Q, T2 and
sum r_i^2 from one pass and the full periods, and equals references that
do not call it: Q from the Q loop, sum r_i^2 from the traced S walk and
that Q, T2 from the traced ``t2`` or from ``t3_alt`` and that sum r_i^2,
and all three from the oracle on the edge cases.  Untraced ``compute``
equals traced ``compute``.  ``t3`` still walks S, one S reciprocity step
per state of the S chain, and ``full_report`` makes three ``_report``
calls and two Q loops besides it.  The counts are of ``_report`` calls
made from ``cross_sum`` and ``square_sum``, and of ``sum_squares`` and
``_sums`` calls made in ``engine`` and in ``cross_sum``.  The untraced Q,
``engine._floor_sum``, must equal the pass's Q at every state of the chain.
The pass's one exactness check, the parity of 2*T2, must turn a wrong sum
into an ``InternalInvariantError`` that names the state in one short line.
"""

import functools
import importlib
import json
import math
import random
from fractions import Fraction

import pytest

from floorsums import (
    Instance,
    InternalInvariantError,
    cli,
    cross_sum,
    floor_sum,
    full_report,
    oracle_report,
    remainder_square_sum,
    s_value,
    square_sum,
    sum_squares,
    t1,
    t2,
    t3,
    t3_alt,
)
from floorsums import engine
from floorsums.engine import _sums
from floorsums.trace import RULE_RECIPROCITY, Trace

# The package attribute floorsums.floor_sum is the function, not the module.
floor_sum_module = importlib.import_module("floorsums.floor_sum")


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


def step_calls(monkeypatch, call):
    """(value, calls) of call(): calls counts the S reciprocity steps
    (``_terms``), the traced floor-sum reciprocity steps (``_reciprocity``),
    the untraced floor sums (``_floor_sum``), the ``_report`` calls made from
    cross_sum and square_sum, and the passes (``_sums``) and ``sum_squares``
    calls made in engine and in cross_sum."""
    names = ("_terms", "_reciprocity", "_floor_sum", "_report", "_sums", "sum_squares")
    calls = dict.fromkeys(names, 0)

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(square_sum, "_terms", counted(square_sum, "_terms"))
        for name in ("_reciprocity", "_floor_sum"):
            patch.setattr(floor_sum_module, name, counted(floor_sum_module, name))
        for module in (engine, cross_sum):
            for name in ("_sums", "sum_squares"):
                patch.setattr(module, name, counted(module, name))
        for module in (cross_sum, square_sum):
            patch.setattr(module, "_report", counted(module, "_report"))
        value = call()
    return value, calls


def no_walk(reports, passes, squares):
    """The calls of a computation that makes no S or floor-sum step."""
    return {
        "_terms": 0, "_reciprocity": 0, "_floor_sum": 0,
        "_report": reports, "_sums": passes, "sum_squares": squares,
    }


def s_states(a, b, h):
    """The reciprocity steps of the traced S walk of (a, b, h)."""
    trace = Trace()
    s_value(a, b, h, trace)
    return sum(step.rule == RULE_RECIPROCITY for step in trace.steps)


@functools.cache
def traced_t2(a, b, h):
    trace = Trace()
    return t2(a, b, h, trace), trace.replay()


@functools.cache
def check_sums(a, b, m):
    """The pass's Q and T3 of (a, b; m) equal floor_sum and t3."""
    q, _, u = _sums(a, b, m)
    assert (q, u) == (floor_sum(Instance(a, b, m)), t3(a, b, m)), (a, b, m)


def check_chain(a, b, h):
    """Untraced t2 equals traced t2 and its replay() at (a, b, h), and at
    every state its chain passes; the pass's Q and T3 equal floor_sum and t3
    at the top state and at every reciprocity state.  The value at a step's
    entry state is what is left of the replay there, over the coefficient
    the walk carries."""
    trace = Trace()
    value = t2(a, b, h, trace)
    assert t2(a, b, h) == value == trace.replay(), (a, b, h)
    if a >= 2:
        check_sums(a, b, h % a)
    rest, coef = trace.replay(), Fraction(1)
    for step in trace.steps:
        assert t2(step.a, step.b, step.h) == rest / coef, (a, b, h, step.rule, step.a, step.b, step.h)
        rest -= step.contribution
        if step.rule == RULE_RECIPROCITY:
            check_sums(step.a, step.b, step.h)
            coef *= Fraction(-step.a, step.b)
    assert rest == 0


def test_untraced_t2_equals_traced_on_small_grid():
    for a in range(1, 40):
        for b in range(2 * a):
            if math.gcd(a, b) != 1:
                continue
            for h in sorted({0, 1, a // 2, a - 1, a, 2 * a + 3}):
                value, replayed = traced_t2(a, b, h)
                assert t2(a, b, h) == value == replayed, (a, b, h)
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
    assert t3(a, b, h) == t3_alt(a, b, h), (a, b, h)


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


@pytest.mark.parametrize("bits", [64, 512, 1024])
def test_untraced_q_equals_the_pass_at_every_state(bits):
    # engine._floor_sum walks the chain down and the pass carries Q up it:
    # they must agree at every reciprocity state and at the state each swap
    # leads to, whose b is above its a.
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=(0, 1))
    for x, y, k in levels(a, b, h):
        kp = y * k // x
        assert engine._floor_sum(x, y, k) == _sums(x, y, k)[0], (x, y, k)
        assert engine._floor_sum(y, x, kp) == _sums(y, x, kp)[0], (y, x, kp)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_pass_past_the_period_makes_no_s_or_floor_sum_step(bits, monkeypatch):
    # The pass gives the period rule's Q(a,b;m) too: one _report, one pass,
    # no S or floor-sum step, and _report's three sums of squares, two the
    # period rule's (its block sum and the period term) and one the full
    # periods' sum_{j<a} j^2 of sum r_i^2.
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=(1, 3))
    _, calls = step_calls(monkeypatch, lambda: t2(a, b, h))
    assert calls == no_walk(reports=1, passes=1, squares=3)


@pytest.mark.parametrize("bits", [256, 512, 1024])
def test_pass_makes_no_s_or_floor_sum_step(bits, monkeypatch):
    # The paper's chain makes O(levels^2) S steps (46,971 traced at 512
    # bits); the pass makes none, and takes every sum of squares inline.
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=(0, 1))
    _, calls = step_calls(monkeypatch, lambda: t2(a, b, h))
    assert calls == no_walk(reports=1, passes=1, squares=0)


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("h_periods", [(0, 1), (1, 3)], ids=["h_below_a", "h_past_a"])
def test_t3_alt_makes_no_s_or_floor_sum_step(bits, h_periods, monkeypatch):
    # t3_alt runs one pass for (a,b;h mod a) and, past the period, one for
    # (a,b;a-1) and the block sum of squares, and no _report.
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=h_periods)
    value, calls = step_calls(monkeypatch, lambda: t3_alt(a, b, h))
    past = h >= a
    assert calls == no_walk(reports=0, passes=1 + past, squares=int(past))
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

    monkeypatch.setattr(engine, "_period_term", refused)
    with pytest.raises(AssertionError, match="period term"):
        t3(*cases[0])
    assert [t3_alt(*case) for case in cases] == expected


@pytest.mark.parametrize("bits", [64, 256, 1024, 2048])
@pytest.mark.parametrize(
    "b_periods, h_periods",
    [((0, 1), (0, 1)), ((0, 1), (1, 3)), ((1, 3), (0, 3))],
    ids=["h_below_a", "h_past_a", "b_above_a"],
)
def test_untraced_t1_equals_traced(bits, b_periods, h_periods):
    # The traced t1 walks S and Q; the untraced one takes sum r_i^2 from the
    # pass, with the period term for h >= a and b mod a for b >= a.
    a, b, h = coprime_instance(bits, random.Random(bits), b_periods, h_periods)
    value = t1(a, b, h)
    assert value == t1(a, b, h, Trace()), (a, b, h)
    assert remainder_square_sum(a, b, h) == value * a * a


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("h_periods", [(0, 1), (1, 3)], ids=["h_below_a", "h_past_a"])
@pytest.mark.parametrize("call", [t1, remainder_square_sum])
def test_t1_and_remainder_squares_make_no_s_or_floor_sum_step(bits, h_periods, call, monkeypatch):
    # One _report: one pass for (a, b; h mod a) and, past the period only,
    # its three full-period sums of squares (T2's block sum and period term,
    # and sum r_i^2's sum_{j<a} j^2).
    a, b, h = coprime_instance(bits, random.Random(bits), (0, 3), h_periods)
    _, calls = step_calls(monkeypatch, lambda: call(a, b, h))
    assert calls == no_walk(reports=1, passes=1, squares=3 * (h >= a))


@pytest.mark.parametrize("bits", [64, 256, 1024, 2048])
@pytest.mark.parametrize(
    "b_periods, h_periods",
    [((0, 1), (0, 1)), ((0, 1), (1, 3)), ((1, 3), (0, 3))],
    ids=["h_below_a", "h_past_a", "b_above_a"],
)
def test_untraced_s_value_equals_traced(bits, b_periods, h_periods):
    # The traced s_value walks S; the untraced one takes sum r_i^2 and Q
    # from one _report.
    a, b, h = coprime_instance(bits, random.Random(bits), b_periods, h_periods)
    trace = Trace()
    assert s_value(a, b, h) == s_value(a, b, h, trace) == trace.replay(), (a, b, h)


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("h_periods", [(0, 1), (1, 3)], ids=["h_below_a", "h_past_a"])
def test_s_value_makes_one_pass_and_no_s_step(bits, h_periods, monkeypatch):
    # One _report for sum r_i^2 and Q, so no Q loop, and past the period
    # only its three full-period sums of squares.
    a, b, h = coprime_instance(bits, random.Random(bits), (0, 3), h_periods)
    _, calls = step_calls(monkeypatch, lambda: s_value(a, b, h))
    assert calls == no_walk(reports=1, passes=1, squares=3 * (h >= a))


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("h_periods", [(0, 1), (1, 3)], ids=["h_below_a", "h_past_a"])
def test_t3_makes_one_s_step_per_s_reciprocity_state(bits, h_periods, monkeypatch):
    # t3 walks S untraced: one _terms call per reciprocity step of the
    # traced S walk, and one pass, for its T2.
    a, b, h = coprime_instance(bits, random.Random(bits), (0, 3), h_periods)
    states = s_states(a, b, h)
    _, calls = step_calls(monkeypatch, lambda: t3(a, b, h))
    assert states > 0
    assert (calls["_terms"], calls["_sums"]) == (states, 1)


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize(
    "b_periods, h_periods",
    [((0, 1), (0, 1)), ((0, 1), (1, 3)), ((1, 3), (0, 3))],
    ids=["h_below_a", "h_past_a", "b_above_a"],
)
def test_full_report_engine_calls(bits, b_periods, h_periods, monkeypatch):
    # q from the Q loop, r2 and t2 from one _report each, and t3 from the S
    # walk, a second Q loop and a third _report (its t2): three passes, two
    # Q loops, one S step per S reciprocity state, and past the period each
    # _report's three full-period sums of squares.
    a, b, h = coprime_instance(bits, random.Random(bits), b_periods, h_periods)
    states = s_states(a, b, h)
    _, calls = step_calls(monkeypatch, lambda: full_report(Instance(a, b, h)))
    assert states > 0
    assert calls == {
        "_terms": states, "_reciprocity": 0, "_floor_sum": 2,
        "_report": 3, "_sums": 3, "sum_squares": 9 * (h >= a),
    }, (a, b, h)


@pytest.mark.parametrize("bits", [64, 256, 1024, 2048])
@pytest.mark.parametrize(
    "b_periods, h_periods",
    [((0, 1), (0, 1)), ((0, 1), (1, 3)), ((1, 3), (0, 3))],
    ids=["h_below_a", "h_past_a", "b_above_a"],
)
def test_report_equals_the_single_sums(bits, b_periods, h_periods):
    # _report against routes that never call it: Q from the Q loop, sum r_i^2
    # = 2a*S - a(a+2)*Q with S from the traced S walk, and T2 from the
    # traced t2 up to 256 bits (a traced t2 takes about 15 s at 1024 bits),
    # above that by solving sum r_i^2 = b^2*sum i^2 - 2ab*T2 + a^2*T3 for T2
    # with T3 from t3_alt.
    a, b, h = coprime_instance(bits, random.Random(bits), b_periods, h_periods)
    q = floor_sum(Instance(a, b, h))
    r2 = 2 * a * s_value(a, b, h, Trace()) - a * (a + 2) * q
    if bits <= 256:
        t = traced_t2(a, b, h)[0]
    else:
        t = Fraction(b * b * sum_squares(h) + a * a * t3_alt(a, b, h) - r2, 2 * a * b)
    assert engine._report(a, b, h) == (q, t, r2), (a, b, h)


def test_report_on_the_edge_cases():
    # a = 1 (so b = 0 after canonicalisation), h = 0, and non-coprime pairs,
    # whose canonical form _report takes, against the oracle.
    for a, b, h in [(1, 0, 0), (1, 0, 9), (1, 5, 0), (1, 5, 9), (7, 3, 0), (7, 10, 0),
                    (12, 8, 0), (12, 8, 5), (12, 8, 40), (9, 0, 20), (6, 15, 17)]:
        inst, _ = Instance(a, b, h).canonical()
        report = oracle_report(inst)
        want = (report.q_sum, report.t2, report.r2_sum)
        assert engine._report(inst.a, inst.b, inst.h) == want, (a, b, h)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize(
    "b_periods, h_periods",
    [((0, 1), (0, 1)), ((0, 1), (1, 3)), ((1, 3), (0, 3))],
    ids=["h_below_a", "h_past_a", "b_above_a"],
)
def test_untraced_compute_equals_traced(bits, b_periods, h_periods, capsys):
    # Untraced compute derives its nine targets from one _report; traced, it
    # runs the paper's chains.  Traced T2 takes about 15 s at 1024 bits.
    a, b, h = coprime_instance(bits, random.Random(bits), b_periods, h_periods)
    argv = ["compute", "--a", str(a), "--b", str(b), "--h", str(h)]
    sums = []
    for extra in ([], ["--trace"]):
        assert cli.main(argv + extra) == 0
        sums.append(json.loads(capsys.readouterr().out)["sums"])
    assert sums[0] == sums[1], (a, b, h)


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("h_periods", [(0, 1), (1, 3)], ids=["h_below_a", "h_past_a"])
def test_full_report_s_agrees_with_t1_and_q(bits, h_periods):
    # full_report takes s and t1 from the same sum r_i^2 of the pass, so the
    # definition s = (a/2)*t1 + (a/2 + 1)*q holds by construction; its t3
    # walks S, so r2 = b^2*sum i^2 - 2ab*t2 + a^2*t3 ties two routes together.
    a, b, h = coprime_instance(bits, random.Random(bits), h_periods=h_periods)
    report = full_report(Instance(a, b, h))
    assert report.s == Fraction(a, 2) * report.t1 + (Fraction(a, 2) + 1) * report.q_sum, (a, b, h)
    r2 = b * b * sum_squares(h) - 2 * a * b * report.t2 + a * a * report.t3
    assert report.r2_sum == r2, (a, b, h)


class OffByOne(int):
    """An int whose products are one more than they should be."""

    def __mul__(self, other):
        return int(self) * other + 1


def test_inexact_t2_division_is_an_internal_error():
    # The pass forms k(k+1) at every level from the level's k, so a top
    # bound m whose products are off by one moves 2*T2 = h'*m(m+1) - T3' - Q'
    # of the top level by h', an odd amount when h' is.  At (7, 2, 5) the
    # one level has h' = 1.  shown() names 512-bit values by bit length.
    with pytest.raises(InternalInvariantError, match=r"^T2 is not integral for \(7, 2, 5\)$"):
        _sums(7, 2, OffByOne(5))
    a, b, h = coprime_instance(512, random.Random(512))
    m = next(m for m in range(h % a, 0, -1) if b * m // a % 2)
    message = r"^T2 is not integral for \(<\d+-bit int>, <\d+-bit int>, <\d+-bit int>\)$"
    with pytest.raises(InternalInvariantError, match=message) as raised:
        _sums(a, b, OffByOne(m))
    assert len(str(raised.value)) < 120


def test_inexact_period_term_is_an_internal_error(monkeypatch):
    # One more in sum_{i<a} i^2 moves 12a*T2(a,b;a-1) by 12b, which 12a does
    # not divide for coprime a >= 2, so the exact division must fail.
    original = engine.sum_squares
    monkeypatch.setattr(engine, "sum_squares", lambda h: original(h) + 1)
    with pytest.raises(InternalInvariantError, match=r"^T2 is not integral for \(7, 2, 6\)$"):
        engine._period_term(7, 2)
