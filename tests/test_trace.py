"""Golden traces: the exact steps of one walk per sum, and the shape of the tree.

Each step is (rule, a, b, h, derived, contribution).  The floor-sum case
takes the period reduction, the S case alternates division and
reciprocity down the paper's worked example, and the T2 case ends in the
b = 1 closed form.  The T2 chain's reciprocity and period steps keep the
walks they ran as children; no other step has any.
"""

import math
import random
from fractions import Fraction as F

import pytest

from floorsums import Instance, Trace, floor_sum, s_value, t1, t2, t2_reciprocity_rhs

FLOOR_SUM_7_3_23 = [
    ("period-reduction", 7, 3, 23, {"Q": 3, "m": 2}, F(108)),
    ("reciprocity", 7, 3, 2, {"K": 0}, F(0)),
    ("base", 3, 7, 0, {}, F(0)),
]

S_8411_2732_1221 = [
    ("reciprocity", 8411, 2732, 1221, {"n0": 663, "n": 22971104, "n1": 2336, "H": 2335},
     F(5521952154451967, 441901)),
    ("division", 2732, 8411, 2335, {"q": 3, "r": 215}, F(-11184575280)),
    ("reciprocity", 2732, 215, 2335, {"n0": 448, "n": 585096, "n1": 32, "H": 31},
     F(-43105956866071, 146845)),
    ("division", 215, 2732, 31, {"q": 12, "r": 152}, F(645792)),
    ("reciprocity", 215, 152, 31, {"n0": 81, "n": 32546, "n1": 130, "H": 129},
     F(62027530983, 65360)),
    ("division", 152, 215, 129, {"q": 1, "r": 63}, F(-645645)),
    ("reciprocity", 152, 63, 129, {"n0": 18, "n": 9442, "n1": 10, "H": 9},
     F(-1719655381, 6384)),
    ("division", 63, 152, 9, {"q": 2, "r": 26}, F(2925)),
    ("reciprocity", 63, 26, 9, {"n0": 55, "n": 1630, "n1": 22, "H": 21}, F(9093619, 1092)),
    ("division", 26, 63, 21, {"q": 2, "r": 11}, F(-6468)),
    ("reciprocity", 26, 11, 21, {"n0": 18, "n": 278, "n1": 2, "H": 1}, F(-757997, 572)),
    ("division", 11, 26, 1, {"q": 2, "r": 4}, F(13)),
    ("reciprocity", 11, 4, 1, {"n0": 3, "n": 36, "n1": 4, "H": 3}, F(2089, 44)),
    ("division", 4, 11, 3, {"q": 2, "r": 3}, F(-36)),
    ("reciprocity", 4, 3, 3, {"n0": 0, "n": 8, "n1": 1, "H": 0}, F(-43, 4)),
    ("base", 3, 4, 0, {}, F(0)),
]

T2_13_5_11 = [
    ("reciprocity", 13, 5, 11, {"h_prime": 4}, F(1764, 5)),
    ("division", 5, 13, 4, {"q": 2, "r": 3}, F(-156)),
    ("reciprocity", 5, 3, 4, {"h_prime": 2}, F(-962, 15)),
    ("division", 3, 5, 2, {"q": 1, "r": 2}, F(65, 3)),
    ("reciprocity", 3, 2, 2, {"h_prime": 1}, F(91, 6)),
    ("division", 2, 3, 1, {"q": 1, "r": 1}, F(-13, 2)),
    ("base", 2, 1, 1, {}, F(0)),
]


def steps(trace):
    return [(s.rule, s.a, s.b, s.h, s.derived, s.contribution) for s in trace.steps]


def test_floor_sum_trace():
    trace = Trace()
    assert floor_sum(Instance(7, 3, 23), trace) == 108
    assert steps(trace) == FLOOR_SUM_7_3_23


def test_s_value_trace():
    trace = Trace()
    assert s_value(8411, 2732, 1221, trace) == F(658946167630, 647)
    assert steps(trace) == S_8411_2732_1221


def test_t2_trace():
    trace = Trace()
    assert t2(13, 5, 11, trace) == 163
    assert steps(trace) == T2_13_5_11
    assert [len(step.children) for step in trace.steps] == [9, 0, 7, 0, 5, 0, 0]
    assert trace.total_steps() == len(T2_13_5_11) + 9 + 7 + 5


# The grid of the other trace tests: non-coprime pairs, b = 0, a = 1, b >= a
# and h >= a all occur.
GRID = [
    (a, b, h)
    for a in range(1, 13)
    for b in range(0, 21)
    for h in sorted({0, 1, a // 2, a - 1, a, 3 * a + 2})
]


def all_steps(steps):
    for step in steps:
        yield step
        yield from all_steps(step.children)


def test_t2_reciprocity_children_replay_to_q_and_s():
    seen = 0
    for a, b, h in GRID:
        trace = Trace()
        assert t2(a, b, h, trace) == trace.replay()
        for step in all_steps(trace.steps):
            if step.rule == "reciprocity" and "h_prime" in step.derived:
                hp = step.derived["h_prime"]
                expected = floor_sum(Instance(step.b, step.a, hp)) + s_value(step.a, step.b, step.h)
                assert Trace(step.children).replay() == expected, (a, b, h, step)
                seen += 1
    assert seen > 100


def test_t1_trace_holds_the_s_then_the_q_walk():
    # T1 is derived from S and Q, and its sink gets both walks in that order,
    # so the replay is S + Q, not T1.
    seen = 0
    for a, b, h in GRID:
        trace, s_walk, q_walk = Trace(), Trace(), Trace()
        t1(a, b, h, trace)
        expected = s_value(a, b, h, s_walk) + floor_sum(Instance(a, b, h), q_walk)
        assert trace.replay() == expected, (a, b, h)
        assert steps(trace) == steps(s_walk) + steps(q_walk), (a, b, h)
        seen += bool(s_walk.steps and q_walk.steps)
    assert seen > 100
    trace = Trace()
    assert t1(8411, 2732, 1221, trace) == F(2219247661, 5441917)
    assert trace.replay() == F(659102553353, 647)


def test_t2_reciprocity_rhs_trace_holds_the_q_then_the_s_walk():
    # The right-hand side's sink gets the Q(b,a;h') walk, then S(a,b;h).
    seen = 0
    for a, b, h in GRID:
        if not (a > b >= 1 and h < a and math.gcd(a, b) == 1):
            continue
        hp = b * h // a
        trace, q_walk, s_walk = Trace(), Trace(), Trace()
        t2_reciprocity_rhs(a, b, h, trace)
        expected = floor_sum(Instance(b, a, hp), q_walk) + s_value(a, b, h, s_walk)
        assert trace.replay() == expected, (a, b, h)
        assert steps(trace) == steps(q_walk) + steps(s_walk), (a, b, h)
        seen += 1
    assert seen > 100


def test_t2_period_children_replay_to_q():
    # The period term T2(a,b;a-1) is a closed formula, so a period step's
    # only nested walk is the floor sum Q(a,b;m).
    seen = 0
    for a, b, h in GRID:
        trace = Trace()
        t2(a, b, h, trace)
        for step in trace.steps:
            if step.rule == "period-reduction":
                m = step.derived["m"]
                q_walk = Trace()
                expected = floor_sum(Instance(step.a, step.b, m), q_walk)
                assert Trace(step.children).replay() == expected, (a, b, h, step)
                assert steps(Trace(step.children)) == steps(q_walk), (a, b, h, step)
                seen += 1
    assert seen > 100


@pytest.mark.parametrize("name, call", [
    ("floor_sum", lambda a, b, h, trace: floor_sum(Instance(a, b, h), trace)),
    ("s_value", s_value),
    ("t1", t1),
])
def test_other_chains_have_no_children(name, call):
    for a, b, h in GRID:
        trace = Trace()
        call(a, b, h, trace)
        assert trace.steps, (name, a, b, h)
        assert all(step.children == [] for step in trace.steps), (name, a, b, h)
        assert trace.total_steps() == len(trace)


def test_total_steps_counts_the_whole_tree():
    for a, b, h in GRID:
        trace = Trace()
        t2(a, b, h, trace)
        assert trace.total_steps() == sum(1 for _ in all_steps(trace.steps))


def seeded_t2_instances():
    rng = random.Random(2107)
    for bits in (64, 128):
        for _ in range(3):
            while True:
                a = rng.getrandbits(bits) | (1 << (bits - 1))
                b = rng.randrange(1, a)
                if math.gcd(a, b) == 1:
                    break
            yield a, b, rng.randrange(a)


def test_t2_total_steps_frozen():
    # For h < a the tree holds exactly the steps the T2 walk and its nested
    # S and floor-sum walks take, so these counts (those of the code before
    # nested walks were kept as children) must not move.
    counts = []
    for a, b, h in seeded_t2_instances():
        trace = Trace()
        t2(a, b, h, trace)
        counts.append((len(trace), trace.total_steps()))
    assert counts == [(75, 2888), (70, 2573), (77, 3041),
                      (165, 13621), (161, 13281), (157, 12637)]


@pytest.mark.parametrize("bits", [64, 512, 4096])
def test_t2_period_term_takes_logarithmic_steps(bits):
    # T2(a,b;a) = T2(a,b;a-1) + ab comes from the period reduction, whose
    # T2(a,b;a-1) is a closed formula: at any size the trace is the period
    # step, its one child (the base step of Q(a,b;0)) and the base step of
    # the empty tail, where the paper's chain takes O(log^2) steps.
    rng = random.Random(bits)
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(2, a)
    trace = Trace()
    assert t2(a, b, a, trace) == trace.replay()
    assert trace.total_steps() == 3, bits
    period = trace.steps[0]
    assert period.rule == "period-reduction"
    assert [step.rule for step in period.children] == ["base"]
