import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorsums import (
    Instance,
    InvalidArgumentError,
    Trace,
    full_report,
    oracle_report,
    sum_squares,
    t1,
    t2,
    t2_reciprocity_rhs,
    t3,
    t3_alt,
)

H_GRID = lambda a: (0, 1, a // 2, a - 1, a, 2 * a + 3)


class TestT2:
    def test_paper_value(self):
        assert t2(8411, 2732, 1221) == 196956430

    def test_small(self):
        assert t2(5, 3, 4) == 13  # floors 0,1,1,2 -> 0+2+3+8
        assert t2(7, 3, 0) == 0

    def test_paper_division_step(self):
        assert t2(2732, 8411, 396) == t2(2732, 215, 396) + 62334558

    def test_paper_rhs(self):
        assert t2_reciprocity_rhs(8411, 2732, 1221) == Fraction(1075804292917, 2732)

    def test_paper_inner_floor_sum(self):
        assert floor_sum_215() == 6287

    def test_oracle_sweep(self):
        for a in range(2, 30):
            for b in range(1, 30):
                if math.gcd(a, b) != 1:
                    continue
                for h in H_GRID(a):
                    assert t2(a, b, h) == brute_t2(a, b, h), (a, b, h)

    def test_large_h_block_decomposition(self):
        for a, b, h in [(7, 5, 1000), (13, 9, 70), (97, 31, 10000)]:
            assert t2(a, b, h) == brute_t2(a, b, h)

    @given(st.integers(2, 10**12), st.integers(1, 10**12), st.integers(0, 10**12))
    @settings(max_examples=40, deadline=None)
    def test_reciprocity_identity(self, a, b, h):
        # Eq: T2(a,b;h) + (a/b) T2(b,a;h') = rhs, every term by its own module.
        b = b % a
        h = h % a
        if b < 1 or math.gcd(a, b) != 1:
            return
        hp = b * h // a
        lhs = t2(a, b, h) + Fraction(a, b) * t2(b, a, hp)
        assert lhs == t2_reciprocity_rhs(a, b, h)

    @pytest.mark.parametrize("bits", [64, 512, 1024])
    def test_reciprocity_identity_above_the_oracle(self, bits):
        # The left side comes from the integer pass, the right side from the
        # S chain and a floor walk: two routes, at sizes the oracle cannot
        # reach.
        rng = random.Random(bits)
        a = b = 0
        while math.gcd(a, b) != 1:
            a = rng.getrandbits(bits) | (1 << (bits - 1))
            b = rng.randrange(1, a)
        h = rng.randrange(a)
        lhs = t2(a, b, h) + Fraction(a, b) * t2(b, a, b * h // a)
        assert lhs == t2_reciprocity_rhs(a, b, h), bits

    @pytest.mark.parametrize("args", [(0, 1, 1), (3, 5, 2), (4, 2, 1), (5, 3, 7),
                                      (True, 1, 0), (5, 3, 2.0)])
    def test_rhs_rejects_outside_its_domain(self, args):
        # a = 0, a < b, gcd(a, b) > 1, h >= a, a bool and a float.
        with pytest.raises(InvalidArgumentError):
            t2_reciprocity_rhs(*args)

    def test_trace_replay(self):
        trace = Trace()
        value = t2(8411, 2732, 1221, trace)
        assert trace.replay() == value
        assert trace.total_steps() > len(trace)  # inner S/floor-sum work counted


class TestT3:
    def test_paper_value(self):
        assert t3(8411, 2732, 1221) == 63853169
        assert t3_alt(8411, 2732, 1221) == 63853169

    def test_small(self):
        assert t3(5, 3, 4) == 6
        assert t3_alt(5, 3, 4) == 6
        assert t3(1, 4, 6) == 16 * sum_squares(6)
        assert t3_alt(7, 3, 0) == 0

    def test_rejects_non_int(self):
        for fn in (t2, t3, t3_alt):
            with pytest.raises(InvalidArgumentError):
                fn(5, 3, 2.5)
            with pytest.raises(InvalidArgumentError):
                fn(True, 1, 2)

    def test_t3_alt_precondition(self):
        # t3_alt has t3's precondition only: b > a is answered.
        assert t3_alt(3, 7, 2) == oracle_report(Instance(3, 7, 2)).t3 == 20

    def test_routes_agree(self):
        for a in range(3, 25):
            for b in range(1, a):
                if math.gcd(a, b) != 1:
                    continue
                for h in H_GRID(a):
                    assert t3(a, b, h) == t3_alt(a, b, h), (a, b, h)

    def test_oracle_sweep(self):
        for a in range(2, 25):
            for b in range(1, 25):
                if math.gcd(a, b) != 1:
                    continue
                for h in H_GRID(a):
                    assert t3(a, b, h) == brute_t3(a, b, h), (a, b, h)

    @pytest.mark.parametrize("bits", [64, 128])
    def test_routes_agree_past_one_period(self, bits):
        # h = Qa + m: t3 takes the period reduction (and its Dedekind-sum
        # period term) through t2, t3_alt its own block split on the paper's
        # chain.
        rng = random.Random(bits)
        for _ in range(2):
            a = b = 0
            while math.gcd(a, b) != 1:
                a = rng.getrandbits(bits) | (1 << (bits - 1))
                b = rng.randrange(1, a)
            for q_blocks in (1, 3):
                h = q_blocks * a + rng.randrange(a)
                assert t3(a, b, h) == t3_alt(a, b, h), (a, b, h)


class TestFullReport:
    def test_worked_example(self):
        report = full_report(Instance(8411, 2732, 1221))
        assert report.q_sum == 241709
        assert report.r2_sum == 28850219593
        assert report.t2 == 196956430
        assert report.t3 == 63853169

    def test_small_enumeration(self):
        report = full_report(Instance(5, 3, 4))
        assert report.q_sum == 4
        assert report.r_sum == 10
        assert report.r2_sum == 30
        assert report.t1 == Fraction(6, 5)
        assert report.t2 == 13
        assert report.t3 == 6
        assert report.ir_sum == 25
        assert report.qr_sum == 9

    def test_zero_bound(self):
        report = full_report(Instance(9, 4, 0))
        assert report == oracle_report(Instance(9, 4, 0))

    def test_cross_identities(self):
        for inst in [Instance(8411, 2732, 1221), Instance(5, 3, 4), Instance(13, 9, 70)]:
            report = full_report(inst)
            a, b, h = report.instance.a, report.instance.b, report.instance.h
            assert b * sum_squares(h) == a * report.t2 + report.ir_sum
            assert report.qr_sum == b * report.t2 - a * report.t3
            assert report.r2_sum == report.t1 * a * a

    def test_oracle_sweep(self):
        for a in range(2, 25):
            for b in range(1, 25):
                if math.gcd(a, b) != 1:
                    continue
                for h in (0, 1, a - 1, a, 2 * a + 3):
                    inst = Instance(a, b, h)
                    assert full_report(inst) == oracle_report(inst), (a, b, h)


def brute_t2(a, b, h):
    g = math.gcd(a, b)
    a, b = a // g, b // g
    return sum(i * (i * b // a) for i in range(1, h + 1))


def brute_t3(a, b, h):
    g = math.gcd(a, b)
    a, b = a // g, b // g
    return sum((i * b // a) ** 2 for i in range(1, h + 1))


def floor_sum_215():
    from floorsums import floor_sum

    return floor_sum(Instance(215, 2732, 31))
