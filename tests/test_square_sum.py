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
    euclid_steps,
    floor_sum,
    oracle_report,
    reciprocity_terms,
    remainder_square_sum,
    s_value,
    square_sum,
    t1,
)

H_GRID = lambda a: (0, 1, a // 2, a - 1, a, 2 * a + 3)


class TestReciprocityTerms:
    def test_worked_example(self):
        terms = reciprocity_terms(8411, 2732, 1221)
        assert terms.eta2 == Fraction(5521952154451967, 441901)
        assert terms.H == 2335

    def test_hand_evaluated_small(self):
        terms = reciprocity_terms(5, 3, 4)
        assert terms.n0 == 0
        assert terms.n == 10
        assert terms.H == 0
        assert terms.gamma == Fraction(14, 45)
        assert terms.eta1 == 19
        assert terms.eta2 == 17
        # eta2 = S(5,3;4) + S(3,5;0), both by the oracle.
        assert terms.eta2 == oracle_report(Instance(5, 3, 4)).s + oracle_report(Instance(3, 5, 0)).s

    def test_zero_remainder_promoted_to_b(self):
        # b divides n here; n1 = 0 must be read as n1 = b, giving H = b-1.
        terms = reciprocity_terms(7, 3, 1)
        assert terms.n == 15
        assert terms.n1 == 3
        assert terms.H == 2
        assert terms.eta2 == Fraction(346, 21)
        assert terms.eta2 == oracle_report(Instance(7, 3, 1)).s + oracle_report(Instance(3, 7, 2)).s

    def test_field_invariants(self):
        for a, b, h in [(8411, 2732, 1221), (7, 3, 1), (26, 11, 21), (215, 152, 31)]:
            terms = reciprocity_terms(a, b, h)
            ab = a * b
            assert terms.n == ab - a + terms.n0
            assert ab - a <= terms.n < ab
            assert 1 <= terms.n1 <= b
            assert terms.H == terms.n1 - 1
            assert (terms.n + a * (terms.H + 1)) % b == 0
            assert 2 * ab**3 * terms.gamma == 2 * terms.alpha**2 - ab * terms.beta

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            reciprocity_terms(1, 3, 1)
        with pytest.raises(InvalidArgumentError):
            reciprocity_terms(6, 3, 1)

    @pytest.mark.parametrize("args", [(True, 1, 0), (5, 3, 2.5), (5, 3, None)])
    def test_rejects_non_int(self, args):
        with pytest.raises(InvalidArgumentError):
            reciprocity_terms(*args)

    def test_gamma_symmetric(self):
        for a, b in [(8411, 2732), (7, 3), (26, 11)]:
            assert reciprocity_terms(a, b, 0).gamma == reciprocity_terms(b, a, 0).gamma

    def test_factored_eta2_equals_the_expanded_polynomial(self):
        # _terms evaluates 12ab*eta2 factored; the module docstring states it
        # expanded, as below.
        def expanded(a, b, h):
            n0, _, _, big_h, _ = square_sum._terms(a, b, h)
            return (
                3 * a * a * (b + 2) * big_h * (big_h + 1)
                + 3 * b * b * (a + 2) * h * (h + 1)
                - a * big_h * (b + 1) * (b + 5)
                - b * h * (a + 1) * (a + 5)
                - b * (a - 1) * (a - 5)
                - n0 * (a * a - 3 * a * b - 6 * a + b * b + 6 * b + 5)
                + 3 * (a - b - 2) * n0 * n0
                - 2 * n0 * n0 * n0
            )

        cases = [
            (a, b, h)
            for a in range(2, 40)
            for b in range(1, 2 * a)
            if math.gcd(a, b) == 1
            for h in H_GRID(a)
        ]
        rng = random.Random(4096)
        for bits in (64, 256, 1024, 4096):
            for _ in range(5):
                a = rng.getrandbits(bits) | (1 << (bits - 1))
                b = rng.randrange(1, a)
                while math.gcd(a, b) != 1:
                    b = rng.randrange(1, a)
                cases.append((a, b, rng.randrange(a)))
        for a, b, h in cases:
            assert 6 * square_sum._terms(a, b, h)[4] == expanded(a, b, h), (a, b, h)

    def test_terms_at_the_reflected_bound_swaps_to_h_prime(self):
        # The S reciprocity at a-1-h swaps to the same h' = floor(bh/a) as T2's
        # at h, also where n1 = 0 mod b is promoted to b (H = b - 1).
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


class TestSValue:
    def test_paper_values(self):
        assert s_value(8411, 2732, 1221) == Fraction(658946167630, 647)
        assert s_value(11, 26, 1) == Fraction(151, 11)

    def test_paper_intermediate_chain(self):
        # Reciprocity right-hand sides along the worked example's chain.
        chain = [
            (8411, 2732, 1221, Fraction(5521952154451967, 441901)),
            (2732, 215, 2335, Fraction(43105956866071, 146845)),
            (215, 152, 31, Fraction(62027530983, 65360)),
            (152, 63, 129, Fraction(1719655381, 6384)),
            (63, 26, 9, Fraction(9093619, 1092)),
            (26, 11, 21, Fraction(757997, 572)),
        ]
        for a, b, h, eta2 in chain:
            assert reciprocity_terms(a, b, h).eta2 == eta2, (a, b, h)

    def test_small(self):
        assert s_value(5, 3, 4) == 17
        assert s_value(7, 3, 0) == 0
        assert s_value(7, 3, 1) == Fraction(9, 14)

    def test_division_step_identity(self):
        # S(a,b;h) - S(a, b mod a; h) = floor(b/a)*h(h+1)(a+2)/4.
        for a, b, h in [(2732, 8411, 2335), (215, 2732, 31), (26, 63, 21)]:
            q, r = divmod(b, a)
            delta = s_value(a, b, h) - s_value(a, r, h)
            assert delta == Fraction(q * h * (h + 1) * (a + 2), 4)

    def test_oracle_sweep(self):
        for a in range(2, 25):
            for b in range(1, 25):
                if math.gcd(a, b) != 1:
                    continue
                for h in H_GRID(a):
                    assert s_value(a, b, h) == oracle_report(Instance(a, b, h)).s, (a, b, h)

    @given(st.integers(2, 10**12), st.integers(1, 10**12), st.integers(0, 10**12))
    @settings(max_examples=60, deadline=None)
    def test_theorem4_identity(self, a, b, h):
        b = b % a
        h = h % a
        if b < 1 or math.gcd(a, b) != 1:
            return
        terms = reciprocity_terms(a, b, h)
        assert s_value(a, b, h) + s_value(b, a, terms.H) == terms.eta2

    def test_trace_replay_and_length(self):
        trace = Trace()
        value = s_value(8411, 2732, 1221, trace)
        assert trace.replay() == value
        assert len(trace) <= 3 * euclid_steps(8411, 2732) + 3
        # The chain starts by mirroring the worked example's swaps.
        swaps = [(s.a, s.b, s.h) for s in trace.steps if s.rule == "reciprocity"]
        assert swaps[:6] == [
            (8411, 2732, 1221),
            (2732, 215, 2335),
            (215, 152, 31),
            (152, 63, 129),
            (63, 26, 9),
            (26, 11, 21),
        ]

    def test_reciprocity_step_count_tracks_euclid(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            a = rng.randrange(2, 10**9)
            b = rng.randrange(1, a)
            if math.gcd(a, b) != 1:
                continue
            h = rng.randrange(0, a)
            trace = Trace()
            s_value(a, b, h, trace)
            reci = sum(1 for step in trace.steps if step.rule == "reciprocity")
            # One swap per Euclidean division at most; the chain may stop
            # early when a level yields H = 0 (empty swapped sum).
            assert reci <= euclid_steps(a, b) + 1


class TestT1:
    def test_paper_values(self):
        assert t1(8411, 2732, 1221) == Fraction(2219247661, 5441917)
        assert t1(2732, 215, 396) == Fraction(489539849, 3731912)

    def test_small(self):
        assert t1(5, 3, 4) == Fraction(6, 5)
        assert t1(1, 9, 100) == 0

    def test_oracle_sweep(self):
        for a in range(2, 41):
            for b in range(1, 41):
                if math.gcd(a, b) != 1:
                    continue
                for h in H_GRID(a):
                    assert t1(a, b, h) == oracle_report(Instance(a, b, h)).t1, (a, b, h)

    def test_large_h_periodicity(self):
        # h far beyond a exercises the entry reduction.
        assert t1(7, 5, 1000) == oracle_report(Instance(7, 5, 1000)).t1
        assert s_value(7, 5, 1000) == oracle_report(Instance(7, 5, 1000)).s


    @pytest.mark.parametrize("args", [(5, 3, 2.5), (5, 3, True), (5.0, 3, 2), (5, 3.0, 2)])
    def test_rejects_non_int(self, args):
        for fn in (s_value, t1, remainder_square_sum):
            with pytest.raises(InvalidArgumentError):
                fn(*args)


class TestRemainderSquareSum:
    def test_paper_value(self):
        assert remainder_square_sum(8411, 2732, 1221) == 28850219593

    def test_small(self):
        assert remainder_square_sum(5, 3, 4) == 30
        assert remainder_square_sum(7, 3, 0) == 0

    def test_integral_and_bounded(self):
        for a in range(2, 20):
            for b in range(1, 20):
                if math.gcd(a, b) != 1:
                    continue
                for h in H_GRID(a):
                    value = remainder_square_sum(a, b, h)
                    assert 0 <= value <= h * (a - 1) ** 2
