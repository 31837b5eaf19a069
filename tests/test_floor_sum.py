import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorsums import Instance, InvalidArgumentError, Trace, euclid_steps, floor_sum, remainder_sum

# The package attribute floorsums.floor_sum is the function, not the module.
floor_sum_module = importlib.import_module("floorsums.floor_sum")


def brute_floor_sum(a, b, h):
    return sum(i * b // a for i in range(1, h + 1))


class TestInstance:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            Instance(0, 1, 1)
        with pytest.raises(InvalidArgumentError):
            Instance(1, -1, 1)
        with pytest.raises(InvalidArgumentError):
            Instance(1, 1, -1)

    @pytest.mark.parametrize("args", [(True, 1, 2), (5, False, 2), (5, 3, 2.5), (5.0, 3, 2), (5, 3, "4")])
    def test_rejects_non_int(self, args):
        with pytest.raises(InvalidArgumentError):
            Instance(*args)

    def test_canonical(self):
        inst, normalized = Instance(4, 6, 3).canonical()
        assert inst == Instance(2, 3, 3) and normalized
        inst, normalized = Instance(5, 3, 4).canonical()
        assert inst == Instance(5, 3, 4) and not normalized


class TestFloorSum:
    def test_paper_values(self):
        assert floor_sum(Instance(8411, 2732, 1221)) == 241709
        assert floor_sum(Instance(2732, 8411, 396)) == 241807

    def test_small(self):
        assert floor_sum(Instance(5, 3, 4)) == 4
        assert floor_sum(Instance(7, 1, 6)) == 0

    def test_non_coprime_normalized(self):
        # floor(ib/a) is invariant under scaling both a and b.
        assert floor_sum(Instance(10, 6, 7)) == floor_sum(Instance(5, 3, 7))

    def test_oracle_sweep(self):
        for a in range(2, 41):
            for b in range(2, 41):
                if math.gcd(a, b) != 1:
                    continue
                for h in (0, 1, a // 2, a - 1, a, 2 * a + 3):
                    assert floor_sum(Instance(a, b, h)) == brute_floor_sum(a, b, h), (a, b, h)

    @given(st.integers(2, 10**18), st.integers(1, 10**18), st.integers(0, 10**18))
    @settings(max_examples=100)
    def test_theorem3_identity(self, a, b, h):
        # For coprime b < a and h < a: Q(a,b;h) + Q(b,a;K) = h*K.
        b = b % a
        h = h % a
        if b == 0 or math.gcd(a, b) != 1:
            return
        k = b * h // a
        assert floor_sum(Instance(a, b, h)) + floor_sum(Instance(b, a, k)) == h * k

    def test_monotone_in_h(self):
        previous = 0
        for h in range(0, 60):
            current = floor_sum(Instance(7, 5, h))
            assert current >= previous
            previous = current

    @given(st.integers(1, 10**15), st.integers(0, 10**15), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_periodicity_reduction(self, a, b, h):
        # h >= a goes through the block decomposition; cross-check small cases.
        if h > 5000:
            h %= 5000
        canon, _ = Instance(a, b, h).canonical()
        assert floor_sum(canon) == brute_floor_sum(canon.a, canon.b, canon.h)


class TestRemainderSum:
    def test_small(self):
        assert remainder_sum(Instance(5, 3, 4)) == 10  # remainders 3,1,4,2
        assert remainder_sum(Instance(7, 3, 0)) == 0

    def test_worked_example(self):
        # Frozen from the brute-force oracle.
        assert remainder_sum(Instance(8411, 2732, 1221)) == 5142293

    def test_bounds(self):
        for a in range(2, 25):
            for b in range(1, 25):
                if math.gcd(a, b) != 1:
                    continue
                for h in (0, 1, a - 1, a, 2 * a + 3):
                    r = remainder_sum(Instance(a, b, h))
                    assert 0 <= r <= (a - 1) * h


class TestFloorSumTrace:
    def test_replay(self):
        trace = Trace()
        value = floor_sum(Instance(8411, 2732, 1221), trace)
        assert trace.replay() == value
        assert len(trace) > 0

    def test_step_bound(self):
        for a, b, h in [(8411, 2732, 1221), (10**18 + 9, 10**17 + 3, 12345), (144, 89, 100)]:
            g = math.gcd(a, b)
            trace = Trace()
            floor_sum(Instance(a, b, h), trace)
            assert len(trace) <= 3 * euclid_steps(a // g, b // g) + 3


@pytest.mark.parametrize("bits", [64, 512, 1024, 4096])
@pytest.mark.parametrize(
    "b_periods, h_periods",
    [((0, 1), (0, 1)), ((0, 1), (1, 3)), ((1, 3), (0, 3))],
    ids=["h_below_a", "h_past_a", "b_above_a"],
)
def test_untraced_q_equals_the_traced_walk(bits, b_periods, h_periods, monkeypatch):
    # Untraced, floor_sum and remainder_sum take Q from engine._floor_sum and
    # never enter trace.walk; the traced walk is the second route to Q.  b is
    # in [b0*a, b1*a) and h in [h0*a, h1*a) for (b0, b1), (h0, h1) the
    # periods.
    rng = random.Random(bits)
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | 1 << (bits - 1)
        b = rng.randrange(max(1, b_periods[0] * a), b_periods[1] * a)
    inst = Instance(a, b, rng.randrange(h_periods[0] * a, h_periods[1] * a))
    trace = Trace()
    traced = floor_sum(inst, trace)

    def refused(*args):
        raise AssertionError("an untraced Q entered trace.walk")

    monkeypatch.setattr(floor_sum_module, "walk", refused)
    assert floor_sum(inst) == traced == trace.replay(), (a, b, inst.h)
    assert remainder_sum(inst) == b * inst.h * (inst.h + 1) // 2 - a * traced
