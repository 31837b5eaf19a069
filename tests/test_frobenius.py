import math
import random
import time

import pytest

from floorsums import (
    InvalidArgumentError,
    OutOfDomainError,
    four_var_count,
    nonrep_count,
    nonrep_sum,
    oracle_four_var,
    oracle_nonrep,
    reciprocity_terms,
    s_value,
)
from floorsums.frobenius import _staircase


class TestClosedForms:
    def test_examples(self):
        assert nonrep_count(3, 5) == 4  # {1, 2, 4, 7}
        assert nonrep_sum(3, 5) == 14
        assert nonrep_sum(2, 3) == 1
        assert nonrep_count(1, 9) == 0
        assert nonrep_sum(1, 9) == 0
        assert nonrep_count(8411, 2732) == 8410 * 2731 // 2

    def test_non_coprime_rejected(self):
        with pytest.raises(InvalidArgumentError):
            nonrep_count(4, 6)
        with pytest.raises(InvalidArgumentError):
            nonrep_sum(4, 6)

    def test_non_int_rejected(self):
        for a, b in ((True, 3), (2, False), (2.0, 3), (2, "3")):
            with pytest.raises(InvalidArgumentError):
                nonrep_count(a, b)
            with pytest.raises(InvalidArgumentError):
                nonrep_sum(a, b)

    def test_against_sieve(self):
        for a in range(2, 51):
            for b in range(2, 51):
                if math.gcd(a, b) != 1:
                    continue
                count, total = oracle_nonrep(a, b)
                assert nonrep_count(a, b) == count, (a, b)
                assert nonrep_sum(a, b) == total, (a, b)


class TestFourVarCount:
    def test_examples(self):
        assert four_var_count(2, 3, 5) == 16
        assert four_var_count(7, 4, 0) == 1
        assert four_var_count(5, 3, 10) == 36

    def test_domain(self):
        with pytest.raises(OutOfDomainError):
            four_var_count(2, 3, 6)
        with pytest.raises(OutOfDomainError):
            four_var_count(2, 3, -1)

    def test_tail_loop_limit(self):
        # n = g // 2 with g = ab - a - b is far from both 0 and g, so both sides
        # are long: rejected before the loop starts.  About 2^39 rounds would
        # run for days.
        a, b = 2**40 + 1, 2**40
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match="loop limit"):
            four_var_count(a, b, (a * b - a - b) // 2)
        assert time.perf_counter() - start < 1
        # About 30,000 rounds on 157-word (10,000-bit) numbers, whose products
        # cost more per word, would take about 4 s: rejected too.
        a, b = 60001, 3**6309
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match="loop limit"):
            four_var_count(a, b, (a * b - a - b) // 2)
        assert time.perf_counter() - start < 1
        # From one below the Frobenius number ab - a - b up, the count takes at
        # most one round, whatever the size.
        a, b = 2**40 + 1, 2**40
        for n in (a * b - a - b - 1, a * b - a - b, a * b - 1):
            assert isinstance(four_var_count(a, b, n), int)

    def test_small_n_at_any_size(self):
        # Below min(a, b) only x = y = 0 is in range, so the count is n + 1,
        # counted in one round however far n is below ab - a - b.
        for a, b, n in ((2**40 + 1, 2**40, 0), (60001, 3**6309, 0), (2 * 10**6 + 1, 2**600, 3)):
            start = time.perf_counter()
            assert four_var_count(a, b, n) == n + 1
            assert time.perf_counter() - start < 1

    def test_non_int_rejected(self):
        for args in ((True, 3, 1), (2, 3, 2.5), (2, 3, True), (2.0, 3, 1)):
            with pytest.raises(InvalidArgumentError):
                four_var_count(*args)

    def test_against_brute_force(self):
        for a in range(1, 31):
            for b in range(1, 31):
                if math.gcd(a, b) != 1:
                    continue
                for n in range(a * b):
                    assert four_var_count(a, b, n) == oracle_four_var(a, b, n), (a, b, n)

    def test_splits_as_two_s_values_plus_eta1(self):
        # The solution count equals S(a,b;h) + S(b,a;H) + eta1 for the n
        # derived from (a, b, h).
        for a in range(2, 15):
            for b in range(2, 15):
                if math.gcd(a, b) != 1:
                    continue
                for h in range(a):
                    terms = reciprocity_terms(a, b, h)
                    expected = s_value(a, b, h) + s_value(b, a, terms.H) + terms.eta1
                    assert four_var_count(a, b, terms.n) == expected, (a, b, h)

    def test_two_routes_agree_at_17_bits(self):
        # The direct count up to n equals the closed form minus its overcount
        # up to m = g - n - 1, at the 17 bits of perfbench's frobenius-tail,
        # with n spread over [0, ab) and its edges: the side four_var_count
        # picks never decides whether it is right.  The closed form is
        # sum_{i <= n} (n + 1 - i) less (n + 1 - i) for every nonrepresentable
        # i, by Sylvester and Brown-Shiue.
        rng = random.Random(17)
        for case in range(12):
            a = b = 0
            while math.gcd(a, b) != 1:
                a, b = (rng.getrandbits(17) | 1 << 16 for _ in range(2))
            g = a * b - a - b
            lo, hi = a * b * case // 12, a * b * (case + 1) // 12
            for n in (rng.randrange(lo, hi), (0, g // 2, g - 1, g, a * b - 1)[case % 5]):
                closed = (n + 1) * (n + 2) // 2 - (n + 1) * nonrep_count(a, b) + nonrep_sum(a, b)
                direct = _staircase(a, b, n, 1)
                assert direct == closed - _staircase(a, b, g - n - 1, 0), (a, b, n)
                assert four_var_count(a, b, n) == direct, (a, b, n)
