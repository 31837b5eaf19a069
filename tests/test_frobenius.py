import math
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
        # 2 * 10^6 rounds on 10-word numbers would take seconds: rejected
        # before the loop starts.
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match="tail loop"):
            four_var_count(2 * 10**6 + 1, 2**600, 3)
        assert time.perf_counter() - start < 1
        # About 60,000 rounds on 157-word (10,000-bit) numbers, whose products
        # cost more per word, would take over 10 s: rejected too.
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match="tail loop"):
            four_var_count(60001, 3**6309, 0)
        assert time.perf_counter() - start < 1
        # From one below the Frobenius number ab - a - b up, the tail has at
        # most one round, whatever the size.
        a, b = 2**40 + 1, 2**40
        for n in (a * b - a - b - 1, a * b - a - b, a * b - 1):
            assert isinstance(four_var_count(a, b, n), int)

    def test_non_int_rejected(self):
        for args in ((True, 3, 1), (2, 3, 2.5), (2, 3, True), (2.0, 3, 1)):
            with pytest.raises(InvalidArgumentError):
                four_var_count(*args)

    def test_against_brute_force(self):
        for a in range(2, 13):
            for b in range(2, 13):
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
