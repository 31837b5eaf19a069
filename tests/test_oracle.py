import math
from fractions import Fraction

import pytest

from floorsums import (
    Instance,
    InvalidArgumentError,
    oracle_four_var,
    oracle_nonrep,
    oracle_report,
    sum_first,
    sum_squares,
)


def test_small_enumeration():
    report = oracle_report(Instance(5, 3, 4))
    assert report.q_sum == 4
    assert report.r2_sum == 30
    assert report.t2 == 13
    assert report.t3 == 6
    assert report.t1 == Fraction(6, 5)


def test_zero_bound():
    report = oracle_report(Instance(9, 2, 0))
    assert report.q_sum == report.r_sum == report.r2_sum == 0
    assert report.t1 == 0 and report.s == 0


def test_worked_example_goldens():
    report = oracle_report(Instance(8411, 2732, 1221))
    assert report.q_sum == 241709
    assert report.r2_sum == 28850219593
    assert report.t2 == 196956430
    assert report.t3 == 63853169
    assert report.t1 == Fraction(2219247661, 5441917)
    assert report.s == Fraction(658946167630, 647)


def test_oracle_s_values():
    assert oracle_report(Instance(5, 3, 4)).s == 17
    assert oracle_report(Instance(11, 26, 1)).s == Fraction(151, 11)
    assert oracle_report(Instance(9, 2, 0)).s == 0


def test_nonrep_examples():
    assert oracle_nonrep(3, 5) == (4, 14)
    assert oracle_nonrep(2, 3) == (1, 1)
    assert oracle_nonrep(1, 7) == (0, 0)


def test_four_var_examples():
    assert oracle_four_var(2, 3, 5) == 16
    assert oracle_four_var(7, 9, 0) == 1
    assert oracle_four_var(2, 3, 0) == 1


@pytest.mark.parametrize(
    "fn, args",
    [
        # A non-coprime pair leaves infinitely many numbers unrepresentable.
        (oracle_nonrep, (4, 6)),
        (oracle_nonrep, (0, 3)),
        (oracle_nonrep, (2.0, 3)),
        (oracle_four_var, (0, 3, 1)),
        (oracle_four_var, (2, 0, 1)),
        (oracle_four_var, (2, 3, -5)),
        (oracle_four_var, (2, 3, 5.0)),
    ],
)
def test_sieves_reject_invalid_arguments(fn, args):
    with pytest.raises(InvalidArgumentError):
        fn(*args)


def test_self_consistency():
    # The division-algorithm identities must hold on raw oracle output.
    for a in range(2, 20):
        for b in range(1, 20):
            if math.gcd(a, b) != 1:
                continue
            for h in (0, 3, a, 2 * a + 3):
                report = oracle_report(Instance(a, b, h))
                assert report.r_sum == b * sum_first(h) - a * report.q_sum
                assert report.ir_sum == b * sum_squares(h) - a * report.t2
                assert report.qr_sum == b * report.t2 - a * report.t3
                assert report.r2_sum == report.t1 * a * a
