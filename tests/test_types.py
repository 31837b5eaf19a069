"""Pin the exact return types of the paper routes.

Fraction(5) == 5, so the value tests elsewhere cannot see an int where a
Fraction belongs (or the reverse); these check the type itself on every
branch of the S/T1 and T2 chains.
"""

from fractions import Fraction

import pytest

from floorsums import (
    Instance,
    Trace,
    floor_sum,
    full_report,
    s_value,
    t1,
    t2,
    t2_reciprocity_rhs,
    t3,
    t3_alt,
)

# (a, b, h) reaching each branch: the three bases, division, period
# reduction and reciprocity.
BRANCHES = {
    "base a=1": (1, 5, 4),
    "base b=0": (7, 0, 3),
    "base b=1": (7, 1, 5),
    "base h=0": (7, 3, 0),
    "division": (5, 13, 4),
    "period-reduction": (7, 3, 23),
    "reciprocity": (13, 5, 11),
}
# t2_reciprocity_rhs needs a > b >= 1.
ORDERED = {name: abh for name, abh in BRANCHES.items() if abh[0] > abh[1] >= 1}

REPORT_TYPES = {
    "q_sum": int,
    "r_sum": int,
    "r2_sum": int,
    "t1": Fraction,
    "t2": int,
    "t3": int,
    "ir_sum": int,
    "qr_sum": int,
    "s": Fraction,
}


@pytest.mark.parametrize("abh", BRANCHES.values(), ids=BRANCHES.keys())
def test_route_types(abh):
    assert type(s_value(*abh)) is Fraction
    assert type(t1(*abh)) is Fraction
    assert type(t2(*abh)) is int
    assert type(t3(*abh)) is int
    assert type(t3_alt(*abh)) is int


@pytest.mark.parametrize("abh", ORDERED.values(), ids=ORDERED.keys())
def test_ordered_route_types(abh):
    a, b, h = abh
    assert type(t2_reciprocity_rhs(a, b, h % a)) is Fraction


@pytest.mark.parametrize("abh", BRANCHES.values(), ids=BRANCHES.keys())
def test_report_field_types(abh):
    report = full_report(Instance(*abh))
    for field, kind in REPORT_TYPES.items():
        assert type(getattr(report, field)) is kind, field


def _floor_sum(a, b, h, trace):
    return floor_sum(Instance(a, b, h), trace)


@pytest.mark.parametrize("abh", BRANCHES.values(), ids=BRANCHES.keys())
def test_trace_contributions_are_fractions(abh):
    # t1's trace holds the S and floor-sum steps it is derived from, so only
    # the other routes replay to their own value.
    for route in (s_value, t1, t2, _floor_sum):
        trace = Trace()
        value = route(*abh, trace)
        assert trace.steps
        for step in trace.steps:
            assert type(step.contribution) is Fraction, (route.__name__, step)
        if route is not t1:
            assert trace.replay() == value, route.__name__
