"""Every error is a FloorSumsError in one short line, at any size.

Python refuses str() of an int past its digit limit (4,300 digits by
default), so a message that formatted a caller's value in full would raise a
bare ValueError in place of the package's own error.  Every message names a
value through ``numeric.shown``.
"""

from fractions import Fraction

import pytest

from floorsums import (
    Instance,
    InternalInvariantError,
    InvalidArgumentError,
    OutOfDomainError,
    four_var_count,
    nonrep_count,
    nonrep_sum,
    oracle_report,
    reciprocity_terms,
    remainder_square_sum,
    s_value,
    sum_first,
    sum_squares,
    t1,
    t2,
    t2_reciprocity_rhs,
    t3,
    t3_alt,
)
from floorsums.numeric import exact_int, shown

N = 10**5000

# One out-of-domain call of each public entry point that takes ints, with an
# argument near 10^5000 that its message names.
OUT_OF_DOMAIN = [
    ("Instance", lambda: Instance(1, 2, -N)),
    ("s_value", lambda: s_value(-N, 3, 4)),
    ("t1", lambda: t1(5, -N, 4)),
    ("t2", lambda: t2(5, 3, -N)),
    ("t3", lambda: t3(-N, 3, 4)),
    ("t3_alt", lambda: t3_alt(1, N, -1)),
    ("remainder_square_sum", lambda: remainder_square_sum(5, 3, -N)),
    ("reciprocity_terms", lambda: reciprocity_terms(N, N + 2, 4)),
    ("t2_reciprocity_rhs", lambda: t2_reciprocity_rhs(N, N + 1, 4)),
    ("nonrep_count", lambda: nonrep_count(N, 2 * N)),
    ("nonrep_sum", lambda: nonrep_sum(-N, 3)),
    ("four_var_count", lambda: four_var_count(N, N + 1, -1)),
    ("sum_first", lambda: sum_first(-N)),
    ("sum_squares", lambda: sum_squares(-N)),
]


@pytest.mark.parametrize("name, call", OUT_OF_DOMAIN, ids=[name for name, _ in OUT_OF_DOMAIN])
def test_long_argument_gets_a_short_invalid_argument_error(name, call):
    expected = OutOfDomainError if name == "four_var_count" else InvalidArgumentError
    with pytest.raises(expected) as exc:
        call()
    assert len(str(exc.value)) < 200, str(exc.value)[:200]


def test_t3_alt_answers_a_equals_one_at_any_size():
    # a = 1 and b past the digit limit: t3_alt answers, and only a bad h is refused.
    assert t3_alt(1, N, 4) == oracle_report(Instance(1, N, 4)).t3 == 30 * N * N


def test_long_non_integral_value_gets_an_internal_invariant_error():
    with pytest.raises(InternalInvariantError) as exc:
        exact_int(Fraction(N, 3), "x", 1)
    assert len(str(exc.value)) < 200, str(exc.value)[:200]


def test_shown():
    # In full up to 40 characters, past that by sign and size.
    assert shown(10**40 - 1) == str(10**40 - 1)
    assert shown(-(10**39) + 1) == str(-(10**39) + 1)
    assert shown(10**40) == "<133-bit int>"
    assert shown(-(10**39)) == "-<130-bit int>"
    assert shown("x" * 40) == repr("x" * 40)
    assert shown("x" * 41) == "<41 characters>"
    assert shown((2, -N)) == "(2, -<16610-bit int>)"
    assert shown(Fraction(-7, 3)) == "-7/3"
