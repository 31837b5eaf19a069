"""Closed forms for two-generator nonrepresentable numbers.

For coprime a, b, the numbers not expressible as ax + by with x, y >= 0
have count (a-1)(b-1)/2 (Sylvester) and sum (a-1)(b-1)(2ab-a-b-1)/12
(Brown-Shiue).  Combining the two also counts solutions of
ax + by + z + u = n in closed form for 0 <= n < ab.
"""

from fractions import Fraction

from .errors import InvalidArgumentError, OutOfDomainError
from .numeric import exact_int, require_coprime, require_ints, shown

# Most work of four_var_count's tail loop, in rounds times w*(1 + w//64) for w
# 64-bit words of m (products cost more per word as m grows).  One unit took
# 0.30-0.54 us at 1-300 words (2-vCPU machine), so 3-6 s at most, the scale of
# oracle.ORACLE_MAX_H; far below ab - a - b it would run for days.
_MAX_TAIL_WORK = 10**7


def nonrep_count(a: int, b: int) -> int:
    """Number of nonnegative integers not representable as ax + by."""
    require_coprime(a, b)
    return (a - 1) * (b - 1) // 2


def nonrep_sum(a: int, b: int) -> int:
    """Sum of the nonrepresentable numbers."""
    require_coprime(a, b)
    return exact_int(Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12), "nonrep_sum", a, b)


def _tail_correction(a: int, b: int, n: int) -> int:
    """sum of (i - n - 1) over nonrepresentable i > n.

    The closed form below subtracts (n + 1 - i) for every nonrepresentable i,
    including those above n that never occur in the actual count, so this is
    exactly its overcount.  Nonrepresentables mirror representables under
    i -> g - i with g = ab - a - b, so the sum runs over representable
    r = ax + by <= g - n - 1 (each value hit once since r < ab), with the
    inner y-sum in closed form.  Iterates over the larger generator, so at
    most min(a, b) rounds.
    """
    g = a * b - a - b
    m = g - n - 1
    if m < 0:
        return 0
    if a < b:
        a, b = b, a
    words = m.bit_length() // 64 + 1
    if (m // a + 1) * words * (1 + words // 64) > _MAX_TAIL_WORK:
        raise InvalidArgumentError(
            f"n={shown(n)}: the tail loop passes its limit of {_MAX_TAIL_WORK}"
        )
    total = 0
    for x in range(m // a + 1):
        c = m - a * x
        k = c // b
        total += (k + 1) * c - b * k * (k + 1) // 2
    return total


def four_var_count(a: int, b: int, n: int) -> int:
    """Number of nonnegative integer solutions of ax + by + z + u = n.

    Valid only for 0 <= n < ab, where ax + by = i has 0 or 1 solutions.  The
    closed form alone is exact once n reaches the Frobenius number
    ab - a - b (the only regime the reciprocity machinery uses); below it an
    exact correction term is added.
    """
    require_coprime(a, b)
    require_ints(n)
    if not 0 <= n < a * b:
        raise OutOfDomainError(f"need 0 <= n < a*b, got n={shown(n)}, a*b={shown(a * b)}")
    num = 6 * (n + 1) * (n + 2) + (a - 1) * (b - 1) * (2 * a * b - a - b - 6 * n - 7)
    return exact_int(Fraction(num, 12), "four_var_count", a, b, n) - _tail_correction(a, b, n)
