"""Closed forms for two-generator nonrepresentable numbers.

For coprime a, b, the numbers not expressible as ax + by with x, y >= 0
have count (a-1)(b-1)/2 (Sylvester) and sum (a-1)(b-1)(2ab-a-b-1)/12
(Brown-Shiue).  Combining the two also counts solutions of
ax + by + z + u = n in closed form for 0 <= n < ab, exact from the Frobenius
number g = ab - a - b up.  Below g the count is a loop over the
representable numbers on whichever side of g is shorter: up to n directly,
or up to g - n - 1 for the closed form's overcount.  So n near 0 or near g
takes few rounds, and n near g/2 the most, about min(a, b)/2.
"""

from fractions import Fraction

from .errors import InvalidArgumentError, OutOfDomainError
from .numeric import exact_int, require_coprime, require_ints, shown

# Most work of four_var_count's staircase loop, in rounds times w*(1 + w//64)
# for w 64-bit words of c (products cost more per word as c grows).  One unit
# took 0.30-0.54 us at 1-300 words (2-vCPU machine), so 3-6 s at most, the
# scale of oracle.ORACLE_MAX_H.  The loop runs from the nearer of 0 and
# ab - a - b, so only n near (ab - a - b)/2 with a large min(a, b) passes it.
_MAX_TAIL_WORK = 10**7


def nonrep_count(a: int, b: int) -> int:
    """Number of nonnegative integers not representable as ax + by."""
    require_coprime(a, b)
    return (a - 1) * (b - 1) // 2


def nonrep_sum(a: int, b: int) -> int:
    """Sum of the nonrepresentable numbers."""
    require_coprime(a, b)
    return exact_int(Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12), "nonrep_sum", a, b)


def _staircase(a: int, b: int, c: int, e: int) -> int:
    """sum of (c - ax - by + e) over x, y >= 0 with ax + by <= c; 0 if c < 0.

    With e = 1 this counts the solutions of ax + by + z + u = c directly
    (z + u = c - r has c - r + 1 of them, and r < ab is hit at most once).
    With e = 0 and c = g - n - 1, g = ab - a - b, it is the closed form's
    overcount: nonrepresentables mirror representables under i -> g - i, so
    it sums (i - n - 1) over nonrepresentable i > n.  The inner y-sum is in
    closed form and the loop runs over the larger generator.
    """
    if c < 0:
        return 0
    if a < b:
        a, b = b, a
    words = c.bit_length() // 64 + 1
    rounds = c // a + 1
    if rounds * words * (1 + words // 64) > _MAX_TAIL_WORK:
        raise InvalidArgumentError(
            f"{shown(rounds)} rounds on {words}-word numbers from the nearer of 0 and"
            f" ab - a - b pass the loop limit of {_MAX_TAIL_WORK}"
        )
    total = 0
    for x in range(rounds):
        d = c - a * x
        k = d // b
        total += (k + 1) * (d + e) - b * k * (k + 1) // 2
    return total


def four_var_count(a: int, b: int, n: int) -> int:
    """Number of nonnegative integer solutions of ax + by + z + u = n.

    Valid only for 0 <= n < ab, where ax + by = i has 0 or 1 solutions.
    With m = ab - a - b - n - 1, it counts directly when n <= m; otherwise it
    takes the closed form, exact from m < 0 (the only regime the reciprocity
    machinery uses), minus its overcount, a sum up to m.
    """
    require_coprime(a, b)
    require_ints(n)
    if not 0 <= n < a * b:
        raise OutOfDomainError(f"need 0 <= n < a*b, got n={shown(n)}, a*b={shown(a * b)}")
    m = a * b - a - b - n - 1
    if n <= m:
        return _staircase(a, b, n, 1)
    num = 6 * (n + 1) * (n + 2) + (a - 1) * (b - 1) * (2 * a * b - a - b - 6 * n - 7)
    return exact_int(Fraction(num, 12), "four_var_count", a, b, n) - _staircase(a, b, m, 0)
