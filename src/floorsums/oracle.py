"""Brute-force reference implementations of every quantity.

These loop over i = 1..h (or sieve up to a*b) with plain integer arithmetic
and deliberately share no logic with the reciprocity-based fast paths: they
are the ground truth the fast paths are tested against, and the source of
every frozen expected value in the test suite.  Intended for desk-scale
inputs (h or a*b up to ORACLE_MAX_H).
"""

from fractions import Fraction

from .errors import InvalidArgumentError
from .models import Instance, SumReport
from .numeric import require_coprime, require_ints, shown

# Largest h (or a*b for the sieves) the enumerating oracles are meant for:
# oracle_report loops h times, which takes several seconds at this size.
ORACLE_MAX_H = 10**7


def oracle_report(inst: Instance) -> SumReport:
    """All sums by direct enumeration of q_i, r_i for i = 1..h."""
    inst, _ = inst.canonical()
    a, b, h = inst.a, inst.b, inst.h
    q_sum = r_sum = r2_sum = t2 = t3 = ir_sum = qr_sum = 0
    for i in range(1, h + 1):
        q, r = divmod(i * b, a)
        q_sum += q
        r_sum += r
        r2_sum += r * r
        t2 += i * q
        t3 += q * q
        ir_sum += i * r
        qr_sum += q * r
    t1 = Fraction(r2_sum, a * a)
    s = Fraction(a, 2) * t1 + (Fraction(a, 2) + 1) * q_sum
    return SumReport(
        instance=inst,
        q_sum=q_sum,
        r_sum=r_sum,
        r2_sum=r2_sum,
        t1=t1,
        t2=t2,
        t3=t3,
        ir_sum=ir_sum,
        qr_sum=qr_sum,
        s=s,
    )


def oracle_nonrep(a: int, b: int) -> tuple[int, int]:
    """(count, sum) of numbers < ab not representable as ax + by, by sieve.

    Requires coprime a, b >= 1; for any other pair infinitely many numbers
    are not representable.
    """
    require_coprime(a, b)
    limit = a * b
    representable = bytearray(limit)
    for x in range(0, limit, a):
        for y in range(x, limit, b):
            representable[y] = 1
    count = total = 0
    for n in range(limit):
        if not representable[n]:
            count += 1
            total += n
    return count, total


def oracle_four_var(a: int, b: int, n: int) -> int:
    """Solutions of ax + by + z + u = n, counting n - ax - by + 1 per (x, y).

    Requires ints a, b >= 1 and n >= 0.
    """
    require_ints(a, b, n)
    if a < 1 or b < 1 or n < 0:
        raise InvalidArgumentError(f"need a, b >= 1 and n >= 0, got {shown((a, b, n))}")
    count = 0
    for x in range(n // a + 1):
        rest = n - a * x
        for y in range(rest // b + 1):
            count += rest - b * y + 1
    return count
