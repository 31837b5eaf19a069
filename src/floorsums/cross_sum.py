"""T2(a,b;h) = sum i*floor(ib/a), T3(a,b;h) = sum floor(ib/a)^2, mixed sums.

T2 satisfies a reciprocity of its own: with h' = floor(bh/a) and coprime
a > b,

    T2(a,b;h) + (a/b)*T2(b,a;h')
        = a*h*h'^2/(2b) + (a/(2b)) * sum_{t<=h'} floor(ta/b)
          - (a/(2b))*T1(a,b;h) + b*h(h+1)(2h+1)/(12a),

and for b >= a the division step T2(a,b;h) = T2(a, b mod a; h)
+ floor(b/a)*h(h+1)(2h+1)/6.  T1 and the inner floor sum are recomputed at
every level (no memoization), which is what makes the total work
O((log max(a,b))^2).  T3 follows from T1 and T2, with an independent
second route (t3_alt) used for cross-validation.
"""

from fractions import Fraction

from .errors import InternalInvariantError, InvalidArgumentError
from .floor_sum import _full_period, floor_sum, remainder_sum
from .models import Instance, SumReport
from .numeric import sum_squares
from .square_sum import _canonical, s_value, t1
from .trace import RULE_BASE, RULE_DIVISION, RULE_PERIOD, RULE_RECIPROCITY, Trace


def t2_reciprocity_rhs(a: int, b: int, h: int, trace=None) -> Fraction:
    """Right-hand side of the T2 reciprocity for coprime a > b >= 1, h < a."""
    hp = b * h // a
    qv = floor_sum(Instance(b, a, hp), trace)
    t1v = t1(a, b, h, trace)
    return (
        Fraction(a * h * hp * hp, 2 * b)
        + Fraction(a, 2 * b) * qv
        - Fraction(a, 2 * b) * t1v
        + Fraction(b * h * (h + 1) * (2 * h + 1), 12 * a)
    )


def _t2_chain(a, b, h, trace):
    # Requires gcd(a,b) = 1 and h < a unless a == 1 or b == 0 or h == 0.
    total = Fraction(0)
    coef = Fraction(1)
    while True:
        if h == 0 or b == 0:
            if trace is not None:
                trace.record(RULE_BASE, a, b, h, {}, 0)
            return total
        if a == 1:
            c = coef * (b * sum_squares(h))
            total += c
            if trace is not None:
                trace.record(RULE_BASE, a, b, h, {}, c)
            return total
        if b == 1 and h < a:
            # floor(i/a) = 0 for every i <= h.
            if trace is not None:
                trace.record(RULE_BASE, a, b, h, {}, 0)
            return total
        if b >= a:
            q, r = divmod(b, a)
            c = coef * (q * sum_squares(h))
            total += c
            if trace is not None:
                trace.record(RULE_DIVISION, a, b, h, {"q": q, "r": r}, c)
            b = r
            continue
        hp = b * h // a
        sub = None if trace is None else Trace()
        c = coef * t2_reciprocity_rhs(a, b, h, sub)
        total += c
        if trace is not None:
            trace.record(
                RULE_RECIPROCITY, a, b, h,
                {"h_prime": hp, "sub_steps": len(sub.steps)},
                c,
            )
        coef *= Fraction(-a, b)
        a, b, h = b, a, hp


def t2(a: int, b: int, h: int, trace=None) -> int:
    """Exact T2(a,b;h) = sum_{i=1..h} i*floor(ib/a) (canonical (a,b))."""
    a, b, h = _canonical(a, b, h)
    if h >= a and a >= 2 and b >= 1:
        # Block decomposition i = ja + t with floor((ja+t)b/a) = jb + floor(tb/a):
        # full blocks reduce to T2(a,b;a), floor sums and polynomial sums; only
        # the tail h mod a (and one h = a-1 chain) recurse.
        q_blocks, m = divmod(h, a)
        t2_a = _t2_chain(a, b, a - 1, None) + a * b
        fm = floor_sum(Instance(a, b, m))
        sj = q_blocks * (q_blocks - 1) // 2
        sj2 = sum_squares(q_blocks - 1)
        head = (
            a * a * b * sj2
            + a * _full_period(a, b) * sj
            + b * (a * (a + 1) // 2) * sj
            + q_blocks * t2_a
            + q_blocks * q_blocks * a * b * m
            + q_blocks * a * fm
            + q_blocks * b * (m * (m + 1) // 2)
        )
        if trace is not None:
            trace.record(RULE_PERIOD, a, b, h, {"Q": q_blocks, "m": m}, head)
        value = head + _t2_chain(a, b, m, trace)
    else:
        value = _t2_chain(a, b, h, trace)
    if value.denominator != 1:
        raise InternalInvariantError(f"T2 came out fractional for ({a}, {b}, {h}): {value}")
    return int(value)


def t3(a: int, b: int, h: int) -> int:
    """Exact T3(a,b;h) = sum_{i=1..h} floor(ib/a)^2, via T1 and T2."""
    a, b, h = _canonical(a, b, h)
    value = (
        t1(a, b, h)
        + Fraction(2 * b, a) * t2(a, b, h)
        - Fraction(b * b * h * (h + 1) * (2 * h + 1), 6 * a * a)
    )
    if value.denominator != 1:
        raise InternalInvariantError(f"T3 came out fractional for ({a}, {b}, {h}): {value}")
    return int(value)


def _t3_direct(a, b, h):
    # T3 = h*h'^2 - 2*T2(b,a;h') + Q(b,a;h'); valid for coprime a > b, h < a
    # (for i <= h < a, ib/a is never an integer, which the counting needs).
    hp = b * h // a
    return h * hp * hp - 2 * t2(b, a, hp) + floor_sum(Instance(b, a, hp))


def t3_alt(a: int, b: int, h: int) -> int:
    """T3 by a route independent of the T1/T2 relation; cross-validates t3.

    Requires a > b >= 1 after canonicalization.  For h >= a, splits
    i = ja + t so each piece stays in the h < a regime of the direct route.
    """
    a, b, h = _canonical(a, b, h)
    if not a > b >= 1:
        raise InvalidArgumentError(f"t3_alt needs a > b >= 1, got ({a}, {b})")
    if h < a:
        return _t3_direct(a, b, h)
    q_blocks, m = divmod(h, a)
    t3_a = _t3_direct(a, b, a - 1) + b * b
    fm = floor_sum(Instance(a, b, m))
    full = (
        a * b * b * sum_squares(q_blocks - 1)
        + 2 * b * _full_period(a, b) * (q_blocks * (q_blocks - 1) // 2)
        + q_blocks * t3_a
    )
    tail = m * q_blocks * q_blocks * b * b + 2 * q_blocks * b * fm + _t3_direct(a, b, m)
    return full + tail


def full_report(inst: Instance) -> SumReport:
    """All supported sums for one instance, computed by the fast paths."""
    inst, _ = inst.canonical()
    a, b, h = inst.a, inst.b, inst.h
    q_sum = floor_sum(inst)
    s = s_value(a, b, h)
    t1v = t1(a, b, h)
    r2 = t1v * a * a
    if r2.denominator != 1:
        raise InternalInvariantError(f"a^2*T1 is not integral for ({a}, {b}, {h})")
    t2v = t2(a, b, h)
    t3v = t3(a, b, h)
    return SumReport(
        instance=inst,
        q_sum=q_sum,
        r_sum=remainder_sum(inst),
        r2_sum=int(r2),
        t1=t1v,
        t2=t2v,
        t3=t3v,
        ir_sum=b * sum_squares(h) - a * t2v,
        qr_sum=b * t2v - a * t3v,
        s=s,
    )
