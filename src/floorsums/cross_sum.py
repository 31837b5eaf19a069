"""T2(a,b;h) = sum i*floor(ib/a), T3(a,b;h) = sum floor(ib/a)^2, mixed sums.

T2 satisfies a reciprocity of its own: with h' = floor(bh/a) and coprime
a > b,

    T2(a,b;h) + (a/b)*T2(b,a;h')
        = a*h*h'^2/(2b) + (a/(2b)) * sum_{t<=h'} floor(ta/b)
          - (a/(2b))*T1(a,b;h) + b*h(h+1)(2h+1)/(12a).

The definition of S gives T1 = (2S(a,b;h) - (a+2)Q(a,b;h))/a, and the
floor-sum reciprocity gives Q(a,b;h) = h*h' - Q(b,a;h'), so the
reciprocity rule computes the right-hand side from one floor-sum walk and
one S walk as

    (a*h*h'^2 + (a+2)*h*h' - 2Q(b,a;h') - 2S(a,b;h)) / (2b)
        + b*h(h+1)(2h+1)/(12a).

For b >= a the division step is T2(a,b;h) = T2(a, b mod a; h)
+ floor(b/a)*h(h+1)(2h+1)/6.  For b = 1 and h < a every floor is 0, and
for h >= a a block decomposition adds the h // a full periods in closed
form, from T2(a,b;a-1) and one floor sum.  These rules return their
contribution times the coefficient the walk carries (-a/b at every swap),
and ``trace.walk`` drives them.  On the paper's chain one S walk and one
floor-sum walk run, unchecked, at every level.  A traced call walks each
of them in full, so its transcript keeps the paper's O((log max(a,b))^2)
steps: the reciprocity and period rules hand the sink that ``walk`` gives
them to those nested walks, and a traced T2 step keeps their steps as its
children.  No rule builds a trace.

Untraced, ``t2`` runs none of these walks: it calls ``floor_sum._sums``,
which goes once up the chain in integers, carrying Q, T2 and T3 and no S
(the ``floor_sum`` docstring derives it by counting lattice points), and
which serves ``t3_alt`` too.  It gives the three sums of (a,b;h mod a); for
h >= a, ``t2`` adds the full periods to that T2 by the block formula of the
period rule, from that Q.

The period term T2(a,b;a-1) is a Dedekind sum and walks no chain.  For
coprime a >= 2, b >= 1, s(b,a) = sum_{0<i<a} ((i/a))((ib/a)) equals
ir(a,b;a-1)/a^2 - (a-1)/4 with ir = b*sum i^2 - a*T2.  With q_1..q_t the
Euclid quotients of (a, b) and b* = b^-1 mod a, the Barkan-Hickerson-Knuth
formula (Knuth, TAOCP Vol. 2, 3.3.3) and that relation give

    12a*s(b,a) = a*sum_i (-1)^(i+1) q_i + b + b* - a*(3 if t is odd else 1),
    12a*T2(a,b;a-1) = 12b*sum_{i<a} i^2 - a*(12a*s(b,a)) - 3a^2(a-1).

The formula, stated for b < a, holds as written for b > a: the quotients
then begin 0, b//a, which adds 2 to t and -b//a to the sum, and
a*(-(b//a)) + b = b mod a.  A direct t2(a, b, a-1) does not use the
formula: traced, it walks the paper's chain, and untraced it is one pass up
that chain.

t3 walks S and Q, takes T2 from ``t2`` and derives T3 from T1 and T2 by
``models._derive``, which squares floor(ib/a) = ib/a - {ib/a}.  t3_alt is
an independent second route used for cross-validation: it takes T3 and Q of
(a,b;h mod a) and, for h >= a, the full periods' T3(a,b;a-1) from
``_sums``, that is from the chain and never from the formula, so that
t3 == t3_alt cross-checks the formula too.
"""

from fractions import Fraction

from .errors import InvalidArgumentError
from .floor_sum import _full_period, _sums, floor_sum, remainder_sum
from .floor_sum import _walk as _floor_walk
from .models import _TARGETS, Instance, SumReport, _derive
from .numeric import exact_int, require_coprime, require_ints, shown, sum_squares
from .square_sum import _canonical, s_value, t1
from .square_sum import _walk as _s_walk
from .trace import walk


def _division(a, q, h, coef):
    return coef * (q * sum_squares(h))


def _unit(a, h, coef):
    # b = 1, h < a: floor(i/a) = 0 for every i <= h.
    return 0


def _reciprocity(a, b, h, coef, sink):
    # coef times the T2 right-hand side, unchecked: coprime a > b >= 1,
    # 0 <= h < a.
    hp = b * h // a
    qv = _floor_walk(b, a, hp, sink)
    s = _s_walk(a, b, h, sink)
    rhs = (
        (a * h * hp * hp + (a + 2) * h * hp - 2 * qv - 2 * s) / (2 * b)
        + Fraction(b * h * (h + 1) * (2 * h + 1), 12 * a)
    )
    return coef * rhs, coef * Fraction(-a, b), hp, {"h_prime": hp}


def t2_reciprocity_rhs(a: int, b: int, h: int, trace=None) -> Fraction:
    """Right-hand side of the T2 reciprocity for coprime a > b >= 1, 0 <= h < a."""
    require_coprime(a, b)
    require_ints(h)
    if not (a > b and 0 <= h < a):
        raise InvalidArgumentError(f"need a > b and 0 <= h < a, got {shown((a, b, h))}")
    return _reciprocity(a, b, h, 1, trace)[0]


def _period_term(a, b):
    # T2(a,b;a-1) for coprime a >= 2, b >= 1 (see the module docstring).
    x, y = a, b
    alternating, t = 0, 0
    while y:
        q, r = divmod(x, y)
        alternating += -q if t % 2 else q
        t += 1
        x, y = y, r
    twelve_a_s = a * alternating + b + pow(b, -1, a) - a * (3 if t % 2 else 1)
    value = Fraction(12 * b * sum_squares(a - 1) - a * twelve_a_s - 3 * a * a * (a - 1), 12 * a)
    return exact_int(value, "T2", a, b, a - 1)


def _blocks(a, b, q_blocks, m, fm):
    # Block decomposition i = ja + t with floor((ja+t)b/a) = jb + floor(tb/a):
    # full blocks reduce to T2(a,b;a), floor sums and polynomial sums, with
    # fm = Q(a,b;m); only the tail h mod a recurses.
    t2_a = _period_term(a, b) + a * b
    sj = q_blocks * (q_blocks - 1) // 2
    sj2 = sum_squares(q_blocks - 1)
    return (
        a * a * b * sj2
        + a * _full_period(a, b) * sj
        + b * (a * (a + 1) // 2) * sj
        + q_blocks * t2_a
        + q_blocks * q_blocks * a * b * m
        + q_blocks * a * fm
        + q_blocks * b * (m * (m + 1) // 2)
    )


def _period(a, b, q_blocks, m, sink):
    return _blocks(a, b, q_blocks, m, _floor_walk(a, b, m, sink))


def t2(a: int, b: int, h: int, trace=None) -> int:
    """Exact T2(a,b;h) = sum_{i=1..h} i*floor(ib/a) (canonical (a,b))."""
    a, b, h = _canonical(a, b, h)
    if trace is not None:
        value = walk(a, b, h, trace, _division, _reciprocity, _period, _unit)
        return exact_int(value, "T2", a, b, h)
    if a == 1:
        return b * sum_squares(h)
    # The chain's T2 of (a,b;h mod a) and, for h >= a, the full periods from
    # its Q.
    q_blocks, m = divmod(h, a)
    q, t, _ = _sums(a, b, m)
    return t + _blocks(a, b, q_blocks, m, q) if q_blocks else t


def t3(a: int, b: int, h: int) -> int:
    """Exact T3(a,b;h) = sum_{i=1..h} floor(ib/a)^2, via T1 and T2."""
    a, b, h = _canonical(a, b, h)
    values = {"s": _s_walk(a, b, h, None), "q": _floor_walk(a, b, h), "t2": t2(a, b, h)}
    return _derive(a, b, h, values)["t3"]


def t3_alt(a: int, b: int, h: int) -> int:
    """T3 by a route independent of the T1/T2 relation; cross-validates t3.

    Takes every (a, b, h) that t3 takes, b >= a and a = 1 included.  For
    h >= a, splits i = ja + t, so that the full periods take T3(a,b;a-1) and
    the tail T3(a,b;h mod a) and Q(a,b;h mod a), all from the pass up the T2
    chain.
    """
    a, b, h = _canonical(a, b, h)
    q_blocks, m = divmod(h, a)
    fm, _, t3_m = _sums(a, b, m)
    if not q_blocks:
        return t3_m
    # The full periods, with T3(a,b;a) = T3(a,b;a-1) + b^2, then the tail.
    return (
        a * b * b * sum_squares(q_blocks - 1)
        + 2 * b * _full_period(a, b) * (q_blocks * (q_blocks - 1) // 2)
        + q_blocks * (_sums(a, b, a - 1)[2] + b * b)
        + m * q_blocks * q_blocks * b * b + 2 * q_blocks * b * fm + t3_m
    )


def full_report(inst: Instance) -> SumReport:
    """All supported sums for one instance, computed by the fast paths.

    t1 comes from the pass up the T2 chain and s from the S chain, so the
    report's s = (a/2)*t1 + (a/2 + 1)*q_sum relates two routes.
    """
    inst, _ = inst.canonical()
    a, b, h = inst.a, inst.b, inst.h
    values = _derive(a, b, h, {
        "q": floor_sum(inst), "r": remainder_sum(inst), "s": s_value(a, b, h),
        "t1": t1(a, b, h), "t2": t2(a, b, h), "t3": t3(a, b, h),
    })
    return SumReport(inst, **{field: values[key] for key, (field, _) in _TARGETS.items()})
