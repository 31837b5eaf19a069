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

Untraced, ``t2`` runs none of these walks: it takes T2 from
``engine._report``, which runs the one integer pass up the chain for
(a,b;h mod a) and for h >= a adds the full periods by ``engine._blocks``,
the period rule's block formula, whose period term T2(a,b;a-1) is a
Dedekind sum in closed form.  The ``engine`` docstring derives all three.
A direct t2(a, b, a-1) does not use that closed form: traced, it walks the
paper's chain, and untraced it is one pass up that chain.

t3 walks S, takes Q from ``engine._floor_sum`` and T2 from ``t2``, and
derives T3 from T1 and T2 by ``models._derive``, which squares
floor(ib/a) = ib/a - {ib/a}.  It is the one untraced sum that walks S:
untraced ``s_value`` and ``t1`` take sum r_i^2 from ``engine._report``.
t3_alt is an independent second route used for cross-validation: it takes
T3 and Q of (a,b;h mod a) from ``engine._sums`` and, for h >= a, the full
periods from ``engine._t3_blocks``, which takes T3(a,b;a-1) from the pass
and never from the period term, so that t3 == t3_alt cross-checks the
period term too.
"""

from fractions import Fraction

from .engine import _blocks, _report, _sums, _t3_blocks
from .errors import InvalidArgumentError
from .floor_sum import floor_sum
from .floor_sum import _walk as _floor_walk
from .models import _TARGETS, Instance, SumReport, _derive
from .numeric import exact_int, require_coprime, require_ints, shown, sum_squares
# s_value is not called here; perfbench/tracing.py swaps cross_sum.s_value by
# name, so the name stays importable.
from .square_sum import _canonical, remainder_square_sum, s_value  # noqa: F401
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


def _period(a, b, q_blocks, m, sink):
    return _blocks(a, b, q_blocks, m, _floor_walk(a, b, m, sink))


def t2(a: int, b: int, h: int, trace=None) -> int:
    """Exact T2(a,b;h) = sum_{i=1..h} i*floor(ib/a) (canonical (a,b))."""
    a, b, h = _canonical(a, b, h)
    if trace is not None:
        value = walk(a, b, h, trace, _division, _reciprocity, _period, _unit)
        return exact_int(value, "T2", a, b, h)
    return _report(a, b, h)[1]


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
    return t3_m + _t3_blocks(a, b, q_blocks, m, fm) if q_blocks else t3_m


def full_report(inst: Instance) -> SumReport:
    """All supported sums for one instance, computed by the fast paths.

    q comes from the untraced Q loop; r2_sum and t2 from ``engine._report``;
    and t3 from the S walk, a second Q loop and t2.  ``models._derive`` gives
    r, s, t1, ir and qr from these.  So the report's
    r2_sum = b^2*sum i^2 - 2ab*t2 + a^2*t3 relates two routes.
    """
    inst, _ = inst.canonical()
    a, b, h = inst.a, inst.b, inst.h
    values = _derive(a, b, h, {
        "q": floor_sum(inst), "r2": remainder_square_sum(a, b, h),
        "t2": t2(a, b, h), "t3": t3(a, b, h),
    })
    return SumReport(inst, **{field: values[key] for key, (field, _) in _TARGETS.items()})
