"""The untraced arithmetic: Q, T2, T3 and sum r_i^2 in integers, with no walk.

Q = sum floor(ib/a), T2 = sum i*floor(ib/a) and T3 = sum floor(ib/a)^2, all
over i = 1..h.  Untraced ``floor_sum`` and ``remainder_sum`` take Q from
the Q loop, ``t3_alt`` takes T3 from one pass, and ``t2``, ``t1``,
``remainder_square_sum``, ``s_value`` and ``compute`` take their values
from one ``_report`` call; the paper's reciprocities in ``floor_sum``,
``square_sum`` and ``cross_sum`` explain them.  Nothing here checks
(a, b, h) or records a step: callers pass canonical arguments.

Q alone.  ``_floor_sum`` adds the full periods (below), then goes down the
chain as the traced floor-sum walk does, with no step records: a division
step Q(a, da+r; h) = d*h(h+1)/2 + Q(a,r;h), then the reciprocity
Q(a,b;h) = h*h' - Q(b,a;h') for b < a, each term added with a sign that
flips at every reciprocity.

The pass.  ``_sums`` goes once up the T2 chain in integers and carries Q,
T2 and T3, for every h >= 0.  For a reciprocity state (x, y, k), coprime
x > y >= 1 and k >= 0, write k' = floor(yk/x), f_j = floor(jx/y) and Q',
T2', T3' for the sums of (y, x; k').  Count the lattice points (i, j) with
i <= k and 1 <= j <= floor(iy/x) by columns and by rows.  Row j, for
1 <= j <= k', holds the i with ceil(jx/y) <= i <= k.  That bound is f_j + 1
unless y divides j; then jx/y is an integer and the row holds i = f_j too.
Those rows are j = ly for 1 <= l <= K, with K = floor(k'/y) = floor(k/x),
and their extra points are i = lx.  Weighting each point by 1, by i and by
2j-1 gives sum_j (k - f_j), sum_j (k(k+1) - f_j(f_j+1))/2 and
sum_j (2j-1)(k - f_j), each with its K terms, that is

    Q(x,y;k)    = k*k' - Q' + K,
    2*T2(x,y;k) = k'*k(k+1) - T3' - Q' + x*K(K+1),
    T3(x,y;k)   = k*k'^2 - 2*T2' + Q' + y*K(K+1) - K.

As floor(floor(yk/x)/y) = floor(k/x), K is the same at every level: it is
h // a of the top state (a, b mod a, h).  For h < a it is 0, and ``_sums``
adds the K terms only when K > 0.

The state below, (y, x mod y, k'), gives the sums of (y, x; k') by one
division step: for x = d*y + r, floor(ix/y) = d*i + floor(ir/y), so the
sums over i <= k' change by

    Q += d*sum i,    T2 += d*sum i^2,    T3 += 2d*T2 + d^2*sum i^2,

with T2 in the last update taken before the step.  For K = 0 the chain
stops at k' = 0 or at y = 1, where every floor(i/x) with i < x is 0; for
K > 0 it goes on through (x, 1, k) to y = 0, where every floor is 0.  The
only exactness check is the parity of 2*T2.  The top state's division step,
from (a, b mod a; h) to (a, b; h), gives all three sums of (a,b;h); for
a = 1 that step alone gives b*sum i, b*sum i^2 and b^2*sum i^2.

A level costs five products of numbers as long as k; d is a Euclid
quotient, usually one word, so products with d are cheap.  They are
k'(k'+1)*(2k'+1) for sum_{i<=k'} i^2, with k'(k'+1) carried up from the
level below; k(k+1), which the level above takes as its k'(k'+1) and halves
for its sum i; k'*k(k+1) for 2*T2; k*k' for Q; and (k*k')*k' for T3.  For
K > 0 the two products x*K(K+1) and y*K(K+1) come on top.

The full periods.  The Q loop and the paper's traced period rules take no
K.  For h = q*a + m they split i = ja + t with
floor((ja+t)b/a) = jb + floor(tb/a): the q full blocks reduce to the sums
over one period, sum j and sum j^2, and the tail's Q(a,b;m) (``_q_blocks``
for Q, ``_blocks`` for the T2 period rule).  One period's Q is
``_full_period``.

The period term T2(a,b;a-1) of ``_blocks`` is a Dedekind sum and walks no
chain.  For coprime a >= 2, b >= 1, s(b,a) = sum_{0<i<a} ((i/a))((ib/a))
equals ir(a,b;a-1)/a^2 - (a-1)/4 with ir = b*sum i^2 - a*T2.  With
q_1..q_t the Euclid quotients of (a, b) and b* = b^-1 mod a, the
Barkan-Hickerson-Knuth formula (Knuth, TAOCP Vol. 2, 3.3.3) and that
relation give

    12a*s(b,a) = a*sum_i (-1)^(i+1) q_i + b + b* - a*(3 if t is odd else 1),
    12a*T2(a,b;a-1) = 12b*sum_{i<a} i^2 - a*(12a*s(b,a)) - 3a^2(a-1).

The formula, stated for b < a, holds as written for b > a: the quotients
then begin 0, b//a, which adds 2 to t and -b//a to the sum, and
a*(-(b//a)) + b = b mod a.

The report.  ``_report`` gives Q, T2 and sum r_i^2 of (a,b;h) from one
pass, for every h and for a = 1 alike: ``models._r2`` turns the pass's T2
and T3 into sum r_i^2 = b^2*sum i^2 - 2ab*T2 + a^2*T3.  Every target of the
report is a formula of these three (``models._derive``).  Untraced
``cli.cmd_compute`` takes them all from one ``_report`` call, untraced
``t2`` its T2, ``t1`` and ``remainder_square_sum`` its sum r_i^2, and
``s_value`` S = (sum r_i^2 + a(a+2)Q)/(2a) from its Q and sum r_i^2.
"""

from .errors import InternalInvariantError
from .models import _r2
from .numeric import shown, sum_squares


def _full_period(a: int, b: int) -> int:
    # sum_{t=1..a} floor(tb/a) for coprime (a, b): the first a-1 terms give
    # (a-1)(b-1)/2 by the symmetry r_t + r_{a-t} = a, the last term is b.
    return (a - 1) * (b - 1) // 2 + b


def _sums(a, b, h):
    # (Q, T2, T3) of (a,b;h) for coprime a >= 1 and h >= 0, in one integer
    # pass up the chain (see the module docstring).  K = h // a is the same
    # at every level; with K > 0 the chain goes down to y = 0.
    q_top, y = divmod(b, a)
    big_k = h // a
    kk = big_k * (big_k + 1)
    bottom = 0 if big_k else 1
    x, k = a, h
    levels = []
    while k and y > bottom:
        kp = y * k // x
        d, r = divmod(x, y)
        levels.append((x, y, k, kp, d))
        x, y, k = y, r, kp
    # Q, T2 and T3 of (x,y;k) at the bottom state, then up the chain; pp is
    # k(k+1) of the last state reached, the kp(kp+1) of the next level up.
    q = t = u = 0
    pp = k * (k + 1)
    for x, y, k, kp, d in reversed(levels):
        # The division step to (y,x;kp), then the reciprocity to (x,y;k).
        squares = pp * (2 * kp + 1) // 6
        q, t, u = q + d * (pp >> 1), t + d * squares, u + d * (2 * t + d * squares)
        pp = k * (k + 1)
        t_twice = kp * pp - u - q
        if big_k:
            t_twice += x * kk
        if t_twice & 1:
            raise InternalInvariantError(f"T2 is not integral for {shown((x, y, k))}")
        k_kp = k * kp
        q, t, u = k_kp - q, t_twice >> 1, k_kp * kp - 2 * t + q
        if big_k:
            q, u = q + big_k, u + y * kk - big_k
    # The top state's division step, from (a, b mod a; h) to (a,b;h).
    squares = pp * (2 * h + 1) // 6
    return q + q_top * (pp >> 1), t + q_top * squares, u + q_top * (2 * t + q_top * squares)


def _q_blocks(a, b, q_blocks, m):
    # Q(a,b;h) - Q(a,b;m) for coprime (a, b) and h = q_blocks*a + m: the
    # q_blocks full periods, and the q_blocks*b added to each tail floor.
    return a * b * q_blocks * (q_blocks - 1) // 2 + q_blocks * _full_period(a, b) + q_blocks * b * m


def _floor_sum(a, b, h):
    # Q(a,b;h) for canonical (a, b, h): the full periods, then the division
    # and reciprocity steps down the chain, with a sign that flips at each
    # reciprocity Q(a,b;h) = h*h' - Q(b,a;h').
    total = 0
    if h >= a > 1:
        q_blocks, h = divmod(h, a)
        total = _q_blocks(a, b, q_blocks, h)
    d, b = divmod(b, a)
    total += d * (h * (h + 1) >> 1)
    sign = 1
    while h and b:
        k = b * h // a
        total += sign * h * k
        a, b, h, sign = b, a, k, -sign
        d, b = divmod(b, a)
        total += sign * d * (h * (h + 1) >> 1)
    return total


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
    value, rem = divmod(12 * b * sum_squares(a - 1) - a * twelve_a_s - 3 * a * a * (a - 1), 12 * a)
    if rem:
        raise InternalInvariantError(f"T2 is not integral for {shown((a, b, a - 1))}")
    return value


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


def _report(a, b, h):
    # (Q, T2, sum r_i^2) of canonical (a,b;h) from one pass; _r2 takes b
    # unreduced: r_i = ib - a*floor(ib/a) for any b.
    q, t, u = _sums(a, b, h)
    return q, t, _r2(a, b, h, t, u)
