"""Q(a,b;h) = sum_{i=1..h} floor(ib/a) in O(log max(a,b)).

The engine is the quotient-sum reciprocity: for coprime b < a and h < a,
with K = floor(bh/a),

    Q(a,b;h) + Q(b,a;K) = h*K,

combined with the division step Q(a, aq+r; h) = q*h(h+1)/2 + Q(a,r;h) and a
periodicity reduction that brings h below a before the reciprocity is ever
applied.  ``trace.walk`` drives the three rules iteratively with a sign that
flips at every reciprocity, so adversarial (Fibonacci-like) inputs cannot
exhaust the call stack and every step can be traced.  ``_walk`` does not
check (a, b, h): its callers have, as every public function does first.

``_sums`` goes once up the same chain in integers and carries Q with
T2 = sum i*floor(ib/a) and T3 = sum floor(ib/a)^2; untraced ``t2``, ``t1``,
``remainder_square_sum`` and ``t3_alt`` take their sums from it.  For a
reciprocity state (a, b, h), coprime a > b >= 2 and 1 <= h < a, write
h' = floor(bh/a), f_j = floor(ja/b) and Q', T2', T3' for the sums of
(b, a; h').  Count the lattice points (i, j) with i <= h and
1 <= j <= floor(ib/a) by columns and by rows.  Row j holds the i with
f_j < i <= h for 1 <= j <= h', because ja/b is never an integer there: a
and b are coprime and h' < b.  Weighting each point by 1, by i and by 2j-1
gives sum_j (h - f_j), sum_j (h(h+1) - f_j(f_j+1))/2 and
sum_j (2j-1)(h - f_j), that is

    Q(a,b;h)    = h*h' - Q',
    2*T2(a,b;h) = h'*h(h+1) - T3' - Q',
    T3(a,b;h)   = h*h'^2 - 2*T2' + Q'.

The state below, (b, a mod b, h'), gives the sums of (b, a; h') by one
division step: for x = d*y + r, floor(ix/y) = d*i + floor(ir/y), so the
sums over i <= h' change by

    Q += d*sum i,    T2 += d*sum i^2,    T3 += 2d*T2 + d^2*sum i^2,

with T2 in the last update taken before the step.  At the bottom of the
chain h' = 0 or a mod b = 1, and all three sums are 0.  The only exactness
check is the parity of 2*T2.  The top state's division step, from
(a, b mod a; m) to (a, b; m), gives all three sums of (a,b;m).
"""

from .errors import InternalInvariantError
from .models import Instance, _derive
from .numeric import shown, sum_first, sum_squares
from .trace import walk


def _full_period(a: int, b: int) -> int:
    # sum_{t=1..a} floor(tb/a) for coprime (a, b): the first a-1 terms give
    # (a-1)(b-1)/2 by the symmetry r_t + r_{a-t} = a, the last term is b.
    return (a - 1) * (b - 1) // 2 + b


def _period(a, b, q_blocks, m, sink):
    # i = ja + t: floor((ja+t)b/a) = jb + floor(tb/a), so the Q full periods
    # and the Q*b added to each of the m tail terms come in closed form.
    return (
        a * b * q_blocks * (q_blocks - 1) // 2
        + q_blocks * _full_period(a, b)
        + q_blocks * b * m
    )


def _division(a, q, h, sign):
    return sign * q * sum_first(h)


def _reciprocity(a, b, h, sign, sink):
    k = b * h // a
    return sign * h * k, -sign, k, {"K": k}


def _walk(a, b, h, sink=None):
    return walk(a, b, h, sink, _division, _reciprocity, _period)


def _sums(a, b, m):
    # (Q, T2, T3) of (a,b;m) for coprime a >= 1 and 0 <= m < a, in one integer
    # pass up the chain (see the module docstring).
    q_top, y = divmod(b, a)
    x, k = a, m
    levels = []
    while k and y > 1:
        kp = y * k // x
        d, r = divmod(x, y)
        levels.append((x, y, k, kp, d))
        x, y, k = y, r, kp
    # Q, T2 and T3 of (x,y;k) at the bottom state, then up the chain.
    q = t = u = 0
    for x, y, k, kp, d in reversed(levels):
        # The division step to (y,x;kp), then the reciprocity to (x,y;k).
        squares = sum_squares(kp)
        q, t, u = q + d * (kp * (kp + 1) // 2), t + d * squares, u + d * (2 * t + d * squares)
        t_twice = kp * k * (k + 1) - u - q
        if t_twice % 2:
            raise InternalInvariantError(f"T2 is not integral for {shown((x, y, k))}")
        q, t, u = k * kp - q, t_twice // 2, k * kp * kp - 2 * t + q
    # The top state's division step, from (a, b mod a; m) to (a,b;m).
    squares = sum_squares(m)
    return q + q_top * (m * (m + 1) // 2), t + q_top * squares, u + q_top * (2 * t + q_top * squares)


def floor_sum(inst: Instance, trace=None) -> int:
    """Exact sum_{i=1..h} floor(i*b/a) for the (canonicalized) instance."""
    inst, _ = inst.canonical()
    return _walk(inst.a, inst.b, inst.h, trace)


def remainder_sum(inst: Instance) -> int:
    """Exact sum_{i=1..h} r_i where r_i = i*b mod a (canonical instance)."""
    inst, _ = inst.canonical()
    a, b, h = inst.a, inst.b, inst.h
    return _derive(a, b, h, {"q": _walk(a, b, h)})["r"]
