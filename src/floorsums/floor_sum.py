"""Q(a,b;h) = sum_{i=1..h} floor(ib/a) in O(log max(a,b)).

The recursion is the quotient-sum reciprocity: for coprime b < a and h < a,
with K = floor(bh/a),

    Q(a,b;h) + Q(b,a;K) = h*K,

combined with the division step Q(a, aq+r; h) = q*h(h+1)/2 + Q(a,r;h) and a
periodicity reduction that brings h below a before the reciprocity is ever
applied.  ``trace.walk`` drives the three rules iteratively with a sign that
flips at every reciprocity, so adversarial (Fibonacci-like) inputs cannot
exhaust the call stack and every step can be traced.  ``_walk`` does not
check (a, b, h): its callers have, as every public function does first.

A traced Q takes this walk.  Untraced, ``_walk`` hands (a, b, h) to
``engine._floor_sum``, which runs the same three steps inline, with no step
records, so ``floor_sum``, ``remainder_sum`` and every other untraced Q walk
nothing, and the traced walk stays a second route to Q.  Both take the full
periods' Q in closed form from ``engine._q_blocks``.
"""

from .engine import _floor_sum, _q_blocks
from .models import Instance, _derive
from .numeric import sum_first
from .trace import walk


def _period(a, b, q_blocks, m, sink):
    return _q_blocks(a, b, q_blocks, m)


def _division(a, q, h, sign):
    return sign * q * sum_first(h)


def _reciprocity(a, b, h, sign, sink):
    k = b * h // a
    return sign * h * k, -sign, k, {"K": k}


def _walk(a, b, h, sink=None):
    if sink is None:
        return _floor_sum(a, b, h)
    return walk(a, b, h, sink, _division, _reciprocity, _period)


def floor_sum(inst: Instance, trace=None) -> int:
    """Exact sum_{i=1..h} floor(i*b/a) for the (canonicalized) instance."""
    inst, _ = inst.canonical()
    return _walk(inst.a, inst.b, inst.h, trace)


def remainder_sum(inst: Instance) -> int:
    """Exact sum_{i=1..h} r_i where r_i = i*b mod a (canonical instance)."""
    inst, _ = inst.canonical()
    a, b, h = inst.a, inst.b, inst.h
    return _derive(a, b, h, {"q": _walk(a, b, h)})["r"]
