"""S(a,b;h), T1(a,b;h) = sum {ib/a}^2 and sum r_i^2 via reciprocity.

Define S(a,b;h) = (a/2)*T1(a,b;h) + (a/2 + 1)*sum floor(ib/a).  For coprime
a > b the reciprocity

    S(a,b;h) + S(b,a;H) = eta2(a,b,h)

swaps the arguments with a strictly smaller bound H <= b-1, and for b >= a
the division step

    S(a,b;h) = S(a, b mod a; h) + floor(b/a)*h(h+1)(a+2)/4

shrinks b, so alternating the two walks down a Euclidean remainder chain in
O(log max(a,b)) steps.  For h >= a the period rule adds the Q = h // a full
periods in closed form (T1 has period a, the floor sum's periods come from
``engine._q_blocks``), and b = 1 has the closed form h(h+1)(2h+1)/(12a).
Each rule returns its contribution times the sign the walk carries, and
``trace.walk`` drives them; ``_walk`` (S) never checks (a, b, h), the public
functions do.  All arithmetic is exact rational.

Untraced, ``s_value``, ``t1`` and ``remainder_square_sum`` walk neither S
nor Q: they take sum r_i^2 from ``engine._remainder_squares``, one integer
pass up the T2 chain, and T1 = sum r_i^2 / a^2; ``s_value`` also takes Q
from ``engine._floor_sum`` and S = (sum r_i^2 + a(a+2)Q)/(2a) by
``models._s``.  A traced ``s_value`` walks S, and a traced ``t1`` walks S,
then Q, and takes T1 = (2S - (a+2)Q)/a.  Past these traces, the S walk
serves only ``cross_sum``: the T2 reciprocity rule, which
``t2_reciprocity_rhs`` and a traced ``t2`` evaluate, and ``t3``, the one
untraced sum that walks S, so that its route stays independent of
``t3_alt``'s pass.

With n0 = (-b(h+1)) mod a, n = ab - a + n0 and H the bound of the swapped
sum, the paper's definitions of gamma, eta1 and eta2 reduce to integer
polynomials:

    12ab*eta2 = 3a^2(b+2)H(H+1) + 3b^2(a+2)h(h+1) - aH(b+1)(b+5)
                - bh(a+1)(a+5) - b(a-1)(a-5)
                - n0(a^2 - 3ab - 6a + b^2 + 6b + 5) + 3(a-b-2)n0^2 - 2n0^3
    gamma     = (a^2 + 3ab - 3a + b^2 - 3b + 1) / (12ab)
    eta1      = (n+1)(n+2)/2 + (a-1)(b-1)(2ab - a - b - 6n - 7)/12 - eta2

S(a,b;h) lies in Z/(2a) and S(b,a;H) in Z/(2b), so eta2 lies in Z/(2ab):
the right-hand side above is always divisible by 6, and each reciprocity
step adds the single rational (2ab*eta2) / (2ab).

The paper's n1 = -n*a^(-1) mod b needs no modular inverse.  The division
that gives n0 also gives its quotient q: -b(h+1) = a*q + n0.  Since
n = ab - a + n0, -n = a - n0 (mod b), and n0 = -a*q (mod b), so

    -n*a^(-1) = 1 - n0*a^(-1) = 1 + q   (mod b).

So one divmod gives n0 and n1, and a step costs one integer polynomial
plus that division.
"""

from dataclasses import dataclass
from fractions import Fraction

from .engine import _q_blocks, _remainder_squares
from .errors import InternalInvariantError, InvalidArgumentError
from .floor_sum import _walk as _floor_walk
from .models import Instance, _derive, _s
from .numeric import exact_int, require_coprime, require_ints, shown
from .trace import walk


@dataclass(frozen=True)
class ReciprocityTerms:
    """All intermediate quantities of one reciprocity application."""

    n0: int
    n: int
    n1: int
    H: int
    alpha: int
    beta: int
    gamma: Fraction
    eta1: Fraction
    eta2: Fraction


def _canonical(a, b, h):
    inst, _ = Instance(a, b, h).canonical()
    return inst.a, inst.b, inst.h


def _terms(a, b, h):
    # Returns n0, n, n1, H and the integer 2ab*eta2 for coprime a >= 2, b >= 1.
    q, n0 = divmod(-b * (h + 1), a)
    n = a * b - a + n0
    # n1 = -n/a mod b = 1 + q mod b (see the module docstring).  Remainder 0
    # is promoted to b so that H = n1 - 1 stays >= 0; the reciprocity is
    # false under the H = -1 reading.
    n1 = (1 + q) % b or b
    big_h = n1 - 1
    # The module docstring's polynomial, factored to share its big products.
    eta2_12ab = (
        a * big_h * (3 * a * (b + 2) * (big_h + 1) - (b + 1) * (b + 5))
        + b * h * (3 * b * (a + 2) * (h + 1) - (a + 1) * (a + 5))
        - b * (a - 1) * (a - 5)
        + n0 * (n0 * (3 * (a - b - 2) - 2 * n0) - a * (a - 3 * b - 6) - b * (b + 6) - 5)
    )
    eta2_2ab, rem = divmod(eta2_12ab, 6)
    if rem:
        raise InternalInvariantError(f"eta2 is not in Z/(2ab) for {shown((a, b, h))}")
    return n0, n, n1, big_h, eta2_2ab


def reciprocity_terms(a: int, b: int, h: int) -> ReciprocityTerms:
    """Evaluate n0, n, n1, H, alpha, beta, gamma, eta1, eta2 for one swap.

    Requires a >= 2, b >= 1, gcd(a, b) = 1, h >= 0.
    """
    require_coprime(a, b)
    require_ints(h)
    if a < 2 or h < 0:
        raise InvalidArgumentError(f"need a >= 2, h >= 0, got {shown((a, b, h))}")
    n0, n, n1, big_h, eta2_2ab = _terms(a, b, h)
    ab = a * b
    alpha = ab * (a + b - 2) // 2
    beta3 = 3 * ab * (a - 1) * (b - 1) // 2 + ab * ((a - 1) * (a - 2) + (b - 1) * (b - 2))
    beta = exact_int(Fraction(beta3, 3), "beta", a, b)
    gamma = Fraction(a * a + 3 * ab - 3 * a + b * b - 3 * b + 1, 12 * ab)
    eta2 = Fraction(eta2_2ab, 2 * ab)
    eta1 = (
        Fraction((n + 1) * (n + 2), 2)
        + Fraction((a - 1) * (b - 1) * (2 * ab - a - b - 6 * n - 7), 12)
        - eta2
    )
    return ReciprocityTerms(n0, n, n1, big_h, alpha, beta, gamma, eta1, eta2)


def _division(a, q, h, sign):
    return Fraction(sign * q * h * (h + 1) * (a + 2), 4)


def _unit(a, h, sign):
    # b = 1, h < a: all floors vanish, so S = T1*a/2 = sum (i/a)^2 * a/2.
    return Fraction(sign * h * (h + 1) * (2 * h + 1), 12 * a)


def _reciprocity(a, b, h, sign, sink):
    n0, n, n1, big_h, eta2_2ab = _terms(a, b, h)
    derived = {"n0": n0, "n": n, "n1": n1, "H": big_h}
    return Fraction(sign * eta2_2ab, 2 * a * b), -sign, big_h, derived


def _period(a, b, q_blocks, m, sink):
    # T1 is periodic in h with period a (full-period value (a-1)(2a-1)/(6a)),
    # and the floor sum's Q full periods come in closed form.
    return (
        Fraction(q_blocks * (a - 1) * (2 * a - 1), 12)
        + Fraction(a + 2, 2) * _q_blocks(a, b, q_blocks, m)
    )


def _walk(a, b, h, sink):
    return walk(a, b, h, sink, _division, _reciprocity, _period, _unit, Fraction(0))


def s_value(a: int, b: int, h: int, trace=None) -> Fraction:
    """Exact S(a,b;h) = (a/2)*T1 + (a/2 + 1)*sum floor(ib/a).

    Untraced, S comes from sum r_i^2, taken from one pass up the T2 chain,
    and the untraced Q: S = (sum r_i^2 + a(a+2)Q)/(2a).  A trace gets the
    paper's S(a,b;h) walk, whose replay() is S.
    """
    a, b, h = _canonical(a, b, h)
    if trace is None:
        return _s(a, _floor_walk(a, b, h), _remainder_squares(a, b, h))
    return _walk(a, b, h, trace)


def t1(a: int, b: int, h: int, trace=None) -> Fraction:
    """Exact T1(a,b;h) = sum_{i=1..h} {ib/a}^2 = sum r_i^2 / a^2.

    Untraced, sum r_i^2 comes from one pass up the T2 chain.  A trace gets
    the S(a,b;h) walk, then the Q(a,b;h) walk, so its replay() is S + Q, not
    T1.
    """
    a, b, h = _canonical(a, b, h)
    if trace is None:
        values = {"r2": _remainder_squares(a, b, h)}
    else:
        values = {"s": _walk(a, b, h, trace), "q": _floor_walk(a, b, h, trace)}
    return _derive(a, b, h, values)["t1"]


def remainder_square_sum(a: int, b: int, h: int) -> int:
    """Exact sum_{i=1..h} r_i^2 = a^2 * T1(a,b;h) for the canonical (a,b)."""
    return _remainder_squares(*_canonical(a, b, h))
