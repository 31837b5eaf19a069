"""Shared domain containers: problem instances and the full sum report, and
the one place where the report's targets are derived from its three chains.

Every target is a fixed formula of Q = sum floor(ib/a), S and
T2 = sum i*floor(ib/a).  ``_TARGETS`` names the chains each target needs, and
``_derive`` applies the formulas; every caller that holds chain values, from
``compute`` to ``full_report`` and the single-sum functions, derives through
it.  r2, t1, ir and qr are also formulas of T2 and T3 = sum floor(ib/a)^2,
and S is one of Q and r2.  The two formulas that an untraced caller needs
alone have their own functions, which ``_derive`` applies too: ``_r2``, which
``engine._remainder_squares`` and ``engine._report`` take from the pass's T2
and T3, and ``_s``, which gives the untraced ``s_value`` from Q and that r2.
Untraced ``compute`` derives every target from the Q, T2 and r2 of one
``engine._report`` call.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError
from .numeric import exact_int, require_ints, shown, sum_first, sum_squares


@dataclass(frozen=True)
class Instance:
    """A triple (a, b, h): sums run over i = 1..h of quantities built from ib/a.

    a >= 1, b >= 0, h >= 0.  The canonical form has gcd(a, b) = 1; every
    computation in this package operates on the canonical form, which leaves
    floor(ib/a) (and hence all the sums) unchanged.
    """

    a: int
    b: int
    h: int

    def __post_init__(self):
        require_ints(self.a, self.b, self.h)
        if self.a < 1 or self.b < 0 or self.h < 0:
            raise InvalidArgumentError(
                f"need a >= 1, b >= 0, h >= 0, got {shown((self.a, self.b, self.h))}"
            )

    def canonical(self) -> tuple["Instance", bool]:
        """Return (equivalent coprime instance, whether scaling was applied)."""
        g = math.gcd(self.a, self.b)
        if g <= 1:
            return self, False
        return Instance(self.a // g, self.b // g, self.h), True


@dataclass(frozen=True)
class SumReport:
    """Every supported sum for one (canonical) instance, all values exact.

    With q_i, r_i the quotient and remainder of i*b divided by a:
      q_sum  = sum q_i          r_sum  = sum r_i         r2_sum = sum r_i^2
      t1     = sum {ib/a}^2     t2     = sum i*q_i       t3     = sum q_i^2
      ir_sum = sum i*r_i        qr_sum = sum q_i*r_i
      s      = (a/2)*t1 + (a/2 + 1)*q_sum
    """

    instance: Instance
    q_sum: int
    r_sum: int
    r2_sum: int
    t1: Fraction
    t2: int
    t3: int
    ir_sum: int
    qr_sum: int
    s: Fraction


# The report's nine targets, in SumReport's field order: each compute key, its
# SumReport field and the chains (q, s, t2) it is derived from.
_TARGETS = {
    "q": ("q_sum", ("q",)),
    "r": ("r_sum", ("q",)),
    "r2": ("r2_sum", ("q", "s")),
    "t1": ("t1", ("q", "s")),
    "t2": ("t2", ("t2",)),
    "t3": ("t3", ("q", "s", "t2")),
    "ir": ("ir_sum", ("t2",)),
    "qr": ("qr_sum", ("q", "s", "t2")),
    "s": ("s", ("s",)),
}


def _r2(a, b, h, t2, t3):
    # sum r_i^2 of (a,b;h) from T2 and T3: square r_i = ib - a*q_i and sum.
    return b * b * sum_squares(h) - 2 * a * b * t2 + a * a * t3


def _s(a, q, r2):
    # S of (a,b;h) from Q and sum r_i^2: S's definition with a^2*T1 = r2.
    return Fraction(r2 + a * (a + 2) * q, 2 * a)


def _derive(a, b, h, values: dict) -> dict:
    """Add to ``values`` (keyed by target) every target its values give, for a
    canonical (a, b, h); a value already there is kept.  Returns ``values``.

    With q_i, r_i the quotient and remainder of ib by a, r_i = ib - a*q_i and
    a*{ib/a} = r_i, so, with S's definition solved for T1,
      r  = b*sum i - a*Q           r2 = a^2*T1 = 2a*S - a(a+2)*Q
      ir = b*sum i^2 - a*T2        r2 = b^2*sum i^2 - 2ab*T2 + a^2*T3
      qr = b*T2 - a*T3             t3 = (r2 - b^2*sum i^2 + 2ab*T2)/a^2
      t1 = r2/a^2                  s  = (r2 + a(a+2)*Q)/(2a)
    where the second r2 squares r_i = ib - a*q_i and t3 solves it for T3.
    r2 and t3 are integers by the mathematics, so a fraction there raises
    InternalInvariantError.
    """
    if "q" in values:
        q = values["q"]
        if "r" not in values:
            values["r"] = b * sum_first(h) - a * q
        if "s" in values and "r2" not in values:
            values["r2"] = exact_int(2 * a * values["s"] - a * (a + 2) * q, "a^2*T1", a, b, h)
    if "t2" in values:
        t2, squares = values["t2"], sum_squares(h)
        if "ir" not in values:
            values["ir"] = b * squares - a * t2
        if "t3" in values and "r2" not in values:
            values["r2"] = _r2(a, b, h, t2, values["t3"])
        if "r2" in values and "t3" not in values:
            t3 = Fraction(values["r2"] - b * b * squares + 2 * a * b * t2, a * a)
            values["t3"] = exact_int(t3, "T3", a, b, h)
        if "t3" in values and "qr" not in values:
            values["qr"] = b * t2 - a * values["t3"]
    if "q" in values and "r2" in values and "s" not in values:
        values["s"] = _s(a, values["q"], values["r2"])
    if "r2" in values and "t1" not in values:
        values["t1"] = Fraction(values["r2"], a * a)
    return values
