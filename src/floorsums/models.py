"""Shared domain containers: problem instances and the full sum report."""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError
from .numeric import require_ints, shown


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
