"""Exact integer and rational primitives shared by every other module.

Integers are plain Python ints (arbitrary precision).  Rationals are
``fractions.Fraction``: always stored in lowest terms with a positive
denominator, which is exactly the normalization contract the rest of the
package relies on.
"""

from fractions import Fraction

from .errors import InternalInvariantError, InvalidArgumentError, NotInvertibleError

# Public alias: every exact fractional value in this package is one of these.
Rational = Fraction

# The single rational type every computation uses.  perfbench reads
# ``_Q.__module__`` to stamp the rational backend into its results.
_Q = Fraction


def require_ints(*values) -> None:
    """Raise InvalidArgumentError unless every value is an int (a bool is not)."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidArgumentError(f"arguments must be ints, got {values!r}")


def exact_int(value, name: str, *where) -> int:
    """value (an int or a Fraction) as an int.

    For sums the mathematics makes integral (T2, T3, a^2*T1): a fractional
    value is a bug in this package, so it raises InternalInvariantError,
    naming the sum and the instance ``where``.
    """
    if value.denominator != 1:
        raise InternalInvariantError(f"{name} is not integral for {where}: {value}")
    return int(value)


def ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, u, v) with g = gcd(x, y) > 0 and u*x + v*y = g."""
    if x == 0 and y == 0:
        raise InvalidArgumentError("ext_gcd(0, 0) is undefined")
    old_r, r = abs(x), abs(y)
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if x < 0:
        old_u = -old_u
    if y < 0:
        old_v = -old_v
    return old_r, old_u, old_v


def mod_inverse(x: int, m: int) -> int:
    """Inverse of x modulo m, in [0, m).  mod_inverse(x, 1) == 0."""
    if m < 1:
        raise InvalidArgumentError(f"modulus must be >= 1, got {m}")
    try:
        return pow(x, -1, m)
    except ValueError:
        raise NotInvertibleError(f"{x} is not invertible modulo {m}") from None


def floor_mod(x: int, m: int) -> int:
    """Remainder of x modulo m in [0, m), with floored-division semantics.

    Python's % already floors, so negative dividends land in [0, m) as
    required (e.g. floor_mod(-15, 5) == 0, floor_mod(-20, 3) == 1).
    """
    if m < 1:
        raise InvalidArgumentError(f"modulus must be >= 1, got {m}")
    return x % m


def sum_first(h: int) -> int:
    """1 + 2 + ... + h = h(h+1)/2; 0 for h == 0."""
    if h < 0:
        raise InvalidArgumentError(f"bound must be >= 0, got {h}")
    return h * (h + 1) // 2


def sum_squares(h: int) -> int:
    """1^2 + 2^2 + ... + h^2 = h(h+1)(2h+1)/6; 0 for h == 0."""
    if h < 0:
        raise InvalidArgumentError(f"bound must be >= 0, got {h}")
    return h * (h + 1) * (2 * h + 1) // 6
