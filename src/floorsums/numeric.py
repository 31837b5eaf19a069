"""Exact integer and rational primitives shared by every other module.

Integers are plain Python ints (arbitrary precision).  Rationals are
``fractions.Fraction``: always stored in lowest terms with a positive
denominator, which is exactly the normalization contract the rest of the
package relies on.

Every error message in the package names a caller's value through
``shown``, so an error stays one short line at any size.
"""

import math
from fractions import Fraction

from .errors import InternalInvariantError, InvalidArgumentError

# The single rational type every computation uses.  perfbench reads
# ``_Q.__module__`` to stamp the rational backend into its results.
_Q = Fraction


def shown(value) -> str:
    """value as an error message names it: in full up to 40 characters.

    Past that an int is named by its sign and bit length (Python refuses
    str() of an int past its digit limit, 4,300 digits by default) and a text
    by its length.  A tuple, or a Fraction as num/den, is shown part by part.
    """
    if isinstance(value, tuple):
        return f"({', '.join(map(shown, value))})"
    if isinstance(value, Fraction):
        return f"{shown(value.numerator)}/{shown(value.denominator)}"
    if isinstance(value, int) and not -(10**39) < value < 10**40:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
    if isinstance(value, str) and len(value) > 40:
        return f"<{len(value)} characters>"
    return repr(value)


def require_ints(*values) -> None:
    """Raise InvalidArgumentError unless every value is an int (a bool is not)."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidArgumentError(f"arguments must be ints, got {type(x).__name__}")


def require_coprime(a, b) -> None:
    """Raise InvalidArgumentError unless a and b are coprime ints >= 1."""
    require_ints(a, b)
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise InvalidArgumentError(f"need coprime a, b >= 1, got {shown((a, b))}")


def exact_int(value, name: str, *where) -> int:
    """value (an int or a Fraction) as an int.

    For sums the mathematics makes integral (T2, T3, a^2*T1): a fractional
    value is a bug in this package, so it raises InternalInvariantError,
    naming the sum and the instance ``where``.
    """
    if value.denominator != 1:
        raise InternalInvariantError(f"{name} is not integral for {shown(where)}: {shown(value)}")
    return int(value)


def sum_first(h: int) -> int:
    """1 + 2 + ... + h = h(h+1)/2; 0 for h == 0."""
    require_ints(h)
    if h < 0:
        raise InvalidArgumentError(f"bound must be >= 0, got {shown(h)}")
    return h * (h + 1) // 2


def sum_squares(h: int) -> int:
    """1^2 + 2^2 + ... + h^2 = h(h+1)(2h+1)/6; 0 for h == 0."""
    require_ints(h)
    if h < 0:
        raise InvalidArgumentError(f"bound must be >= 0, got {shown(h)}")
    return h * (h + 1) * (2 * h + 1) // 6
