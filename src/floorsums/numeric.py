"""Exact integer and rational primitives shared by every other module.

Integers are plain Python ints (arbitrary precision).  Rationals are
``fractions.Fraction``: always stored in lowest terms with a positive
denominator, which is exactly the normalization contract the rest of the
package relies on.
"""

from fractions import Fraction

from .errors import InternalInvariantError, InvalidArgumentError

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
