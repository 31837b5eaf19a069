class FloorSumsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(FloorSumsError, ValueError):
    """An argument violates a precondition (negative bound, zero modulus, ...)."""


class OutOfDomainError(InvalidArgumentError):
    """Input lies outside the regime where the closed form is valid."""


class InternalInvariantError(FloorSumsError, RuntimeError):
    """A quantity that must be integral came out fractional; implementation bug."""
