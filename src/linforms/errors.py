"""Exception hierarchy for the linforms toolkit.

Two broad families matter for callers (and for CLI exit codes):

* ``InputError`` -- the caller handed us something malformed or out of
  contract (bad coefficients, duplicate elements, wrong arity, ...).
* ``ResourceError`` -- the request was well formed but exceeds a
  configured capacity or budget, so we refuse rather than grind or
  silently truncate.
"""

from __future__ import annotations


class LinformsError(Exception):
    """Base class for every error raised by this package."""


class InputError(LinformsError):
    """Malformed or out-of-contract input."""


class ResourceError(LinformsError):
    """A capacity or budget limit was exceeded."""


class BadCertificate(LinformsError):
    """A lower-bound certificate does not replay to its bound."""


# -- input errors ------------------------------------------------------------


class EmptyCoefficients(InputError):
    """A linear form needs at least one coefficient."""


class NonPositiveCoefficient(InputError):
    """Coefficients must be positive integers."""


class EmptyInput(InputError):
    """A point set needs at least one element."""


class DuplicateElements(InputError):
    """Point sets are sets: repeated elements are rejected, not merged."""


class NotBinary(InputError):
    """Operation requires a form in exactly two variables."""


class NotTernary(InputError):
    """Operation requires a form in exactly three variables."""


class NotCoprime(InputError):
    """Operation requires coefficients with gcd 1."""


class NotStrictlyIncreasing(InputError):
    """Operation requires strictly increasing coefficients."""


class DiameterTooSmall(InputError):
    """No k-element set fits inside the requested diameter."""


class NotCertifiedExact(InputError):
    """Minimizer enumeration is only meaningful for a certified exact value."""


# -- resource errors ---------------------------------------------------------


class CapacityExceeded(ResourceError):
    """A table, enumeration, or value range would exceed its configured cap."""


class BudgetExceeded(ResourceError):
    """A search, verification or scan run would exceed its budget.

    nodes is set when a search node budget ran out: the nodes explored.
    """

    def __init__(self, message: str, nodes: int | None = None):
        super().__init__(message)
        self.nodes = nodes


class ValueOverflow(ResourceError):
    """A computed value left the signed 64-bit range the wire format promises."""
