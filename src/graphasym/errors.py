"""Exception types shared across the package."""
from __future__ import annotations


class GraphAsymError(Exception):
    """Base class for errors raised by this package."""


class OrderMismatch(GraphAsymError):
    """Two series were combined whose truncation orders are incompatible."""


class ConstantTermError(GraphAsymError):
    """A series operation required a specific constant term (e.g. log needs
    constant 1, exp needs constant 0) and did not get it."""


class OutsideRing(GraphAsymError):
    """A symbolic value left the ring of rationals and rationals times xi:
    a product with xi on both sides, a divisor carrying xi, or a sum or
    series mixing the two xi parities."""


class VerificationFailure(GraphAsymError):
    """An internal cross-check against exact data failed."""


class CrosscheckFailure(GraphAsymError):
    """Two independently derived values disagree beyond tolerance."""


class InsufficientPoints(GraphAsymError):
    """A least-squares fit was requested with fewer points than unknowns."""


class IllConditioned(GraphAsymError):
    """The normalized design matrix is numerically rank deficient at the
    working precision."""
