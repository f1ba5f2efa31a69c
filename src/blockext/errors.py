"""Error types shared across the package."""

from __future__ import annotations


class BlockExtError(Exception):
    """Base class for all errors raised by this package."""


class SpecValidationError(BlockExtError):
    """A block specification violates a structural requirement.

    ``code`` is a stable machine-readable identifier, one of:
    p-not-prime, d-not-p-power, p-divides-E, order-bound, action-shape,
    action-divisibility, action-not-homomorphism, Z-not-cyclic,
    phi-not-faithful, bad-spec-file.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class OrderBoundExceeded(SpecValidationError):
    def __init__(self, message: str):
        super().__init__("order-bound", message)


class EnumerationBoundExceeded(BlockExtError):
    """Candidate-set enumeration would exceed the configured bound."""


class SizeGuardExceeded(BlockExtError):
    """A cochain complex would exceed the configured size guard."""


class PrecisionUnstable(BlockExtError):
    """A Smith exponent breaks the exactness certificate: a nonzero entry
    past the bound e*max(n_i), a precision N too low to certify that
    bound, or ranks that cannot come from a complex."""


class CrossCheckMismatch(BlockExtError):
    """Closed-form and oracle Ext computations disagree."""


class OrthogonalityFailure(BlockExtError):
    """A computed character table fails exact orthogonality."""


class IdempotentNotSplit(BlockExtError):
    """An idempotent image could not be split to a free summand."""
