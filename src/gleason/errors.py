"""Exception types shared across the package.

Three checks give a verdict on vanishing: the input test on f(p)
(NonvanishingError), split_component's fiber check (InternalContractError)
and verify's certified residual, which reports rather than raises.
"""

from __future__ import annotations


class GleasonError(Exception):
    """Base class for all package errors."""


class InputError(GleasonError):
    """Invalid user-supplied data: bad point, bad domain, bad flag combination."""


class PolySyntaxError(InputError):
    """Malformed polynomial text, annotated with the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExponentOverflowError(PolySyntaxError):
    """Exponent magnitude above the 10^6 cap."""


class EvaluationDomainError(GleasonError):
    """Evaluation at a point outside the function's domain (zero to a negative power)."""


class NonvanishingError(GleasonError):
    """f fails the input test: f(p) does not vanish at the base point; carries the value."""

    def __init__(self, message: str, value):
        super().__init__(message)
        self.value = value


class UnboundedError(GleasonError):
    """Input fails the recession-cone boundedness test; carries the certificate."""

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


class InfeasibleSplitError(GleasonError):
    """No separating line with small rational slope fits the boundary data."""


class InternalContractError(GleasonError):
    """An internal invariant failed, e.g. a division that should be exact left a remainder."""
