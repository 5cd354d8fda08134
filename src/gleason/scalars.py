"""Coefficient scalars: floating complex plus an exact rational-complex type.

Polynomial coefficients come in two flavours.  The default is the builtin
``complex``.  For exact runs the coefficients are ``QComplex`` values, complex
numbers whose real and imaginary parts are ``fractions.Fraction``.  Arithmetic
between a QComplex and a float or complex degrades to ``complex``, the same
convention ``Fraction`` uses with ``float``.
"""

from __future__ import annotations

import math
from fractions import Fraction

_EXACT_PARTS = (int, Fraction)

# Relative tolerance of the vanishing test for floating values.
VANISH_TOL_REL = 1e-9


class QComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- conversions ---------------------------------------------------

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def abs2(self) -> Fraction:
        """|self|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QComplex):
            return QComplex(self.re + other.re, self.im + other.im)
        if isinstance(other, _EXACT_PARTS):
            return QComplex(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (QComplex,) + _EXACT_PARTS):
            return self + (-other if isinstance(other, QComplex) else QComplex(-other))
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT_PARTS):
            return QComplex(other - self.re, -self.im)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QComplex):
            return QComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _EXACT_PARTS):
            return QComplex(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QComplex):
            d = other.abs2()
            if not d:
                raise ZeroDivisionError("division by exact zero")
            return QComplex(
                (self.re * other.re + self.im * other.im) / d,
                (self.im * other.re - self.re * other.im) / d,
            )
        if isinstance(other, _EXACT_PARTS):
            if not other:
                raise ZeroDivisionError("division by exact zero")
            return QComplex(self.re / other, self.im / other)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT_PARTS):
            return QComplex(other) / self
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return powi(self, exponent)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _EXACT_PARTS):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QComplex({self.re!r}, {self.im!r})"


def powi(base, exponent: int):
    """Integer power by binary squaring, exact for QComplex bases."""
    if exponent < 0:
        base = 1 / base
        exponent = -exponent
    result = 1
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def is_zero_coeff(c) -> bool:
    if isinstance(c, QComplex):
        return c.is_zero
    return c == 0


def coeff_abs(c) -> float:
    """Modulus as a float, for tolerances and norms."""
    return abs(c)


def is_exact(c) -> bool:
    return isinstance(c, (QComplex,) + _EXACT_PARTS)


def negligible(value, scale: float) -> bool:
    """Vanishing test: an exact value must be zero; a floating one may reach
    VANISH_TOL_REL * scale.  The value's type decides which rule applies."""
    if isinstance(value, (float, complex)):
        return abs(value) <= VANISH_TOL_REL * scale
    return is_zero_coeff(value)
