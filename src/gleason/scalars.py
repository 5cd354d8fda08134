"""Coefficient scalars: floating complex plus an exact Gaussian-rational type.

A polynomial holds one coefficient kind (see :mod:`gleason.laurent`): the
builtin ``complex`` when any coefficient is a float or complex, else
``QComplex``, to which an int or ``Fraction`` coefficient is converted.  A
QComplex is a Gaussian rational stored as three Python ints (x, y, d) for
(x + y*i)/d, always reduced, with d > 0 and gcd(x, y, d) = 1.  That form is
canonical, so equality compares the three ints, and every operation is plain
int arithmetic followed by one reduction; no ``Fraction`` is built on the
arithmetic path.  The reduction is one three-argument ``math.gcd``, except
for a power-of-two denominator, as every value lifted from floats has, whose
gcd is the lowest set bit of x | y | d.  The polynomial kernels of
:mod:`gleason.laurent` carry unreduced (x, y, d) triples and reduce only the
coefficients they store or return.  ``.re`` and ``.im`` still hand out
``Fraction`` values.  Scalar arithmetic between a QComplex and a float or
complex degrades to ``complex``, as ``Fraction`` does with ``float``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

_EXACT_PARTS = (int, Fraction)

# Relative tolerance of the vanishing test for floating values.
VANISH_TOL_REL = 1e-9


def _parts(value) -> tuple[int, int]:
    """(numerator, positive denominator) of an int or Fraction."""
    if isinstance(value, int):
        return value, 1
    return value.numerator, value.denominator


class QComplex:
    """Gaussian rational (x + y*i)/d held as reduced ints."""

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, _EXACT_PARTS) else Fraction(re)
        im = im if isinstance(im, _EXACT_PARTS) else Fraction(im)
        a, b = _parts(re)
        c, e = _parts(im)
        if b == e:
            x, y, d = a, c, b
        else:
            x, y, d = a * e, c * b, b * e
        g = math.gcd(x, y, d)
        self._x, self._y, self._d = x // g, y // g, d // g

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    def as_ints(self) -> tuple[int, int, int]:
        """(x, y, d) with self = (x + y*i)/d, d > 0 and gcd(x, y, d) = 1."""
        return self._x, self._y, self._d

    # -- conversions ---------------------------------------------------

    def __complex__(self):
        # int / int rounds correctly, so this equals float(self.re), float(self.im)
        return complex(self._x / self._d, self._y / self._d)

    def __abs__(self):
        return math.hypot(self._x / self._d, self._y / self._d)

    def abs2(self) -> Fraction:
        """|self|^2 as an exact Fraction."""
        return Fraction(self._x * self._x + self._y * self._y, self._d * self._d)

    def __bool__(self):
        return bool(self._x or self._y)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QComplex):
            d, e = self._d, other._d
            if d == e:
                return _reduced(self._x + other._x, self._y + other._y, d)
            return _reduced(self._x * e + other._x * d, self._y * e + other._y * d, d * e)
        if isinstance(other, _EXACT_PARTS):
            if not other:
                return self
            n, e = _parts(other)
            d = self._d
            return _reduced(self._x * e + n * d, self._y * e, d * e)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self._x, -self._y, self._d)

    def __sub__(self, other):
        if isinstance(other, _EXACT_TYPES):
            return self + -other
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT_PARTS):
            return -self + other
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QComplex):
            a, b, c, e = self._x, self._y, other._x, other._y
            return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)
        if isinstance(other, _EXACT_PARTS):
            n, e = _parts(other)
            return _reduced(self._x * n, self._y * n, self._d * e)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QComplex):
            c, e = other._x, other._y
            norm = c * c + e * e
            if not norm:
                raise ZeroDivisionError("division by exact zero")
            a, b, f = self._x, self._y, other._d
            return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)
        if isinstance(other, _EXACT_PARTS):
            if not other:
                raise ZeroDivisionError("division by exact zero")
            n, e = _parts(other)
            if n < 0:
                n, e = -n, -e
            return _reduced(self._x * e, self._y * e, self._d * n)
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

    def _power(self, exponent: int) -> "QComplex":
        """self**exponent for exponent >= 1: a Gaussian-integer power, reduced once."""
        x, y = _gauss_power(self._x, self._y, exponent)
        return _reduced(x, y, self._d**exponent)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QComplex):
            return self._x == other._x and self._y == other._y and self._d == other._d
        if isinstance(other, _EXACT_PARTS):
            n, e = _parts(other)
            return not self._y and self._x == n and self._d == e
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        if not self._y:
            return hash(self.re)
        return hash((self._x, self._y, self._d))

    def __repr__(self):
        return f"QComplex({self.re!r}, {self.im!r})"


_EXACT_TYPES = (QComplex,) + _EXACT_PARTS
_new = object.__new__


def _gauss_power(a: int, b: int, n: int) -> tuple[int, int]:
    """(a + b*i)**n as (re, im) ints, by binary squaring."""
    x, y = 1, 0
    while n:
        if n & 1:
            x, y = x * a - y * b, x * b + y * a
        n >>= 1
        if n:
            a, b = a * a - b * b, 2 * a * b
    return x, y


def _raw(x: int, y: int, d: int) -> QComplex:
    """QComplex from ints already in reduced form."""
    q = _new(QComplex)
    q._x, q._y, q._d = x, y, d
    return q


def _reduced(x: int, y: int, d: int) -> QComplex:
    """QComplex for (x + y*i)/d with d > 0, divided through by gcd(x, y, d).

    When d is a power of two, as for every value lifted from floats, the gcd
    is the lowest set bit of x | y | d and the division is a shift.
    """
    if d & (d - 1):
        g = math.gcd(d, x, y)  # math.gcd skips the rest once the gcd is 1
        if g != 1:
            x, y, d = x // g, y // g, d // g
    else:
        low = x | y | d
        shift = (low & -low).bit_length() - 1
        if shift:
            x, y, d = x >> shift, y >> shift, d >> shift
    q = _new(QComplex)
    q._x, q._y, q._d = x, y, d
    return q


def powi(base, exponent: int):
    """Integer power by binary squaring, exact for QComplex bases."""
    if exponent < 0:
        base = 1 / base
        exponent = -exponent
    if isinstance(base, QComplex) and exponent:
        return base._power(exponent)
    result = 1
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def is_exact(c) -> bool:
    return isinstance(c, _EXACT_TYPES)


def negligible(value, scale: Callable[[], float]) -> bool:
    """Vanishing test: an exact value must be zero; a floating one may reach
    VANISH_TOL_REL * scale().  The value's type decides which rule applies,
    and scale, a function returning the float scale, is called only for a
    floating value."""
    if isinstance(value, (float, complex)):
        return abs(value) <= VANISH_TOL_REL * scale()
    return not value
