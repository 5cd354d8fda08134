"""Sparse Laurent polynomials in two complex variables.

A polynomial is a finite map from integer exponent pairs ``(a, b)`` to nonzero
coefficients, representing ``sum c * z1**a * z2**b``.  Coefficients are either
``complex`` or exact ``QComplex`` values; see :mod:`gleason.scalars`.  The term
map is canonical: exact zeros are never stored, and in floating mode any
coefficient with modulus at most ``1e-14`` times the operation's scale is
dropped.  The pass that drops them also records the largest modulus kept, so
a floating polynomial carries its max norm and the scale of the next `+` or
`*` costs no rescan; an exact polynomial computes its norm only when asked.
"""

from __future__ import annotations

from collections.abc import Callable
from types import MappingProxyType

from .errors import EvaluationDomainError, NotDivisibleError
from .scalars import QComplex, negligible, powi
from .scalars import is_exact as scalar_is_exact

PRUNE_REL = 1e-14


def _canonical(terms, prune_scale: float | Callable[[], float] | None) -> tuple:
    """Drop exact zeros and, for floating coefficients, negligible ones.

    prune_scale is a float, a function returning one, or None for the largest
    floating coefficient.  It is looked at only when a coefficient is
    floating: an exact polynomial never pays for a norm.  Returns the map and
    its largest modulus (ties as in max()), or None for an exact map.
    """
    out = {}
    for exp, c in terms.items():
        # QComplex first: an exact coefficient then costs one type check
        if not isinstance(c, QComplex) and isinstance(c, (float, complex)):
            break
        if c:
            out[exp] = c
    else:
        return out, None
    if prune_scale is None:
        prune_scale = 0.0
        for c in terms.values():
            if not isinstance(c, QComplex):
                prune_scale = max(prune_scale, abs(c))
    elif callable(prune_scale):
        prune_scale = prune_scale()
    threshold = PRUNE_REL * prune_scale
    out = {}
    norm = None
    for exp, c in terms.items():
        if type(c) is complex or not isinstance(c, QComplex):
            if c == 0:
                continue
            size = abs(c)
            if size <= threshold:
                continue
        elif c.is_zero:
            continue
        else:
            size = abs(c)
        out[exp] = c
        if norm is None or size > norm:
            norm = size
    return out, (0.0 if norm is None else norm)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial in z1, z2."""

    __slots__ = ("_terms", "_norm")

    def __init__(
        self,
        terms: dict | None = None,
        *,
        prune_scale: float | Callable[[], float] | None = None,
    ):
        self._terms, self._norm = _canonical(terms or {}, prune_scale)

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls({})

    @classmethod
    def constant(cls, c) -> "LaurentPolynomial":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "LaurentPolynomial":
        return cls({(a, b): c})

    # -- inspection ------------------------------------------------------

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def exponents(self):
        return self._terms.keys()

    def coefficient(self, a: int, b: int):
        return self._terms.get((a, b), 0)

    def one_norm(self) -> float:
        """Sum of coefficient moduli, added left to right.

        An explicit loop, not sum(): from Python 3.12 on, sum() compensates
        float rounding, which would make the digits depend on the interpreter.
        """
        total = 0
        for c in self._terms.values():
            total += abs(c)
        return total

    def max_norm(self) -> float:
        """Largest coefficient modulus; carried from construction when floating."""
        if self._norm is None:
            self._norm = max((abs(c) for c in self._terms.values()), default=0.0)
        return self._norm

    def is_exact(self) -> bool:
        return all(isinstance(c, QComplex) for c in self._terms.values())

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self._terms.keys() != other._terms.keys():
            return False
        return all(other._terms[e] == c for e, c in self._terms.items())

    __hash__ = None

    def __repr__(self):
        return f"LaurentPolynomial({dict(sorted(self._terms.items()))!r})"

    def __str__(self):
        from .exprio import format_poly

        return format_poly(self)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, LaurentPolynomial):
            acc = dict(self._terms)
            for exp, c in other._terms.items():
                acc[exp] = acc.get(exp, 0) + c
            return LaurentPolynomial(
                acc, prune_scale=lambda: max(self.max_norm(), other.max_norm())
            )
        if isinstance(other, (int, float, complex, QComplex)):
            return self + LaurentPolynomial.constant(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(
            {e: -c for e, c in self._terms.items()}, prune_scale=self.max_norm
        )

    def __sub__(self, other):
        if isinstance(other, (LaurentPolynomial, int, float, complex, QComplex)):
            return self + (-other if isinstance(other, LaurentPolynomial) else -1 * other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            acc: dict = {}
            for (a1, b1), c1 in self._terms.items():
                for (a2, b2), c2 in other._terms.items():
                    exp = (a1 + a2, b1 + b2)
                    acc[exp] = acc.get(exp, 0) + c1 * c2
            return LaurentPolynomial(
                acc, prune_scale=lambda: self.max_norm() * other.max_norm()
            )
        if isinstance(other, (int, float, complex, QComplex)):
            if not other:
                return LaurentPolynomial.zero()
            return LaurentPolynomial(
                {e: c * other for e, c in self._terms.items()},
                prune_scale=lambda: self.max_norm() * abs(other),
            )
        return NotImplemented

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------------

    def eval(self, q1, q2):
        """Value at (q1, q2); exact when coefficients and point are exact.

        A zero coordinate is allowed only if the polynomial has no negative
        exponent in that variable.
        """
        q1_zero = not q1
        q2_zero = not q2
        pow1: dict = {}
        pow2: dict = {}
        total = 0
        for (a, b), c in self._terms.items():
            if q1_zero and a != 0:
                if a < 0:
                    raise EvaluationDomainError(
                        "negative z1-exponent evaluated at z1 = 0"
                    )
                continue
            if q2_zero and b != 0:
                if b < 0:
                    raise EvaluationDomainError(
                        "negative z2-exponent evaluated at z2 = 0"
                    )
                continue
            term = c
            if a:
                if a not in pow1:
                    pow1[a] = powi(q1, a)
                term = term * pow1[a]
            if b:
                if b not in pow2:
                    pow2[b] = powi(q2, b)
                term = term * pow2[b]
            total = total + term
        return total

    def substitute_z1(self, value) -> "LaurentPolynomial":
        """Partial evaluation z1 := value, leaving a polynomial in z2."""
        value_zero = not value
        powers: dict = {}
        acc: dict = {}
        for (a, b), c in self._terms.items():
            if value_zero and a != 0:
                if a < 0:
                    raise EvaluationDomainError(
                        "negative z1-exponent evaluated at z1 = 0"
                    )
                continue
            if a:
                if a not in powers:
                    powers[a] = powi(value, a)
                c = c * powers[a]
            acc[(0, b)] = acc.get((0, b), 0) + c
        return LaurentPolynomial(acc, prune_scale=self.max_norm)


def _linear_quotient(coeffs: dict, root):
    """Divide sum c_d t^d by (t - root) via Horner, clearing any pole first.

    With s = min(0, lowest exponent), t^(-s) * sum c_d t^d is a polynomial;
    the walk divides it from the top exponent down to s + 1 and keys each
    quotient coefficient at d - 1, which is the quotient multiplied back by
    t^s.  Returns (quotient map, remainder of the cleared division).  The
    walk is dense because the quotient generally is.
    """
    if not coeffs:
        return {}, 0
    low = min(0, min(coeffs))
    carry = 0
    quotient: dict = {}
    for d in range(max(coeffs), low, -1):
        carry = coeffs.get(d, 0) + root * carry
        quotient[d - 1] = carry
    return quotient, coeffs.get(low, 0) + root * carry


def divide_univariate(f: LaurentPolynomial, root) -> LaurentPolynomial:
    """Quotient f / (z2 - root) for f in z2 alone, vanishing at root.

    root must be nonzero; negative exponents are handled by clearing the pole
    first.  The remainder must pass the vanishing test scaled by the
    coefficient sum; otherwise NotDivisibleError carries the residual f(root).
    """
    if not root:
        raise EvaluationDomainError("division root must be nonzero")
    if f.is_zero:
        return LaurentPolynomial.zero()
    if any(a for a, _ in f.exponents()):
        raise ValueError("polynomial depends on z1")

    coeffs = {b: c for (_, b), c in f.terms.items()}
    quotient, remainder = _linear_quotient(coeffs, root)
    if not negligible(remainder, f.one_norm):
        residual = remainder * powi(root, min(0, min(coeffs)))
        if scalar_is_exact(remainder):
            raise NotDivisibleError("nonzero remainder in exact division", residual)
        raise NotDivisibleError(
            f"remainder {abs(remainder):.3e} beyond tolerance", residual
        )
    return LaurentPolynomial(
        {(0, d): c for d, c in quotient.items()},
        prune_scale=lambda: f.max_norm() * (1 + abs(root)),
    )


def shift_divide_z1(f: LaurentPolynomial, p1) -> LaurentPolynomial:
    """Quotient (f - f|_{z1=p1}) / (z1 - p1), taken slice by slice in z2.

    p1 must be nonzero.
    """
    if not p1:
        raise EvaluationDomainError("division root must be nonzero")
    slices: dict[int, dict[int, object]] = {}
    for (a, b), c in f.terms.items():
        slices.setdefault(b, {})[a] = c

    out: dict = {}
    for b, sl in slices.items():
        value = 0
        for a, c in sl.items():
            value = value + c * powi(p1, a)
        sl[0] = sl.get(0, 0) - value
        # The remainder is (slice - slice(p1))(p1) = 0 up to roundoff; discard.
        quotient, _remainder = _linear_quotient(sl, p1)
        for d, c in quotient.items():
            out[(d, b)] = c
    return LaurentPolynomial(
        out, prune_scale=lambda: f.max_norm() * (1 + abs(p1))
    )
