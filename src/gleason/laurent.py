"""Sparse Laurent polynomials in two complex variables.

A polynomial is a finite map from integer exponent pairs ``(a, b)`` to nonzero
coefficients, representing ``sum c * z1**a * z2**b``, of one kind: a map with
a ``float`` or ``complex`` coefficient is floating and holds only ``complex``
ones, any other is exact and holds only ``QComplex`` ones (see
:mod:`gleason.scalars`); zero counts as exact.  Exact zeros are never stored,
and in floating mode any coefficient with modulus at most ``1e-14`` times the
operation's scale is dropped.  The pass that drops them also records the
largest modulus kept, so a floating polynomial carries its max norm and the
scale of the next `+` or `*` costs no rescan; an exact polynomial computes
its norm only when asked.

`multiply_add` forms ``base + sum g*h`` in one map, converting each
distinct factor once per call.  When every operand is exact it reads each
coefficient as Gaussian-integer ints (x, y, d) for (x + y*i)/d and hands
`_exact_sum` each product as the pair of its factors' triple maps, whose
term products that loop forms and adds straight into the sum's map,
keeping each exponent's sum unreduced; the finished map is reduced in one
pass, each summed entry once.  Exact `*` runs there too.  It skips a
product by 0 and passes a product by the constant 1 through as the items
of the other factor's own terms; a reduced coefficient of base or of such
a product that no other summand reaches passes through `_exact_sum`
untouched.  Otherwise it reads the operands as complex, except that it
forms a product of two exact factors exactly, as `*` does, and rounds and
prunes term by term where the operator chain does, but touches only the
terms a product hits and reads a product's moduli in one list, rebuilding
the product only when one of its prunes drops a term; a product by one
term is one pass, since one shift keeps the exponents distinct.
Either way coefficients and term order are the chain's.  A prune at an
infinite scale would drop every term, so it raises `InputError` naming the
float overflow.

`subtract_linear_multiples`, the symbolic residual, shifts the factors'
terms instead of building z - root: as unreduced triples on exact operands,
handed to `_exact_sum` as map items, and on floating ones in a pass that
keeps each coefficient's float sum and the sum of its summands' moduli as
one pair in one map and certifies the coefficient against a tolerance,
recomputing it exactly when its rounding bound straddles it.  The
tolerance may be a function, read only on that floating path.

`eval` on exact terms at a QComplex point, and the correction polynomial's
values on exact f and p, sum over one common denominator in
`_exact_values`: one pair of power tables, built by running products, for
all the groups of terms, and one reduction per group.  Substitution and the
fiber projection stay on the operator loop: their groups hold one or two
terms, and grouping them made a prototype about 10% slower on the exact
interior benchmark (the fiber projection's part; the substitution's was
neutral).  The Horner walk behind the divisions forms each step from the
reduced carry, so it too reduces once per coefficient it stores; each
caller picks the walk by its polynomial's kind, not by reading every
coefficient.  A relabelled floating polynomial keeps its map and norm when
its prune would drop nothing.  Values, and so printed outputs, term order
and carried norms, are those of the operator loops they replace.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from types import MappingProxyType

from .errors import EvaluationDomainError, InputError
from .scalars import QComplex, _raw, _reduce_values, _reduced, powi
from .scalars import is_exact as scalar_is_exact

PRUNE_REL = 1e-14
_ZERO = _raw(0, 0, 1)
_ONE_TERMS = {(0, 0): _raw(1, 0, 1)}  # the terms of the exact constant 1


def _prune_threshold(scale: float) -> float:
    """PRUNE_REL * scale; at an infinite scale every term would go, so that raises."""
    threshold = PRUNE_REL * scale
    if threshold == math.inf:
        raise InputError("float overflow: a coefficient scale is out of the float range")
    return threshold


def _canonical(terms, prune_scale: float | Callable[[], float] | None) -> tuple:
    """Coerce a term map to its kind and drop zeros, and if floating, negligible terms.

    A map with a float or complex coefficient is floating and every
    coefficient becomes complex; any other map becomes all QComplex.
    prune_scale is a float, a function returning one, or None for the largest
    modulus.  It is looked at only for a floating map: an exact polynomial
    never pays for a norm.  Returns the map and its largest modulus (ties as
    in max()), or None for an exact map.
    """
    out = {}
    for exp, c in terms.items():
        # QComplex first: an exact coefficient then costs one type check
        if isinstance(c, QComplex):
            if c._x or c._y:
                out[exp] = c
        elif isinstance(c, (float, complex)):
            break
        elif c:
            out[exp] = QComplex(c)
    else:
        return out, None
    if prune_scale is None:
        prune_scale = max(0.0, *map(abs, terms.values()))
    elif callable(prune_scale):
        prune_scale = prune_scale()
    threshold = _prune_threshold(prune_scale)
    out = {}
    norm = None
    for exp, c in terms.items():
        if type(c) is not complex:
            c = complex(c)
        if c == 0 or (size := abs(c)) <= threshold:
            continue
        out[exp] = c
        if norm is None or size > norm:
            norm = size
    return out, (0.0 if norm is None else norm)


def _one_norm(values) -> float:
    """Sum of the moduli of values, added left to right.

    An explicit loop, not sum(): from Python 3.12 on, sum() compensates
    float rounding, which would make the digits depend on the interpreter.
    """
    total = 0
    for c in values:
        total += abs(c)
    return total


def _triples(poly: LaurentPolynomial) -> dict:
    """exponent -> (x, y, d) of an exact polynomial's terms."""
    return {exp: (c._x, c._y, c._d) for exp, c in poly._terms.items()}


def _wrap(terms: dict, norm: float | None = None) -> LaurentPolynomial:
    """The polynomial of a canonical map: floating with norm, its moduli's max()
    in order, or exact with None, which max_norm() fills when asked, so only
    is_exact() tells the kind."""
    poly = object.__new__(LaurentPolynomial)
    poly._terms, poly._norm = terms, norm
    return poly


def _own_threshold(poly: LaurentPolynomial) -> float | None:
    """PRUNE_REL times poly's own norm, or None when exact; an infinite norm raises."""
    return None if poly.is_exact() else _prune_threshold(poly.max_norm())


def _relabelled(terms: dict, scale: float | Callable[[], float]) -> LaurentPolynomial:
    """LaurentPolynomial(terms, prune_scale=scale) relabelled, so built again at
    its own norm.  That prune is skipped where it drops nothing: at a float
    scale of at least the norm, or when every modulus exceeds PRUNE_REL times
    the norm.  A map of exact zeros alone, or none, is the exact zero."""
    terms, norm = _canonical(terms, scale)
    if norm is None or not terms:
        return _wrap(terms)
    if type(scale) is float and scale >= norm:
        return _wrap(terms, norm)
    threshold = PRUNE_REL * norm
    for c in terms.values():
        if not abs(c) > threshold:
            return LaurentPolynomial(terms, prune_scale=norm)
    return _wrap(terms, norm)


def _nonvanishing(terms: dict, z1_zero: bool, z2_zero: bool) -> dict:
    """The terms that survive at a zero coordinate; a negative exponent there raises."""
    out = {}
    for (a, b), c in terms.items():
        if z1_zero and a != 0:
            if a < 0:
                raise EvaluationDomainError("negative z1-exponent evaluated at z1 = 0")
            continue
        if z2_zero and b != 0:
            if b < 0:
                raise EvaluationDomainError("negative z2-exponent evaluated at z2 = 0")
            continue
        out[(a, b)] = c
    return out


def _power_numerators(q: QComplex, exponents: list) -> tuple:
    """Gaussian-integer numerators of q**e over one common denominator.

    With q = (x + y*i)/d and n = x*x + y*y, q**e is (x + y*i)**e / d**e for
    e >= 0 and (d*x - d*y*i)**-e / n**-e for e < 0, so d**hi * n**lo, for
    the largest positive exponent hi and the largest negative one -lo, is a
    common denominator.  The Gaussian powers and the powers of d and n are
    running products up to hi and lo.  Returns ({e: (re, im)}, that
    denominator).
    """
    x, y, d = q._x, q._y, q._d
    hi, lo = max(0, *exponents), -min(0, *exponents)
    up, d_pow = [(1, 0)], [1]  # (x + y*i)**e and d**e
    for _ in range(hi):
        u, v = up[-1]
        up.append((u * x - v * y, u * y + v * x))
        d_pow.append(d_pow[-1] * d)
    down, n_pow = [(1, 0)], [1]  # (d*x - d*y*i)**e and n**e
    a, b, n = d * x, -d * y, x * x + y * y
    for _ in range(lo):
        u, v = down[-1]
        down.append((u * a - v * b, u * b + v * a))
        n_pow.append(n_pow[-1] * n)
    out: dict = {}
    for e in exponents:
        if e in out:
            continue
        if e >= 0:
            (u, v), s = up[e], d_pow[hi - e] * n_pow[lo]
        else:
            (u, v), s = down[-e], d_pow[hi] * n_pow[lo + e]
        out[e] = (u * s, v * s)
    return out, d_pow[hi] * n_pow[lo]


def _exact_values(groups: list, q1: QComplex, q2: QComplex) -> list:
    """[sum of c * q1**a * q2**b over each group's ((a, b), c) terms].

    Each group holds at least one term.  The groups share one pair of power
    tables; each is summed over one common denominator and reduced once.
    """
    if not groups:
        return []
    exps = [exp for terms in groups for exp, _ in terms]
    pow1, den1 = _power_numerators(q1, [a for a, _ in exps])
    pow2, den2 = _power_numerators(q2, [b for _, b in exps])
    values = []
    for terms in groups:
        den = math.lcm(*[c._d for _, c in terms])
        x = y = 0
        for (a, b), c in terms:
            s = den // c._d
            u, v = c._x * s, c._y * s
            g, h = pow1[a]
            u, v = u * g - v * h, u * h + v * g
            g, h = pow2[b]
            x += u * g - v * h
            y += u * h + v * g
        values.append(_reduced(x, y, den * den1 * den2))
    return values


def _term_products(g: dict, h: dict) -> dict:
    """exponent -> unpruned sum of term products; `*` and the float kernel share it.

    A product by one term is one pass; its 0 + c1*c2 gives a zero part the
    sign that the sum from 0 gives it.
    """
    if len(h) == 1:
        ((a2, b2), c2), = h.items()
        return {(a1 + a2, b1 + b2): 0 + c1 * c2 for (a1, b1), c1 in g.items()}
    acc: dict = {}
    get = acc.get
    for (a1, b1), c1 in g.items():
        for (a2, b2), c2 in h.items():
            exp = (a1 + a2, b1 + b2)
            acc[exp] = get(exp, 0) + c1 * c2
    return acc


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
        """Sum of coefficient moduli, added left to right (see `_one_norm`)."""
        return _one_norm(self._terms.values())

    def max_norm(self) -> float:
        """Largest coefficient modulus; carried from construction when floating."""
        if self._norm is None:
            self._norm = max((abs(c) for c in self._terms.values()), default=0.0)
        return self._norm

    def is_exact(self) -> bool:
        """Coefficients are QComplex; one coefficient tells, and zero is exact."""
        for c in self._terms.values():
            return isinstance(c, QComplex)
        return True

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
            if self.is_exact() and other.is_exact():
                return _exact_sum({}, [(_triples(self), _triples(other))])
            return LaurentPolynomial(
                _term_products(self._terms, other._terms),
                prune_scale=lambda: self.max_norm() * other.max_norm(),
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
        exponent in that variable.  On exact terms at a QComplex point the
        sum is formed over one common denominator and reduced once.
        """
        terms = self._terms
        if not q1 or not q2:
            terms = _nonvanishing(terms, not q1, not q2)
        if type(q1) is QComplex and type(q2) is QComplex and self.is_exact():
            return _exact_values([terms.items()], q1, q2)[0] if terms else 0
        pow1: dict = {}
        pow2: dict = {}
        total = 0
        for (a, b), c in terms.items():
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
        terms = self._terms
        if not value:
            terms = _nonvanishing(terms, True, False)
        powers: dict = {}
        acc: dict = {}
        for (a, b), c in terms.items():
            if a:
                if a not in powers:
                    powers[a] = powi(value, a)
                c = c * powers[a]
            acc[(0, b)] = acc.get((0, b), 0) + c
        return LaurentPolynomial(acc, prune_scale=self.max_norm)


def _exact_sum(base: dict, products) -> LaurentPolynomial:
    """The exact kernel: the QComplex terms of base plus the products' summands.

    A product is a pair (g, h) of exponent -> (x, y, d) maps, whose term
    products this loop forms in the operator loop's order, g's terms outer,
    and in which an exponent may recur; or the items of a map whose
    exponents are distinct: `_linear_products`' triples, or a polynomial's
    own QComplex terms for a product by the constant 1.  Every summand goes
    straight into one map: an entry no other summand reaches keeps its value
    as it is, and one that several reach is summed as unreduced ints.  An
    entry that cancels is dropped after its product, as the operator chain
    drops exact zeros after every `*` and `+`, so the terms come out in the
    chain's order: a map's entry goes at once, a pair's when the pair's
    product ends, since a later summand may reach it again.  The finished
    map is reduced in one pass, each summed entry once.
    """
    acc = dict(base)
    get = acc.get
    for product in products:
        if type(product) is not tuple:
            for exp, t in product:
                old = get(exp)
                if old is None:
                    acc[exp] = t
                    continue
                x, y, d = t if type(t) is tuple else (t._x, t._y, t._d)
                u, v, w = old if type(old) is tuple else (old._x, old._y, old._d)
                if w == d:
                    u, v = u + x, v + y
                else:
                    u, v, w = u * d + x * w, v * d + y * w, w * d
                if u or v:
                    acc[exp] = (u, v, w)
                else:
                    del acc[exp]
            continue
        g, h = product
        h = h.items()
        zeros = []
        for (a1, b1), (x1, y1, d1) in g.items():
            for (a2, b2), (x2, y2, d2) in h:
                exp = (a1 + a2, b1 + b2)
                x, y, d = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * d2
                old = get(exp)
                if old is None:
                    acc[exp] = (x, y, d)
                    continue
                u, v, w = old if type(old) is tuple else (old._x, old._y, old._d)
                if w == d:
                    u, v = u + x, v + y
                else:
                    u, v, w = u * d + x * w, v * d + y * w, w * d
                if u or v:
                    acc[exp] = (u, v, w)
                else:
                    acc[exp] = (0, 0, w)
                    zeros.append(exp)
        for exp in zeros:
            if (t := get(exp)) is not None and not (t[0] or t[1]):
                del acc[exp]
    return _wrap(_reduce_values(acc))


def _linear_products(g: LaurentPolynomial, shift: tuple, root: QComplex) -> dict:
    """exponent -> unreduced (x, y, d) of -g * (z^shift - root) for exact g.

    The map sums per exponent the summands that `_exact_sum` forms for the
    pair of g and the negated linear polynomial, whose terms are -z^shift,
    then root when root is nonzero: the same exponents in the same order with
    the same ints, but the linear polynomial is not formed.  An exponent
    meets at most two summands, so one that cancels is deleted at once.
    """
    i, j = shift
    rx, ry, rd = root._x, root._y, root._d
    acc: dict = {}
    get = acc.get
    for (a, b), c in g._terms.items():
        x1, y1, d1 = c._x, c._y, c._d
        exp = (a + i, b + j)
        old = get(exp)
        if old is None:
            acc[exp] = (-x1, -y1, d1)
        else:
            u, v, w = old
            if w == d1:
                u, v = u - x1, v - y1
            else:
                u, v, w = u * d1 - x1 * w, v * d1 - y1 * w, w * d1
            if u or v:
                acc[exp] = (u, v, w)
            else:
                del acc[exp]
        if not (rx or ry):
            continue
        exp = (a, b)
        x = x1 * rx - y1 * ry
        y = x1 * ry + y1 * rx
        d = d1 * rd
        old = get(exp)
        if old is None:
            acc[exp] = (x, y, d)
        else:
            u, v, w = old
            if w == d:
                u, v = u + x, v + y
            else:
                u, v, w = u * d + x * w, v * d + y * w, w * d
            if u or v:
                acc[exp] = (u, v, w)
            else:
                del acc[exp]
    return acc


# A residual coefficient's rounding bound (Higham, "Accuracy and Stability of
# Numerical Algorithms", 2nd ed., 3.1 and 3.6): each summand of
# f_e - g_(e-shift) + root*g_e reaches the float sum with a relative error of
# at most about 9u, u = 2**-53; 12u leaves room for the comparisons with tol.
# The absolute term covers the real products' underflow.
_ROUNDING_REL = 12 * 2.0**-53
_UNDERFLOW = 2.0**-1069


def subtract_linear_multiples(
    base: LaurentPolynomial, parts: list, tol: float | Callable[[], float]
) -> LaurentPolynomial:
    """base - g*(z^shift - root) - ... over the (g, shift, root) parts, shift != (0, 0).

    tol is a float or a function returning one, as `prune_scale` may be.
    Exact operands (every root an int, Fraction or QComplex) give the exact
    residual in the operator chain's term order, and tol is not read, so a
    function is never called.  Otherwise tol is read once, and each
    coefficient r_e is summed in float, unpruned, beside the sum s_e of its
    summands' moduli, the two kept as one pair per exponent
    (an exact operand read as complex rounds relatively, as in the normal
    float range), so |r_e| lies within b_e = 12u * s_e + 2**-1069 of the
    float sum's modulus m_e.  It is dropped when
    m_e <= b_e and m_e + b_e <= tol, kept when it is certified on one side of
    tol, and recomputed by `_exact_coefficient` when it straddles tol.  So
    abs(c) <= tol holds for every coefficient c iff every exact |r_e| does.
    """
    if base.is_exact() and all(g.is_exact() and scalar_is_exact(r) for g, _, r in parts):
        products = [
            _linear_products(g, shift, r if type(r) is QComplex else QComplex(r)) for g, shift, r in parts
        ]
        return _exact_sum(base._terms, [product.items() for product in products])
    if callable(tol):
        tol = tol()
    # exp -> (r_e, s_e): one lookup and one store per summand.  A new
    # coefficient starts as 0 - c or 0 + t, not -c or t, so that a zero
    # part gets the sign a sum from 0 gives it
    acc = {}
    for exp, c in base._terms.items():
        c = complex(c)
        acc[exp] = (c, abs(c))
    get = acc.get
    for g, (i, j), root in parts:
        terms = _as_complex(g)._terms
        if not root:
            for (a, b), c in terms.items():
                exp = (a + i, b + j)
                old = get(exp)
                acc[exp] = (0 - c, abs(c)) if old is None else (old[0] - c, old[1] + abs(c))
            continue
        z = complex(root)
        for key, c in terms.items():  # g's own exponent keys the root summand
            exp = (key[0] + i, key[1] + j)
            old = get(exp)
            acc[exp] = (0 - c, abs(c)) if old is None else (old[0] - c, old[1] + abs(c))
            t = z * c
            old = get(key)
            acc[key] = (0 + t, abs(t)) if old is None else (old[0] + t, old[1] + abs(t))
    out = {}
    for exp, (r, mass) in acc.items():
        m, bound = abs(r), _ROUNDING_REL * mass + _UNDERFLOW
        if m - bound > tol or m + bound <= tol and m > bound:
            out[exp] = r
        elif not m + bound <= tol:
            out[exp] = _exact_coefficient(exp, base, parts, tol, r)
    return LaurentPolynomial(out, prune_scale=0.0)


def _lift(c) -> QComplex:
    """The Gaussian rational a scalar stands for; a non-finite float raises."""
    return c if type(c) is QComplex else QComplex(c.real, c.imag)


def _exact_coefficient(
    exp: tuple, base: LaurentPolynomial, parts: list, tol: float, approx: complex
) -> complex:
    """The residual's coefficient at exp from the lifted operands, rounded so
    that abs(c) <= tol reads its exact verdict (tol >= 0): near tol the parts,
    rounded to nearest, step an ulp at a time toward zero or away from it.

    An operand that is not finite, or a value past the float range, leaves
    approx, the float sum, which is then beyond tol too.
    """
    a, b = exp
    try:
        r = _lift(base._terms.get(exp, 0))
        for g, (i, j), root in parts:
            c = g._terms.get((a - i, b - j))
            r = r if c is None else r - _lift(c)
            c = g._terms.get(exp)
            r = r if c is None or not root else r + _lift(root) * _lift(c)
        c = complex(r)
    except (OverflowError, ValueError):
        return approx
    within = r.abs2() <= Fraction(tol) ** 2
    x, y = c.real, c.imag
    while (abs(complex(x, y)) <= tol) != within:
        x = math.nextafter(x, 0.0 if within else math.copysign(math.inf, x))
        y = math.nextafter(y, 0.0 if within else math.copysign(math.inf, y))
    return complex(x, y)


def _as_complex(poly: LaurentPolynomial) -> LaurentPolynomial:
    """poly itself when floating or zero, else its unpruned complex copy."""
    if poly._terms and poly.is_exact():
        return LaurentPolynomial({e: complex(c) for e, c in poly._terms.items()}, prune_scale=0.0)
    return poly


def _kept(terms: dict, sizes: dict, threshold: float) -> tuple:
    """terms and their moduli without those of modulus 0 or at most threshold."""
    sizes = {e: s for e, s in sizes.items() if not (s == 0 or s <= threshold)}
    return {e: terms[e] for e in sizes}, sizes


def _float_sum(base: LaurentPolynomial, products: list) -> LaurentPolynomial:
    """The floating kernel, in one map updated in place.

    products holds (product map, factor norm) pairs, as `multiply_add`
    forms them.  As the chain does, it prunes each product at PRUNE_REL times
    its factor norm |g| * |h| and each sum at PRUNE_REL * max(|acc|, |g*h|).
    A product's moduli are taken in one list, in its order; the min and max
    of that list are the ones the prunes compare, so a product whose smallest
    modulus exceeds its threshold is added as it is, and only one that loses
    a term is rebuilt.  Each kept term's modulus, kept beside it, exceeds the
    last sum threshold, so untouched terms are checked again only when that
    threshold rises to a lower bound of the moduli, which the loop carries.
    It carries the max norm too, with the term that holds it, and rescans
    with max() only when a product lowers or deletes that term or a modulus
    is NaN, as max()'s NaN depends on the order.
    """
    acc = dict(base._terms)
    sizes = {exp: abs(c) for exp, c in acc.items()}
    top = max(sizes, key=sizes.__getitem__, default=None)
    norm, last, low = base.max_norm(), float("nan"), 0.0  # base has met no sum threshold
    nan = math.isnan(sum(sizes.values()))
    for prod, factor_norm in products:
        prod_norm = 0.0
        if prod:  # the chain takes no factor norm for an empty product
            moduli = list(map(abs, prod.values()))
            least, prod_norm = min(moduli), max(moduli)
            floor = _prune_threshold(factor_norm)
            if not least > floor:
                prod, kept = _kept(prod, dict(zip(prod, moduli)), floor)
                prod_norm = max(kept.values()) if kept else 0.0
        threshold = _prune_threshold(prod_norm if prod_norm > norm else norm)  # max()'s ties
        high = norm
        for exp, c in prod.items():
            c = acc.get(exp, 0) + c
            if (size := abs(c)) == 0 or size <= threshold:
                if exp in sizes:
                    del acc[exp], sizes[exp]
            else:
                acc[exp], sizes[exp] = c, size
                if not low <= size <= high:
                    if size > high:
                        high, top = size, exp
                    if size < low:  # after an empty pass low is inf, above high
                        low = size
                    elif size != size:
                        nan = True
        if not threshold <= last:
            if low <= threshold and not (low := min(sizes.values(), default=math.inf)) > threshold:
                acc, sizes = _kept(acc, sizes, threshold)
                low = threshold
        elif not prod:
            continue  # nothing changed
        last = threshold
        if nan or sizes.get(top) != high:
            top = max(sizes, key=sizes.__getitem__, default=None)
            high = 0.0 if top is None else sizes[top]
        norm = high
    return _wrap(acc, norm)


def multiply_add(base: LaurentPolynomial, products: list) -> LaurentPolynomial:
    """base + g*h + ... over the (g, h) pairs of products.

    The exact kernel runs when every operand is exact; otherwise the floating
    kernel runs on the operands read as complex.  Either kernel converts each
    distinct factor once per call, keyed by identity, as the solver's R1, R2,
    V1 and V2 recur once per component.  The exact kernel hands `_exact_sum`
    each product as the pair of its factors' triple maps, skips a product
    with an empty factor and passes a product by the constant 1 in h through
    as the items of g's own terms, as the split by the cut z2 of
    `hartogs_full` has V1 = 0 and V2 = 1: the exact chain prunes nothing, so
    values and term order stay the chain's.  The floating kernel keeps an
    empty product, as ({}, 0.0), since it can still re-prune the sum, and
    forms a product of two exact factors exactly, unpruned, and reads its
    coefficients as complex, as ``base + g*h`` adds an exact product; only a
    new entry's part that underflows to -0.0 differs, as the sum from 0
    turns it to +0.0.
    """
    seen: dict = {}  # id(factor) -> its triples or its complex copy
    if base.is_exact() and all(g.is_exact() and h.is_exact() for g, h in products):
        sums = []
        for g, h in products:
            if not (g._terms and h._terms):
                continue
            if h._terms == _ONE_TERMS:
                sums.append(g._terms.items())
                continue
            if (tg := seen.get(id(g))) is None:
                tg = seen[id(g)] = _triples(g)
            if (th := seen.get(id(h))) is None:
                th = seen[id(h)] = _triples(h)
            sums.append((tg, th))
        return _exact_sum(base._terms, sums)
    pairs = []
    for g, h in products:
        if not (g._terms and h._terms):
            pairs.append(({}, 0.0))
            continue
        if (cg := seen.get(id(g))) is None:
            cg = seen[id(g)] = _as_complex(g)
        if (ch := seen.get(id(h))) is None:
            ch = seen[id(h)] = _as_complex(h)
        if cg is not g and ch is not h:
            # both exact: the chain forms g*h exactly, prunes none of it and
            # reads each coefficient as complex as it adds it; the floor -inf
            # keeps every term
            pairs.append(({e: complex(c) for e, c in (g * h)._terms.items()}, -math.inf))
            continue
        pairs.append((_term_products(cg._terms, ch._terms), cg._norm * ch._norm))
    return _float_sum(_as_complex(base), pairs)


def _linear_quotient(coeffs: dict, root, exact: bool):
    """Divide sum c_d t^d by (t - root) via Horner, clearing any pole first.

    With s = min(0, lowest exponent), t^(-s) * sum c_d t^d is a polynomial;
    the walk divides it from the top exponent down to s + 1 and keys each
    quotient coefficient at d - 1, which is the quotient multiplied back by
    t^s.  Returns (quotient map, remainder of the cleared division).  The
    walk is dense because the quotient generally is.  exact is the kind of
    the caller's polynomial, which its caller knows without reading the
    coefficients: the exact walk runs when it is exact and root is a
    QComplex, so its coefficients are QComplex values and int zeros.
    """
    if not coeffs:
        return {}, 0
    low = min(0, min(coeffs))
    if exact and type(root) is QComplex:
        return _exact_quotient(coeffs, root, low)
    carry = 0
    quotient: dict = {}
    for d in range(max(coeffs), low, -1):
        carry = coeffs.get(d, 0) + root * carry
        quotient[d - 1] = carry
    return quotient, coeffs.get(low, 0) + root * carry


def _exact_quotient(coeffs: dict, root: QComplex, low: int) -> tuple:
    """The exact Horner walk of _linear_quotient, one reduction per coefficient.

    coeffs holds QComplex values and int zeros.  Each step forms
    c + root * carry from the reduced carry as one unreduced triple and
    reduces it once; a zero carry passes the coefficient on as it is.
    """
    rx, ry, rd = root._x, root._y, root._d
    get = coeffs.get
    carry = _ZERO
    quotient: dict = {}
    for d in range(max(coeffs), low - 1, -1):
        c = get(d)
        x, y = carry._x, carry._y
        if x or y:
            w = carry._d * rd
            x, y = x * rx - y * ry, x * ry + y * rx
            if type(c) is QComplex:
                e = c._d
                if e == w:
                    x, y = x + c._x, y + c._y
                else:
                    x, y, w = x * e + c._x * w, y * e + c._y * w, w * e
            carry = _reduced(x, y, w)
        else:
            carry = c if type(c) is QComplex else _ZERO
        if d == low:
            return quotient, carry
        quotient[d - 1] = carry


def divide_univariate(f: LaurentPolynomial, root) -> LaurentPolynomial:
    """Quotient f / (z2 - root) for f in z2 alone, vanishing at root.

    Requires root != 0, f(root) = 0 and f in nonnegative powers of z2 alone,
    as the z1-free slices of P and of a bounded f on the axis are.  The
    remainder is dropped unread; the certified residual judges the identity.
    """
    if f.is_zero:
        return LaurentPolynomial.zero()
    coeffs = {b: c for (_, b), c in f.terms.items()}
    terms = {(0, d): c for d, c in _linear_quotient(coeffs, root, f.is_exact())[0].items()}
    return LaurentPolynomial(terms, prune_scale=lambda: f.max_norm() * (1 + abs(root)))


def shift_divide_z1(f: LaurentPolynomial, p1) -> LaurentPolynomial:
    """Quotient (f - f|_{z1=p1}) / (z1 - p1), taken slice by slice in z2.

    Requires p1 != 0 and no negative z1-exponent in f, as for the correction
    polynomial P off the z2-axis.
    """
    slices: dict[int, dict[int, object]] = {}
    for (a, b), c in f.terms.items():
        slices.setdefault(b, {})[a] = c
    out: dict = {}
    exact = f.is_exact()
    for b, sl in slices.items():
        # the constant term reaches only the remainder, (slice - slice(p1))(p1)
        # = 0 up to roundoff, which is discarded
        for d, c in _linear_quotient(sl, p1, exact)[0].items():
            out[(d, b)] = c
    return LaurentPolynomial(out, prune_scale=lambda: f.max_norm() * (1 + abs(p1)))
