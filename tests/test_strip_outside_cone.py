"""Strip solves of f with monomials whose routed ratio exponent is negative.

On a strip a < |z1^k/z2^l| < b the ratio u is bounded above and away from 0,
so every power of u is bounded there: each f that poly_bounded accepts is
solved, also where routing leaves a negative power of u.  The corpus is
seeded and holds 15 instances for each (k, l) and cut (m, n) below, every one
with at least one such monomial; exact instances must solve with a literally
zero residual, float ones with an exact residual, recomputed from the lifted
floats, within 1e-9 * (1 + |f|_1).
"""

import cmath
import functools
import math
import random
from fractions import Fraction

import pytest

from gleason import CuspDomain, LaurentPolynomial, QComplex, solve
from gleason.errors import InternalContractError
from gleason.verify import symbolic_residual

from conftest import rand_complex, rand_qcomplex, subtract_value_at

PAIRS = [(1, 1), (2, 1), (3, 2), (5, 2), (1, 2)]
CUTS = [(1, 1), (0, 1), (1, 2), (2, 1)]
SHAPES = [(k, l, m, n) for k, l in PAIRS for m, n in CUTS]
PER_SHAPE = 15
LOWER, UPPER = 0.25, 2.0
COUNT = len(SHAPES) * PER_SHAPE

# float instances whose solve raises InternalContractError for a cause the
# ratio cone does not touch: the correction polynomial P outgrows f by many
# decades, and the fiber check then fails on the cancellation.  Each stays in
# the corpus and must keep failing so until that is mended.
FLOAT_KNOWN = {
    210: "|P|_1 = 7.9e18 against |f|_1 = 8.9: the fiber remainder is all of |g_proj|",
    222: "|P|_1 = 3.4e18 against |f|_1 = 9.0: the fiber remainder is all of |g_proj|",
    286: "|P|_1 = 2.2e7 against |f|_1 = 5.4: the fiber remainder is 84 times its tolerance",
}


def outside_the_ratio_cone(exponents, k: int, l: int, m: int, n: int) -> bool:
    """Whether some z1^a z2^b, routed to its symmetric component, has a
    negative ratio exponent ((a - a mod N)*n - (b - b mod N)*m) / N."""
    order = k * n + l * m
    return any((a - a % order) * n < (b - b % order) * m for a, b in exponents)


def outside_cone_poly(rng, k, l, m, n, exact, terms=5, max_exp=6) -> LaurentPolynomial:
    """terms monomials bounded on the strip, at least one of them outside the ratio cone."""
    while True:
        out: dict = {}
        while len(out) < terms:
            a, b = rng.randint(-max_exp, max_exp), rng.randint(-max_exp, max_exp)
            if a * l + b * k >= 0:
                out[(a, b)] = rand_qcomplex(rng, nonzero=True) if exact else rand_complex(rng, nonzero=True)
        if outside_the_ratio_cone(out, k, l, m, n):
            return LaurentPolynomial(out)


def _exact_point(rng, domain):
    """A base point with both coordinates on the grid (Z/9)[i], off the axes."""
    while True:
        p = tuple(
            QComplex(Fraction(rng.randint(-8, 8), 9), Fraction(rng.randint(-8, 8), 9))
            for _ in range(2)
        )
        if p[0] and p[1] and domain.contains(*p):
            return p


def _float_point(rng, domain):
    """A base point with 1/64 <= |p2| < 1 and the ratio drawn across the strip."""
    k, l = domain.k, domain.l
    while True:
        r2 = rng.uniform(1 / 64, 1)
        r1 = (rng.uniform(LOWER, UPPER) * r2**l) ** (1 / k)
        p = tuple(r * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for r in (r1, r2))
        if domain.contains(*p):
            return p


@functools.cache
def corpus(exact: bool) -> list:
    """(domain, f, p) for every instance, in index order."""
    rng = random.Random(16 if exact else 17)
    out = []
    for k, l, m, n in SHAPES:
        domain = CuspDomain.strip(k, l, LOWER, UPPER, m, n, 0.0)
        for _ in range(PER_SHAPE):
            p = _exact_point(rng, domain) if exact else _float_point(rng, domain)
            out.append((domain, subtract_value_at(outside_cone_poly(rng, k, l, m, n, exact), p), p))
    return out


def _lift(z) -> QComplex:
    z = complex(z)
    return QComplex(Fraction(z.real), Fraction(z.imag))


def _lifted(f: LaurentPolynomial) -> LaurentPolynomial:
    return LaurentPolynomial({e: _lift(c) for e, c in f.terms.items()})


def test_corpus_covers_every_shape_outside_the_ratio_cone():
    for exact in (True, False):
        instances = corpus(exact)
        assert len(instances) == COUNT >= 300
        shapes = [(d.k, d.l, d.cut_m, d.cut_n) for d, _, _ in instances]
        assert shapes == [shape for shape in SHAPES for _ in range(PER_SHAPE)]
        for d, f, p in instances:
            assert outside_the_ratio_cone(f.exponents(), d.k, d.l, d.cut_m, d.cut_n)
            assert d.contains(*p)


@pytest.mark.parametrize("index", range(COUNT))
def test_exact_strip_outside_the_ratio_cone(index):
    domain, f, p = corpus(True)[index]
    report = solve(domain, f, p, samples=0).report
    assert report.residual_coeff_max == 0
    assert report.symbolic_residual_zero
    assert report.bounded_f1 and report.bounded_f2


@pytest.mark.parametrize(
    "index",
    [
        pytest.param(
            i,
            marks=pytest.mark.xfail(raises=InternalContractError, strict=True, reason=FLOAT_KNOWN[i]),
        )
        if i in FLOAT_KNOWN else i
        for i in range(COUNT)
    ],
)
def test_float_strip_outside_the_ratio_cone(index):
    domain, f, p = corpus(False)[index]
    sol = solve(domain, f, p, samples=0)
    residual = symbolic_residual(_lifted(f), _lifted(sol.f1), _lifted(sol.f2), tuple(map(_lift, p)))
    assert residual.max_norm() <= 1e-9 * (1 + f.one_norm())
    assert sol.report.bounded_f1 and sol.report.bounded_f2
