"""Sparse Laurent polynomial ring: arithmetic, evaluation, division."""

import cmath
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gleason import LaurentPolynomial, QComplex, format_poly, laurent
from gleason.errors import EvaluationDomainError, InputError
from gleason.laurent import (
    PRUNE_REL,
    divide_univariate,
    multiply_add,
    shift_divide_z1,
    subtract_linear_multiples,
)
from gleason.scalars import is_exact as scalar_is_exact, powi

from conftest import (
    chain_multiply_add,
    max_coeff_distance,
    monomial,
    rand_complex,
    rand_laurent,
    rand_qcomplex,
    root_of_unity,
    rotate,
)

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
coeffs = st.builds(QComplex, fracs, fracs)
exps = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polys = st.dictionaries(exps, coeffs, max_size=6).map(LaurentPolynomial)
points = st.builds(
    QComplex,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(bool)


def test_construction_prunes_exact_zeros():
    f = LaurentPolynomial({(1, 0): QComplex(0), (0, 1): 2})
    assert (1, 0) not in f.terms
    assert f.coefficient(0, 1) == 2
    assert len(f) == 1


def test_prune_scale_drops_float_dust():
    f = LaurentPolynomial({(0, 0): 1.0, (5, 5): 1e-16}, prune_scale=1.0)
    assert (5, 5) not in f.terms
    # without a scale nothing is dropped
    g = LaurentPolynomial({(5, 5): 1e-16})
    assert (5, 5) in g.terms
    # exact coefficients survive even under a huge scale
    h = LaurentPolynomial({(1, 1): QComplex(Fraction(1, 10**20))}, prune_scale=1.0)
    assert (1, 1) in h.terms


@given(polys, polys, points, points)
def test_eval_is_a_ring_homomorphism(f, g, q1, q2):
    fv, gv = f.eval(q1, q2), g.eval(q1, q2)
    assert (f + g).eval(q1, q2) == fv + gv
    assert (f * g).eval(q1, q2) == fv * gv
    assert (f - g).eval(q1, q2) == fv - gv


@given(polys, points, points)
def test_substitute_z1_matches_eval(f, q1, q2):
    assert f.substitute_z1(q1).eval(QComplex(1), q2) == f.eval(q1, q2)


def test_eval_at_axis_zero():
    f = LaurentPolynomial({(0, 0): 3, (2, 1): 5})
    assert f.eval(0, 0.5) == 3
    g = LaurentPolynomial({(-1, 0): 1})
    with pytest.raises(EvaluationDomainError):
        g.eval(0, 0.5)
    with pytest.raises(EvaluationDomainError):
        LaurentPolynomial({(0, -2): 1}).eval(0.5, 0)


def test_scalar_arithmetic_and_equality():
    f = monomial(1, 0)
    g = f * 2 + 1
    assert g == LaurentPolynomial({(1, 0): 2, (0, 0): 1})
    assert (g - g).is_zero
    assert LaurentPolynomial({(0, 0): QComplex(2)}) == LaurentPolynomial({(0, 0): 2})
    assert LaurentPolynomial({(1, 0): 1}) != LaurentPolynomial({(0, 1): 1})


def test_norms_and_exactness():
    f = LaurentPolynomial({(0, 0): QComplex(3, 4), (1, 1): QComplex(-2)})
    assert f.one_norm() == pytest.approx(7.0)
    assert f.max_norm() == pytest.approx(5.0)
    assert f.is_exact()
    assert not (f + LaurentPolynomial.constant(0.5)).is_exact()


def test_is_exact_agrees_with_the_scalar_test():
    # an int or Fraction coefficient is exact, as scalars.is_exact says
    assert monomial(1, 0).is_exact()
    assert monomial(1, 0, Fraction(1, 3)).is_exact()
    assert LaurentPolynomial.zero().is_exact()
    assert not monomial(1, 0, 1.0).is_exact()
    assert not LaurentPolynomial({(0, 0): QComplex(1), (1, 0): 0.5j}).is_exact()


# int, Fraction, QComplex, float and complex coefficients in any mixture
any_coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.builds(QComplex, st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    st.floats(-3.0, 3.0),
    st.complex_numbers(max_magnitude=3.0),
)


@given(st.dictionaries(exps, any_coeffs, max_size=6), st.one_of(st.none(), st.floats(0.0, 10.0)))
def test_every_polynomial_has_one_coefficient_kind(terms, scale):
    f = LaurentPolynomial(terms, prune_scale=scale)
    floating = any(isinstance(c, (float, complex)) for c in terms.values())
    kinds = {type(c) for c in f.terms.values()}
    assert kinds <= ({complex} if floating else {QComplex})
    assert f.is_exact() == (not floating or f.is_zero)
    # values survive the conversion; only floating dust below the scale goes
    for exp, c in f.terms.items():
        assert c == (complex(terms[exp]) if floating else terms[exp])
    if not floating:
        assert f.terms.keys() == {e for e, c in terms.items() if c}


# -- the exact multiply-accumulate kernel ---------------------------------------

# small values over a few exponents, so that sums collide and often cancel;
# mixed denominators, plus plain int and Fraction coefficients
small_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=6)
exact_coeffs = st.one_of(
    st.builds(QComplex, small_fracs, small_fracs),
    st.integers(-2, 2),
    small_fracs,
)
small_exps = st.tuples(st.integers(-2, 2), st.integers(-1, 1))
exact_polys = st.dictionaries(small_exps, exact_coeffs, max_size=5).map(LaurentPolynomial)
qcomplex_polys = st.dictionaries(
    small_exps, st.builds(QComplex, small_fracs, small_fracs), max_size=5
).map(LaurentPolynomial)
float_polys = st.dictionaries(
    small_exps, st.one_of(st.complex_numbers(max_magnitude=4.0), exact_coeffs), max_size=5
).map(LaurentPolynomial)


def _typed_terms(terms) -> list:
    """Terms in order, each with its coefficient's type: equal lists mean
    equal values, types and order."""
    return [(exp, type(c), c) for exp, c in terms.items()]


@given(st.one_of(exact_polys, float_polys), st.one_of(exact_polys, float_polys))
def test_kernel_dispatch_is_the_exactness_test(g, h):
    # the exact kernel builds QComplex coefficients, the floating one complex
    kinds = {type(c) for c in multiply_add(g, [(g, h)]).terms.values()}
    assert kinds <= ({QComplex} if g.is_exact() and h.is_exact() else {complex})


@given(exact_polys, exact_polys)
def test_exact_product_matches_the_dict_loop(g, h):
    expected = chain_multiply_add(LaurentPolynomial.zero(), [(g, h)])
    assert _typed_terms((g * h).terms) == _typed_terms(expected)


@given(exact_polys, st.lists(st.tuples(exact_polys, exact_polys), max_size=3))
def test_multiply_add_matches_the_dict_loop(base, products):
    # int and Fraction coefficients are QComplex by construction, so every
    # term product is a QComplex, as in the dict loop
    expected = chain_multiply_add(base, products)
    assert _typed_terms(multiply_add(base, products).terms) == _typed_terms(expected)


plain_polys = st.dictionaries(
    small_exps, st.one_of(st.integers(-2, 2), small_fracs), max_size=5
).map(LaurentPolynomial)


@given(plain_polys, st.lists(st.tuples(plain_polys, plain_polys), max_size=3))
def test_multiply_add_keeps_plain_rationals_plain(base, products):
    # int and Fraction operands run the exact kernel and stay real rationals
    got = multiply_add(base, products)
    expected = chain_multiply_add(base, products)
    assert _typed_terms(got.terms) == _typed_terms(expected)
    assert got.is_exact()
    assert all(c.im == 0 for c in got.terms.values())


@given(qcomplex_polys, qcomplex_polys, qcomplex_polys)
def test_multiply_add_cancels_to_zero(g, h, k):
    # base = g*h + g*k, plus both products negated, cancels term by term
    base = multiply_add(LaurentPolynomial.zero(), [(g, h), (g, k)])
    back = multiply_add(base, [(g, -1 * h), (g, -1 * k)])
    assert back.is_zero
    assert multiply_add(g * h, [(g, -1 * h)]).is_zero


def test_multiply_add_appends_an_exponent_that_cancels_and_comes_back():
    # the chain drops (0, 0) after the first product and appends it after the second
    one = LaurentPolynomial.constant(QComplex(1))
    base = LaurentPolynomial({(0, 0): QComplex(1), (1, 0): QComplex(1)})
    got = multiply_add(base, [(one, -1 * one), (one, 2 * one)])
    assert list(got.terms.items()) == [((1, 0), QComplex(1)), ((0, 0), QComplex(2))]


@given(float_polys, float_polys, float_polys)
# an exact pair in a floating call: (5/3 i)^2 rounds differently from -25/9
@example(
    LaurentPolynomial.constant(1.0),
    LaurentPolynomial.constant(QComplex(0, Fraction(5, 3))),
    LaurentPolynomial.constant(QComplex(0, Fraction(5, 3))),
)
def test_multiply_add_on_floats_is_the_operator_chain(base, g, h):
    got = multiply_add(base, [(g, h), (h, g)])
    if not all(q.is_exact() for q in (base, g, h)):
        # the floating kernel reads every operand as complex, also an exact
        # base or an exact pair, which the chain would keep exact
        base, g, h = (
            LaurentPolynomial({e: complex(c) for e, c in q.terms.items()}, prune_scale=0.0)
            for q in (base, g, h)
        )
    chained = base + g * h + h * g
    assert _typed_terms(got.terms) == _typed_terms(chained.terms)


# -- the floating multiply-accumulate kernel ------------------------------------

# moduli from 1e-20 to 1e20 over few exponents: products and sums collide, and
# the product prune and the rescan after a rising sum threshold drop terms in
# about a fifth and a third of the draws; PRUNE_RULE_CASES below pin each rule
# with a case that fails when it is skipped
wide_floats = st.builds(
    lambda re, im, k: complex(re, im) * 10.0**k,
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.integers(-20, 20),
)
wide_polys = st.dictionaries(small_exps, wide_floats, max_size=5).map(LaurentPolynomial)
# a second factor without a float draw is exact: the kernel reads it as complex
second_factors = st.dictionaries(
    small_exps, st.one_of(wide_floats, st.integers(-2, 2), st.builds(QComplex, small_fracs)), max_size=3
).map(LaurentPolynomial)


def _operator_chain(base, products):
    acc = base
    for g, h in products:
        acc = acc + g * h
    return acc


def _bits(f: LaurentPolynomial) -> tuple:
    """Terms in order with coefficient reprs, and the max norm's repr: equal
    tuples mean equal bits, signed zeros and order."""
    return [(exp, repr(c)) for exp, c in f.terms.items()], repr(f.max_norm())


@settings(max_examples=400)
@given(
    wide_polys,
    st.lists(st.tuples(wide_polys, second_factors), max_size=5),
    st.booleans(),
)
@example(LaurentPolynomial.zero(), [(LaurentPolynomial.zero(), monomial(1, 0))], False)
@example(
    LaurentPolynomial({(0, 0): 1e-3j}),
    [(LaurentPolynomial.constant(2.0 + 1j), monomial(1, 0, QComplex(1, 2)))],
    True,
)
# an empty product first: the sum's lower bound of the kept moduli must still
# fall to the tiny term, so that the last product's threshold prunes it
@example(
    LaurentPolynomial.zero(),
    [
        (LaurentPolynomial.zero(), LaurentPolynomial.zero()),
        (LaurentPolynomial({(0, 1): 2.958609463763052e-277j}), LaurentPolynomial.constant(1)),
        (LaurentPolynomial({(0, 0): 1j}), LaurentPolynomial.constant(1)),
    ],
    False,
)
def test_float_multiply_add_is_the_operator_chain_bit_for_bit(base, products, cancel):
    if cancel and products:
        # the first product again with the other sign: its terms cancel to exactly 0
        g, h = products[0]
        products = products + [(g, -1 * h)]
    got = multiply_add(base, products)
    assert _bits(got) == _bits(_operator_chain(base, products))


def _poly(*terms) -> LaurentPolynomial:
    return LaurentPolynomial({(a, 0): complex(c) for a, c in terms})


ONE = _poly((0, 1.0))

# one case per pruning rule of the chain; each (exponent, coefficient) comes
# out as the chain leaves it, and differently if the kernel skipped that rule
PRUNE_RULE_CASES = {
    # 2e-14 * 0.1 is below the product's threshold 1e-14 * |g| * |h| and is
    # dropped there, so it never reaches the 1e-10 it would otherwise change
    "product": (
        _poly((0, 1.0), (6, 1e-10)),
        [(_poly((0, 1.0), (1, 2e-14)), _poly((0, 1.0), (5, 0.1)))],
        (6, 1e-10),
    ),
    # an empty product still prunes the sum: after the first product |acc| = 2,
    # and the 1.5e-14 that passed 1e-14 * max(1, 1) fails 1e-14 * max(2, 0)
    "empty product": (
        _poly((0, 1.0), (3, 1.5e-14)),
        [(ONE, ONE), (LaurentPolynomial.zero(), ONE)],
        (3, None),
    ),
    # the second product misses (3, 0), but the sum threshold rises from
    # 1e-14 * max(1, 1) to 1e-14 * max(2, 10), the product's norm, and drops it
    "rising threshold": (
        _poly((0, 1.0), (3, 3e-14)),
        [(ONE, ONE), (_poly((1, 10.0)), ONE)],
        (3, None),
    ),
}


@pytest.mark.parametrize("case", PRUNE_RULE_CASES.values(), ids=PRUNE_RULE_CASES.keys())
def test_float_multiply_add_prunes_where_the_chain_prunes(case):
    base, products, (a, coefficient) = case
    got = multiply_add(base, products)
    assert _bits(got) == _bits(_operator_chain(base, products))
    if coefficient is None:
        assert (a, 0) not in got.terms
        assert (a, 0) in multiply_add(base, products[:-1]).terms
    else:
        assert got.terms[(a, 0)] == coefficient


# (1 + z)^2 = 1 + 2z + z^2 has norm 2 > |g| * |h| = 1, and a term
# 2e-14 * scale sits below, at or above 1e-14 of the product's max, 2
def _wide_square(scale: float) -> list:
    g = _poly((0, 1.0), (1, 1.0))
    return [(g, _poly((0, 1.0), (1, 1.0), (5, PRUNE_REL * 2.0 * scale)))]


NAN = complex(math.nan, 0.0)
PRODUCT_SIZE_CASES = {
    "smallest below 1e-14 of max": _wide_square(math.nextafter(1.0, 0.0)),
    "smallest at 1e-14 of max": _wide_square(1.0),
    "smallest above 1e-14 of max": _wide_square(math.nextafter(1.0, 2.0)),
    # min() and max() of [nan, ...] are NaN and of [..., nan] are not, and
    # the product's factor norm follows g's carried norm the same way
    "NaN first": [(LaurentPolynomial({(0, 0): NAN, (1, 0): 1.0 + 0j, (2, 0): 1e-20 + 0j}, prune_scale=0.0), ONE)],
    "NaN later": [(LaurentPolynomial({(1, 0): 1.0 + 0j, (2, 0): 1e-20 + 0j, (0, 0): NAN}, prune_scale=0.0), ONE)],
    "NaN later, nothing pruned": [(LaurentPolynomial({(1, 0): 1.0 + 0j, (0, 0): NAN}, prune_scale=0.0), ONE)],
}


# "subtract" subtracts each product as a caller of the kernel does, through a
# negated factor
@pytest.mark.parametrize("subtract", [True, False], ids=["subtract", "add"])
@pytest.mark.parametrize("products", PRODUCT_SIZE_CASES.values(), ids=PRODUCT_SIZE_CASES.keys())
def test_float_sum_reads_a_product_s_sizes_as_the_chain(products, subtract):
    base = _poly((0, 1.0), (2, 1e-6), (5, 1e-10))
    if subtract:
        products = [(g, -1 * h) for g, h in products]
    got = multiply_add(base, products)
    want = _operator_chain(base, products)
    assert _bits(got) == _bits(want) and repr(got._norm) == repr(want._norm)


def test_float_sum_size_cases_reach_each_branch():
    # the (5, 0) term passes the product's prune at 1e-14 * |g| * |h| = 1e-14
    # below, at and above 1e-14 of the product's max, and reaches the base's 1e-10
    base = _poly((0, 1.0), (5, 1e-10))
    for key in ("below", "at", "above"):
        products = PRODUCT_SIZE_CASES[f"smallest {key} 1e-14 of max"]
        assert multiply_add(base, products).terms[(5, 0)] != 1e-10
    # with NaN first nothing is pruned and the 1e-20 term reaches the base's
    # 1e-6; later, it goes at 1e-14 * |g| * |h|
    base = _poly((0, 1.0), (2, 1e-6))
    assert multiply_add(base, PRODUCT_SIZE_CASES["NaN first"]).terms[(2, 0)] != 1e-6
    assert multiply_add(base, PRODUCT_SIZE_CASES["NaN later"]).terms[(2, 0)] == 1e-6


# -- the certified floating residual and the flat products -------------------------

# infinities and NaN beside the wide floats: a floating map keeps them at a
# fixed prune scale (built without one, an infinity sets an infinite scale,
# which raises)
nonfinite = st.sampled_from(
    [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0), complex(1.0, math.nan)]
)
edge_polys = st.dictionaries(
    small_exps, st.one_of(wide_floats, nonfinite), max_size=4
).map(lambda terms: LaurentPolynomial(terms, prune_scale=1.0))
residual_factors = st.one_of(wide_polys, edge_polys, exact_polys)
# zeros of either sign, moduli at and beside 1e-14 and 1e14, where the operator
# chain's z - root pruned the root or z itself, the subnormal minimum,
# infinities and NaN, and exact roots of every scalar type
edge_roots = st.sampled_from(
    [0.0, -0.0, 0j, complex(-0.0, -0.0), 5e-324, PRUNE_REL, math.nextafter(PRUNE_REL, 1.0),
     3e-15j, 1e14, math.nextafter(1e14, 0.0), complex(0.0, 2e15), math.inf, complex(0.0, -math.inf),
     math.nan, complex(math.nan, 1.0), 0, 3, Fraction(-1, 3), QComplex(0), QComplex(1, -2)]
)
roots = st.one_of(edge_roots, wide_floats, st.builds(QComplex, small_fracs, small_fracs))
U = 2.0**-53


def _lifted(c) -> QComplex:
    """The Gaussian rational a scalar stands for; a non-finite float raises."""
    if isinstance(c, QComplex):
        return c
    if isinstance(c, (int, Fraction)):
        return QComplex(c)
    return QComplex(c.real, c.imag)


def _exact_residual(f, f1, f2, p) -> tuple:
    """({exponent: exact coefficient}, {exponent: float sum of the summands'
    moduli}) of f - f1*(z1-p1) - f2*(z2-p2), by a dict loop over the lifted
    operands."""
    out: dict = {}
    mass: dict = {}

    def add(exp, c):
        out[exp] = out.get(exp, QComplex(0)) + c
        mass[exp] = mass.get(exp, 0.0) + abs(complex(c))

    for exp, c in f.terms.items():
        add(exp, _lifted(c))
    for g, (i, j), root in ((f1, (1, 0), p[0]), (f2, (0, 1), p[1])):
        for (a, b), c in g.terms.items():
            add((a + i, b + j), -_lifted(c))
            if root:
                add((a, b), _lifted(root) * _lifted(c))
    return out, mass


def _finite(*values) -> bool:
    return all(cmath.isfinite(complex(v)) for v in values if not isinstance(v, QComplex))


tols = st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3])


@settings(max_examples=400)
@given(residual_factors, residual_factors, residual_factors, roots, roots, tols, st.integers(-1, 8))
# the axis branch: p1 = 0 skips the root, beside float f2
@example(
    LaurentPolynomial({(0, 1): 1.5 + 0j}),
    LaurentPolynomial({(0, 0): 2.0 - 1j}),
    LaurentPolynomial({(0, 0): 1.5 + 0j}),
    0j,
    0.5 + 0.25j,
    1e-9,
    -1,
)
# an infinite coefficient: its exponents cannot be lifted and fail
@example(
    LaurentPolynomial.zero(),
    LaurentPolynomial({(0, 0): complex(math.inf, 0.0)}, prune_scale=1.0),
    LaurentPolynomial.zero(),
    0.5,
    QComplex(1, 2),
    1.0,
    -1,
)
def test_float_residual_is_certified_against_the_exact_residual(f, f1, f2, p1, p2, tol, pick):
    # pick >= 0 sets tol to the float modulus of one exact coefficient, which
    # straddles it within its rounding bound and so takes the exact fallback
    parts = [(f1, (1, 0), p1), (f2, (0, 1), p2)]
    operands = [c for g in (f, f1, f2) for c in g.terms.values()] + [p1, p2]
    if all(isinstance(c, (int, Fraction, QComplex)) for c in operands):
        got = subtract_linear_multiples(f, parts, tol)
        exact, _ = _exact_residual(f, f1, f2, (p1, p2))
        assert dict(got.terms) == {e: c for e, c in exact.items() if c}
        return
    # a non-finite coefficient, or root of a nonzero factor, reaches some
    # residual coefficient, which fails
    if not _finite(*[c for g in (f, f1, f2) for c in g.terms.values()]) or any(
        g.terms and not _finite(root) for g, _, root in parts
    ):
        got = subtract_linear_multiples(f, parts, tol)
        assert not all(abs(c) <= tol for c in got.terms.values())
        return
    exact, mass = _exact_residual(f, f1, f2, (p1, p2))
    if pick >= 0 and exact:
        r = list(exact.values())[pick % len(exact)]
        tol = math.sqrt(float(r.abs2()))
    got = subtract_linear_multiples(f, parts, tol)
    assert all(type(c) is complex for c in got.terms.values())
    within = all(r.abs2() <= Fraction(tol) ** 2 for r in exact.values())
    assert all(abs(c) <= tol for c in got.terms.values()) == within
    for exp, r in exact.items():
        bound = 12 * U * mass[exp] + 2.0**-1069
        if exp in got.terms:
            # the float sum, or the exact value moved by an ulp or two
            assert abs(got.terms[exp] - complex(r)) <= bound + 4 * U * abs(complex(r))
        else:
            # dropped only when certified within tol, at most its rounding bound
            assert r.abs2() <= Fraction(tol) ** 2
            assert abs(complex(r)) <= 2 * bound


def _two_map_residual(base, parts, tol):
    """The floating pass of subtract_linear_multiples as it was written with
    two maps, one of float sums and one of the sums of moduli."""
    acc = {exp: complex(c) for exp, c in base.terms.items()}
    mass = {exp: abs(c) for exp, c in acc.items()}
    get, size = acc.get, mass.get
    for g, (i, j), root in parts:
        z = complex(root)
        for (a, b), c in laurent._as_complex(g).terms.items():
            exp = (a + i, b + j)
            acc[exp] = get(exp, 0) - c
            mass[exp] = size(exp, 0.0) + abs(c)
            if root:
                t, exp = z * c, (a, b)
                acc[exp] = get(exp, 0) + t
                mass[exp] = size(exp, 0.0) + abs(t)
    out = {}
    for exp, r in acc.items():
        m, bound = abs(r), laurent._ROUNDING_REL * mass[exp] + laurent._UNDERFLOW
        if m - bound > tol or m + bound <= tol and m > bound:
            out[exp] = r
        elif not m + bound <= tol:
            out[exp] = laurent._exact_coefficient(exp, base, parts, tol, r)
    return LaurentPolynomial(out, prune_scale=0.0)


@settings(max_examples=400)
@given(residual_factors, residual_factors, residual_factors, roots, roots, tols)
def test_float_residual_is_the_two_map_pass(f, f1, f2, p1, p2, tol):
    parts = [(f1, (1, 0), p1), (f2, (0, 1), p2)]
    assume(not (f.is_exact() and all(g.is_exact() and scalar_is_exact(r) for g, _, r in parts)))
    got = _outcome(lambda: subtract_linear_multiples(f, parts, tol))
    assert got == _outcome(lambda: _two_map_residual(f, parts, tol))


def _counted_exact_coefficients(monkeypatch) -> list:
    """Record every _exact_coefficient call, from either pass."""
    calls = []
    exact_coefficient = laurent._exact_coefficient

    def counted(*args):
        calls.append(args[0])
        return exact_coefficient(*args)

    monkeypatch.setattr(laurent, "_exact_coefficient", counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", ["floating", "exact_base", "empty_f1", "empty_f2", "empty_f"])
def test_float_residual_is_the_two_map_pass_on_seeded_identities(case, seed, monkeypatch):
    # f = f1*(z1-p1) + f2*(z2-p2) formed in float, so that every residual
    # coefficient is rounding noise; tol at the float modulus of one of them
    # straddles it, which takes the exact recomputation
    rng = random.Random(f"{case}{seed}")
    p = (rand_complex(rng, nonzero=True), rand_complex(rng, nonzero=True))
    f1 = LaurentPolynomial.zero() if case == "empty_f1" else rand_laurent(rng, terms=4, max_exp=3)
    f2 = LaurentPolynomial.zero() if case == "empty_f2" else rand_laurent(rng, terms=4, max_exp=3)
    if case == "empty_f":
        f = LaurentPolynomial.zero()
    else:
        f = f1 * LaurentPolynomial({(1, 0): 1.0, (0, 0): -p[0]}) + f2 * LaurentPolynomial({(0, 1): 1.0, (0, 0): -p[1]})
    if case == "exact_base":  # base terms read through complex(c)
        f = LaurentPolynomial({e: QComplex(c.real, c.imag) for e, c in f.terms.items()})
        assert f.is_exact()
    parts = [(f1, (1, 0), p[0]), (f2, (0, 1), p[1])]
    calls = _counted_exact_coefficients(monkeypatch)
    noise = _two_map_residual(f, parts, 0.0)
    straddled = 0
    for tol in [0.0, 1e-9, *sorted(abs(c) for c in noise.terms.values())[:3]]:
        del calls[:]
        want = _two_map_residual(f, parts, tol)
        recomputed = len(calls)
        got = subtract_linear_multiples(f, parts, tol)
        assert _bits(got) == _bits(want)
        assert len(calls) == 2 * recomputed
        straddled += recomputed
    assert straddled > 0


@pytest.mark.parametrize("root", [PRUNE_REL, math.nextafter(PRUNE_REL, 1.0), 1e14, 0.0])
def test_float_residual_linear_factor_at_its_prune_boundaries(root):
    # the operator chain's z1 - p1 dropped the root at |p1| <= 1e-14 * max(1, |p1|)
    # and z1 itself at |p1| >= 1e14; the certified residual drops neither
    f1 = LaurentPolynomial.constant(1.0)
    got = subtract_linear_multiples(LaurentPolynomial.zero(), [(f1, (1, 0), root)], 1e-9)
    want = {(1, 0): -1 + 0j, **({(0, 0): complex(root)} if root else {})}
    assert dict(got.terms) == want


def _outcome(compute):
    """_bits of the result, or the class and message of the exception raised."""
    try:
        return _bits(compute())
    except (ArithmeticError, ValueError, InputError) as err:
        return type(err).__name__, str(err)


one_term = st.dictionaries(small_exps, st.one_of(wide_floats, nonfinite), min_size=1, max_size=1)
few_terms = st.dictionaries(small_exps, st.one_of(wide_floats, nonfinite), max_size=4)


def _factor(terms) -> LaurentPolynomial:
    return LaurentPolynomial(terms, prune_scale=1.0)


one_term_pairs = st.one_of(st.tuples(few_terms, one_term), st.tuples(one_term, few_terms))


@given(few_terms, st.lists(one_term_pairs, max_size=4))
def test_one_term_products_are_the_operator_chain_bit_for_bit(base, products):
    # one-term factors on either side, as V1 and V2 are, and infinite or NaN
    # coefficients, which the chain's products turn into NaN parts, or whose
    # infinite norms make both raise the float overflow
    products = [(_factor(g), _factor(h)) for g, h in products]
    base = _factor(base)
    got = _outcome(lambda: multiply_add(base, products))
    assert got == _outcome(lambda: _operator_chain(base, products))



# -- the floating kernel's carried extremes ------------------------------------------


def _rescanning_kept(terms: dict, sizes: dict, threshold: float) -> tuple:
    if sizes and not min(sizes.values()) > threshold:
        sizes = {e: s for e, s in sizes.items() if not (s == 0 or s <= threshold)}
        terms = {e: terms[e] for e in sizes}
    return terms, sizes


def _rescanning_float_sum(base: LaurentPolynomial, products: list) -> LaurentPolynomial:
    """The floating kernel before it carried its extremes: the max norm is
    rescanned with max() after every product that changes the map, and the
    threshold pass scans every size whenever the sum threshold rises."""
    acc = dict(base._terms)
    sizes = {exp: abs(c) for exp, c in acc.items()}
    norm, last = base.max_norm(), float("nan")
    for prod, factor_norm in products:
        prod_norm = 0.0
        if prod:
            moduli = list(map(abs, prod.values()))
            low, prod_norm = min(moduli), max(moduli)
            floor = laurent._prune_threshold(factor_norm)
            if not low > floor:
                prod, kept = _rescanning_kept(prod, dict(zip(prod, moduli)), floor)
                prod_norm = max(kept.values()) if kept else 0.0
        threshold = laurent._prune_threshold(prod_norm if prod_norm > norm else norm)
        for exp, c in prod.items():
            c = acc.get(exp, 0) + c
            if (size := abs(c)) == 0 or size <= threshold:
                if exp in sizes:
                    del acc[exp], sizes[exp]
            else:
                acc[exp], sizes[exp] = c, size
        if not threshold <= last:
            acc, sizes = _rescanning_kept(acc, sizes, threshold)
        elif not prod:
            continue
        last = threshold
        norm = max(sizes.values()) if sizes else 0.0
    return laurent._wrap(acc, norm)


def _kernel_outcome(kernel, base, products):
    """Terms in order with their coefficients' bits and the carried norm's bits,
    or the class and message of the exception raised."""
    try:
        f = kernel(base, products)
    except InputError as err:
        return type(err).__name__, str(err)
    bits = [(e, struct.pack("<dd", c.real, c.imag)) for e, c in f._terms.items()]
    return bits, struct.pack("<d", f._norm)


def _assert_kernel_is_the_rescanning_one(base, products):
    got = _kernel_outcome(laurent._float_sum, base, products)
    assert got == _kernel_outcome(_rescanning_float_sum, base, products)
    return got


def _product(terms: dict, factor_norm: float) -> tuple:
    return {e: complex(c) for e, c in terms.items()}, factor_norm


# raw product maps with their own factor norms, exact zeros among the terms, and
# products formed as multiply_add forms them
raw_products = st.tuples(
    st.dictionaries(small_exps, st.one_of(wide_floats, nonfinite, st.just(0j)), max_size=4),
    st.one_of(st.floats(0.0, 1e25), st.sampled_from([0.0, math.inf, math.nan])),
)
def _formed_product(g: dict, h: dict) -> tuple:
    g, h = _factor(g), _factor(h)
    prod = laurent._term_products(g._terms, h._terms)
    return prod, (g.max_norm() * h.max_norm() if prod else 0.0)


formed_products = st.builds(_formed_product, few_terms, few_terms)


@settings(max_examples=400)
@given(few_terms, st.lists(st.one_of(raw_products, formed_products), max_size=6))
def test_float_sum_is_the_rescanning_kernel_bit_for_bit(base, products):
    _assert_kernel_is_the_rescanning_one(_factor(base), products)


NAN_ = complex(math.nan, 0.0)
# one case per path of the carried extremes; each expected norm is the one the
# rescanning kernel reaches, and a kernel that skips the path reaches another
CARRIED_EXTREME_CASES = {
    # the entry that holds the max falls to 0.1, so the max is rescanned
    "max entry lowered": (_poly((0, 1.0), (1, 0.5), (2, 0.25)), [_product({(0, 0): -0.9}, 1.0)], 0.5),
    "max entry cancelled": (_poly((0, 1.0), (1, 0.5)), [_product({(0, 0): -1.0}, 1.0)], 0.5),
    "max entry pruned": (_poly((0, 1.0), (1, 0.5)), [_product({(0, 0): -1.0 + 1e-15}, 1.0)], 0.5),
    # the second product is 1e14 times the accumulator: the threshold rises to
    # 1, and its pass deletes the old max 1 and the 2e-3 the bound has seen
    "product 1e14 times the accumulator": (
        _poly((0, 1.0), (1, 1e-3)),
        [_product({(1, 0): 1e-3}, 1e-3), _product({(2, 0): 1e14}, 1e14)],
        1e14,
    ),
    # a NaN after the first entry: the max is 5 until the first entry goes,
    # and then max() reads the NaN first
    "NaN in the base": (
        LaurentPolynomial({(0, 0): 1.0 + 0j, (1, 0): NAN_, (2, 0): 5.0 + 0j}, prune_scale=1.0),
        [_product({(0, 0): -1.0}, 1.0)],
        math.nan,
    ),
    "NaN from a product": (
        _poly((0, 1.0)),
        [_product({(1, 0): NAN_}, 1.0), _product({(2, 0): 5.0}, 5.0), _product({(0, 0): -1.0}, 1.0)],
        math.nan,
    ),
    # min() and max() of the product's moduli read its NaN first, so the
    # infinite term is stored and becomes the max
    "inf size": (_poly((0, 1.0)), [_product({(1, 0): NAN_, (2, 0): math.inf}, 1.0)], math.inf),
    "inf size, then a product": (
        _poly((0, 1.0)),
        [_product({(1, 0): NAN_, (2, 0): math.inf}, 1.0), _product({(0, 0): 1.0}, 1.0)],
        None,
    ),
    # the bound falls to 2e-13 on the first pass; the term rises to 0.5, so
    # the next rise finds the bound stale, rescans it and deletes nothing;
    # then 2e-12 lowers it, and the last rise deletes that term
    "stale and lowered bound": (
        _poly((0, 1.0)),
        [
            _product({(1, 0): 2e-13}, 1.0),
            _product({(1, 0): 0.5}, 1.0),
            _product({(2, 0): 100.0}, 100.0),
            _product({(3, 0): 2e-12}, 1.0),
            _product({(2, 0): 1000.0}, 1000.0),
        ],
        1100.0,
    ),
    # the empty first product's pass leaves no moduli, so the bound is inf,
    # above the carried max 0; the 3e-277 term must lower it, or the last
    # rise skips its pass and keeps that term
    "bound after an empty pass": (
        LaurentPolynomial.zero(),
        [({}, 0.0), _product({(0, 1): 2.958609463763052e-277j}, 2.958609463763052e-277), _product({(0, 0): 1j}, 1.0)],
        1.0,
    ),
}


@pytest.mark.parametrize("base, products, norm", CARRIED_EXTREME_CASES.values(), ids=CARRIED_EXTREME_CASES.keys())
def test_float_sum_carried_extremes_take_each_path(base, products, norm):
    got = _assert_kernel_is_the_rescanning_one(base, products)
    if norm is None:
        assert got == ("InputError", "float overflow: a coefficient scale is out of the float range")
    else:
        carried = struct.unpack("<d", got[1])[0]
        assert math.isnan(carried) if math.isnan(norm) else carried == norm


# float coefficients over many magnitudes, so that pruning happens, plus NaN
float_coeffs = st.one_of(
    st.builds(
        lambda c, k: c * 10.0**k,
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.integers(-30, 30),
    ),
    st.just(complex(math.nan, 0.0)),
)
mixed_coeffs = st.one_of(float_coeffs, coeffs, st.just(1))
scales = st.one_of(st.floats(0.0, 1e30), st.just(math.nan))
norm_polys = st.dictionaries(exps, st.one_of(float_coeffs, coeffs, mixed_coeffs), max_size=6)


def _same_bits(x, y) -> bool:
    return type(x) is type(y) and struct.pack("<d", x) == struct.pack("<d", y)


def _assert_norm_carried(f: LaurentPolynomial) -> None:
    expected = max((abs(c) for c in f.terms.values()), default=0.0)
    assert _same_bits(f.max_norm(), expected)


@given(norm_polys, norm_polys, scales, mixed_coeffs, st.sampled_from([0.5 - 0.25j, QComplex(2, -1), 3]))
def test_carried_max_norm_is_the_max_of_the_moduli(terms, other, scale, scalar, value):
    built = [
        LaurentPolynomial(terms),
        LaurentPolynomial(terms, prune_scale=scale),
        LaurentPolynomial(terms, prune_scale=lambda: scale),
    ]
    g = LaurentPolynomial(other)
    for f in built:
        _assert_norm_carried(f)
        for h in (f + g, f - g, g - f, -f, f * g, f * scalar, scalar * f, f.substitute_z1(value)):
            _assert_norm_carried(h)


def test_nan_first_carries_nan_like_max():
    f = LaurentPolynomial({(0, 0): complex(math.nan, 0.0), (1, 0): 2.0 + 0j})
    assert math.isnan(f.max_norm())
    g = LaurentPolynomial({(1, 0): 2.0 + 0j, (0, 0): complex(math.nan, 0.0)})
    assert g.max_norm() == 2.0


@pytest.mark.parametrize("scale", [1.0, 3.0, 7.5e8])
def test_prune_boundary_is_inclusive(scale):
    at = PRUNE_REL * scale
    above = math.nextafter(at, math.inf)
    terms = {(0, 0): complex(at), (1, 0): complex(above)}
    for prune_scale in (scale, lambda: scale):
        f = LaurentPolynomial(terms, prune_scale=prune_scale)
        assert dict(f.terms) == {(1, 0): complex(above)}
        assert f.max_norm() == above
    # with no scale given, the largest floating coefficient is the scale
    f = LaurentPolynomial({(2, 0): complex(scale), **terms})
    assert dict(f.terms) == {(2, 0): complex(scale), (1, 0): complex(above)}
    assert f.max_norm() == scale


def test_one_norm_adds_left_to_right():
    # compensated summation would give 1e16 + 2; left to right each 1.0 is lost
    f = LaurentPolynomial({(0, 0): 1e16, (1, 0): 1.0, (2, 0): 1.0}, prune_scale=1.0)
    assert len(f) == 3
    assert f.one_norm() == 1e16


@pytest.mark.parametrize("order,exact", [(1, True), (2, True), (4, True), (3, False)])
def test_rotate_matches_rotated_evaluation(order, exact):
    rng = random.Random(order)
    f = rand_laurent(rng, terms=6, max_exp=4, exact=True)
    zeta = root_of_unity(order)
    q1, q2 = rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True)
    for s in range(order):
        for t in range(order):
            lhs = rotate(f, s, t, order).eval(q1, q2)
            rhs = f.eval(powi(zeta, s) * q1, powi(zeta, t) * q2)
            if exact:
                assert lhs == rhs
            else:
                assert complex(lhs) == pytest.approx(complex(rhs), rel=1e-9, abs=1e-9)


def test_rotate_full_turn_is_identity():
    rng = random.Random(7)
    f = rand_laurent(rng, terms=5, exact=True)
    assert rotate(f, 3, 3, 3) == f


# -- univariate division ------------------------------------------------------


# ids name the division variable (z2) and the seed
@pytest.mark.parametrize("seed", [1, 3], ids=["2-1", "2-3"])
def test_divide_univariate_reexpands_exactly(seed):
    rng = random.Random(seed)
    q = LaurentPolynomial({(0, rng.randint(-4, 4)): rand_qcomplex(rng) for _ in range(5)})
    root = rand_qcomplex(rng, nonzero=True)
    linear = LaurentPolynomial({(0, 1): QComplex(1), (0, 0): -root})
    assert divide_univariate(q * linear, root) == q


def test_divide_univariate_float_tolerance():
    rng = random.Random(11)
    q = LaurentPolynomial({(0, d): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for d in range(-2, 3)})
    root = 0.7 + 0.2j
    f = q * LaurentPolynomial({(0, 1): 1, (0, 0): -root})
    got = divide_univariate(f, root)
    assert max_coeff_distance(got, q) < 1e-12 * (1 + q.max_norm())


def test_divide_univariate_of_zero_is_zero():
    assert divide_univariate(LaurentPolynomial.zero(), 0.5).is_zero


def test_divide_univariate_clears_poles():
    # (z2 - r) * z2^-3 has exponents -3..-2; quotient must be z2^-3
    root = QComplex(Fraction(2, 3))
    f = LaurentPolynomial({(0, -2): QComplex(1), (0, -3): -root})
    assert divide_univariate(f, root) == LaurentPolynomial({(0, -3): QComplex(1)})


# -- shift division in z1 -----------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_shift_divide_z1_reexpands(seed):
    rng = random.Random(seed)
    f = monomial(4, 0) * rand_laurent(rng, terms=7, max_exp=4, exact=True)  # no z1 pole
    p1 = rand_qcomplex(rng, nonzero=True)
    h = shift_divide_z1(f, p1)
    linear = LaurentPolynomial({(1, 0): QComplex(1), (0, 0): -p1})
    assert h * linear + f.substitute_z1(p1) == f


def test_shift_divide_z1_float_mode():
    rng = random.Random(21)
    f = monomial(4, 0) * rand_laurent(rng, terms=7, max_exp=4, exact=False)  # no z1 pole
    p1 = 0.3 - 0.4j
    h = shift_divide_z1(f, p1)
    rebuilt = h * LaurentPolynomial({(1, 0): 1, (0, 0): -p1}) + f.substitute_z1(p1)
    assert max_coeff_distance(rebuilt, f) < 1e-10 * (1 + f.one_norm())


def test_max_coeff_distance():
    f = LaurentPolynomial({(0, 0): 1.0, (1, 0): 2.0})
    g = LaurentPolynomial({(0, 0): 1.0, (2, 0): 0.5})
    assert max_coeff_distance(f, g) == pytest.approx(2.0)
    assert max_coeff_distance(f, f) == 0.0


def test_text_and_comparison_of_a_monomial():
    f = LaurentPolynomial({(1, 0): 1})
    assert str(f) == "z1"
    assert (f == 3) is False
    assert format_poly(1 - f) == "-z1 + 1"
