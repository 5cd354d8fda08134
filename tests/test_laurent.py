"""Sparse Laurent polynomial ring: arithmetic, evaluation, division."""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gleason import LaurentPolynomial, QComplex
from gleason.errors import EvaluationDomainError, NotDivisibleError
from gleason.laurent import PRUNE_REL, divide_univariate, shift_divide_z1
from gleason.scalars import powi

from conftest import max_coeff_distance, rand_laurent, rand_qcomplex, root_of_unity, rotate

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
coeffs = st.builds(QComplex, fracs, fracs)
exps = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polys = st.dictionaries(exps, coeffs, max_size=6).map(LaurentPolynomial)
points = st.builds(
    QComplex,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(lambda q: not q.is_zero)


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
    f = LaurentPolynomial.monomial(1, 0)
    g = f * 2 + 1
    assert g == LaurentPolynomial({(1, 0): 2, (0, 0): 1})
    assert (g - g).is_zero
    assert LaurentPolynomial({(0, 0): QComplex(2)}) == LaurentPolynomial({(0, 0): 2})


def test_norms_and_exactness():
    f = LaurentPolynomial({(0, 0): QComplex(3, 4), (1, 1): QComplex(-2)})
    assert f.one_norm() == pytest.approx(7.0)
    assert f.max_norm() == pytest.approx(5.0)
    assert f.is_exact()
    assert not (f + LaurentPolynomial.constant(0.5)).is_exact()


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


def test_split_cut_style_int_next_to_complex_keeps_its_type():
    # split_cut's running product starts at int 1; max() would return that int
    f = LaurentPolynomial({(1, 1): 1, (0, 1): 1.0 + 0j, (0, 0): 0.5j})
    assert _same_bits(f.max_norm(), 1)
    assert _same_bits((f * 2.0).max_norm(), 2.0)


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


def test_divide_univariate_rejects_nonvanishing():
    f = LaurentPolynomial({(0, 1): QComplex(1)})  # z2 at root 1/2 leaves 1/2
    with pytest.raises(NotDivisibleError) as info:
        divide_univariate(f - LaurentPolynomial.constant(QComplex(1)), QComplex(Fraction(1, 2)))
    assert info.value.residual == QComplex(Fraction(-1, 2))


def test_divide_univariate_input_checks():
    both = LaurentPolynomial({(1, 1): 1})
    with pytest.raises(ValueError):
        divide_univariate(both, 0.5)
    with pytest.raises(ValueError):
        divide_univariate(LaurentPolynomial({(1, 0): 1, (0, 0): -0.5}), 0.5)
    with pytest.raises(EvaluationDomainError):
        divide_univariate(LaurentPolynomial({(0, 1): 1}), 0)
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
    f = rand_laurent(rng, terms=7, max_exp=4, exact=True)
    p1 = rand_qcomplex(rng, nonzero=True)
    h = shift_divide_z1(f, p1)
    linear = LaurentPolynomial({(1, 0): QComplex(1), (0, 0): -p1})
    assert h * linear + f.substitute_z1(p1) == f


def test_shift_divide_z1_rejects_zero_root():
    f = LaurentPolynomial({(3, -1): 2, (1, 0): 5, (0, 2): 7})
    for zero in (0, 0j, QComplex(0)):
        with pytest.raises(EvaluationDomainError):
            shift_divide_z1(f, zero)


def test_shift_divide_z1_float_mode():
    rng = random.Random(21)
    f = rand_laurent(rng, terms=7, max_exp=4, exact=False)
    p1 = 0.3 - 0.4j
    h = shift_divide_z1(f, p1)
    rebuilt = h * LaurentPolynomial({(1, 0): 1, (0, 0): -p1}) + f.substitute_z1(p1)
    assert max_coeff_distance(rebuilt, f) < 1e-10 * (1 + f.one_norm())


def test_max_coeff_distance():
    f = LaurentPolynomial({(0, 0): 1.0, (1, 0): 2.0})
    g = LaurentPolynomial({(0, 0): 1.0, (2, 0): 0.5})
    assert max_coeff_distance(f, g) == pytest.approx(2.0)
    assert max_coeff_distance(f, f) == 0.0
