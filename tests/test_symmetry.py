"""Root-of-unity symmetrization and the interpolating correction polynomial."""

import math
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from gleason import (
    CuspDomain,
    LaurentPolynomial,
    QComplex,
    poly_bounded,
    symmetric_decompose,
)
from gleason.errors import InputError
from gleason.symmetry import correction_polynomial
from gleason.scalars import powi

from conftest import (
    averaged_component,
    built_or_none,
    max_coeff_distance,
    monomial,
    rand_bounded_poly,
    rand_complex,
    rand_laurent,
    rand_qcomplex,
    recombine,
    root_of_unity,
    rotate,
    state_or_error,
)


def test_decompose_routing_examples():
    sys2 = symmetric_decompose(monomial(1, 0), 2)
    assert sys2.components == {(1, 0): LaurentPolynomial.constant(1)}

    const = symmetric_decompose(LaurentPolynomial.constant(7), 5)
    assert const.components == {(0, 0): LaurentPolynomial.constant(7)}

    ratio = symmetric_decompose(monomial(1, -1), 2)
    assert ratio.components == {(1, 1): monomial(0, -2)}


def test_decompose_builds_only_the_classes_f_occupies():
    # a monomial at order 300 is one component, not the 90000 of the square
    assert len(symmetric_decompose(monomial(1, 0), 300).components) == 1


def test_decompose_order_validation():
    with pytest.raises(InputError):
        symmetric_decompose(LaurentPolynomial.constant(1), 0)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("exact", [True, False])
def test_reconstruction_is_exact(order, exact):
    rng = random.Random(order * 17 + exact)
    f = rand_laurent(rng, terms=10, max_exp=7, exact=exact)
    system = symmetric_decompose(f, order)
    # one nonzero component per residue class of f's exponents, in routing order
    assert list(system.components) == sorted({(a % order, b % order) for a, b in f.exponents()})
    for (i, j), comp in system.components.items():
        assert not comp.is_zero
        for a, b in comp.exponents():
            assert a % order == 0 and b % order == 0
    rebuilt = recombine(system)
    if exact:
        assert rebuilt == f
    else:
        assert max_coeff_distance(rebuilt, f) == 0.0


@pytest.mark.parametrize("order", [2, 3, 4])
def test_components_are_rotation_invariant(order):
    rng = random.Random(order)
    f = rand_laurent(rng, terms=8, exact=False)
    system = symmetric_decompose(f, order)
    for comp in system.components.values():
        assert rotate(comp, 1, 0, order) == comp
        assert rotate(comp, 0, 1, order) == comp


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_routing_matches_numeric_averaging(order):
    rng = random.Random(40 + order)
    f = rand_laurent(rng, terms=8, max_exp=5, exact=False)
    scale = 1 + f.one_norm()
    for _ in range(25):
        q1 = rand_complex(rng, nonzero=True)
        q2 = rand_complex(rng, nonzero=True)
        system = symmetric_decompose(f, order)
        for i in range(order):
            for j in range(order):
                direct = system.components.get((i, j), LaurentPolynomial.zero()).eval(q1, q2)
                averaged = averaged_component(f, order, i, j, q1, q2)
                assert abs(direct - averaged) <= 1e-10 * scale


def test_boundedness_transfers_to_components():
    for k, l in [(1, 1), (2, 1), (3, 2)]:
        domain = CuspDomain.hartogs(k, l)
        rng = random.Random(k * 10 + l)
        f = rand_bounded_poly(rng, domain, terms=12)
        order = k  # the solver's symmetrization order on this domain
        system = symmetric_decompose(f, order)
        for (i, j), comp in system.components.items():
            piece = monomial(i, j) * comp
            assert poly_bounded(domain, piece).bounded


# -- correction polynomial ----------------------------------------------------


def test_correction_order_one_is_value():
    rng = random.Random(1)
    f = rand_laurent(rng, terms=6, exact=True)
    p = (rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True))
    P = correction_polynomial(f, p, 1)
    assert P == LaurentPolynomial.constant(f.eval(*p))


def test_correction_fixes_low_degree_polynomials():
    p = (QComplex(1, 1), QComplex(2))
    assert correction_polynomial(monomial(1, 0), p, 2) == (
        monomial(1, 0)
    )


def test_correction_of_grid_vanishing_function_is_zero():
    rng = random.Random(5)
    p = (rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True))
    g = rand_laurent(rng, terms=5, max_exp=3, exact=True)
    # z1^2 - p1^2 vanishes at both grid nodes +-p1, so any multiple does
    killer = LaurentPolynomial({(2, 0): QComplex(1), (0, 0): -powi(p[0], 2)})
    assert correction_polynomial(killer * g, p, 2).is_zero


@pytest.mark.parametrize("order", [2, 3, 4])
def test_correction_interpolates_on_grid(order):
    rng = random.Random(order + 30)
    exact = order in (1, 2, 4)
    f = rand_laurent(rng, terms=8, max_exp=4, exact=exact)
    if exact:
        p = (rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True))
    else:
        p = (rand_complex(rng, nonzero=True), rand_complex(rng, nonzero=True))
    P = correction_polynomial(f, p, order)
    assert all(0 <= a < order and 0 <= b < order for a, b in P.exponents())
    zeta = root_of_unity(order)
    scale = 1 + f.one_norm()
    for s in range(order):
        for t in range(order):
            node = (powi(zeta, s) * p[0], powi(zeta, t) * p[1])
            diff = P.eval(*node) - f.eval(*node)
            if exact:
                assert diff == 0
            else:
                assert abs(diff) <= 1e-9 * scale


@pytest.mark.parametrize("order", [1, 2, 4])
def test_components_of_corrected_function_vanish_exactly(order):
    rng = random.Random(order + 60)
    f = rand_laurent(rng, terms=9, max_exp=4, exact=True)
    p = (rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True))
    P = correction_polynomial(f, p, order)
    system = symmetric_decompose(f - P, order)
    for comp in system.components.values():
        assert comp.eval(*p) == 0


def test_components_of_corrected_function_vanish_float_order_three():
    rng = random.Random(63)
    f = rand_laurent(rng, terms=9, max_exp=4, exact=False)
    p = (rand_complex(rng, nonzero=True), rand_complex(rng, nonzero=True))
    P = correction_polynomial(f, p, 3)
    scale = 1 + f.one_norm()
    for comp in symmetric_decompose(f - P, 3).components.values():
        assert abs(comp.eval(*p)) <= 1e-10 * scale


# -- empty components ------------------------------------------------------------

# few terms over a wide exponent range, so that most buckets are empty; moduli
# over 40 decades, infinities and NaN, and exact coefficients
bucket_coeffs = st.one_of(
    st.builds(lambda c, k: c * 10.0**k, st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                                          allow_infinity=False), st.integers(-20, 20)),
    st.sampled_from([complex(math.inf, 0.0), complex(math.nan, 0.0)]),
    st.builds(QComplex, st.fractions(-3, 3, max_denominator=4)),
)
# an infinity without a scale sets an infinite one, which raises, and is not drawn
bucket_polys = st.builds(
    built_or_none,
    st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), bucket_coeffs, max_size=4),
    st.one_of(st.none(), st.floats(0.0, 1e3)),
).filter(lambda f: f is not None)


def _state(f: LaurentPolynomial) -> tuple:
    """Terms in order with their coefficients' reprs, and the norm as stored."""
    return [(e, repr(c)) for e, c in f.terms.items()], repr(f._norm)


def _dense_decompose(f: LaurentPolynomial, order: int) -> dict:
    """The whole N x N square of components in routing order, each bucket
    built at |f| and an empty one the exact zero."""
    buckets: dict = {(i, j): {} for i in range(order) for j in range(order)}
    for (a, b), c in f.terms.items():
        buckets[(a % order, b % order)][(a - a % order, b - b % order)] = c
    return {
        key: LaurentPolynomial(terms, prune_scale=f.max_norm) if terms else LaurentPolynomial.zero()
        for key, terms in buckets.items()
    }


@given(bucket_polys, st.integers(1, 4))
def test_each_component_is_its_bucket_construction(f, order):
    if f.max_norm() == math.inf:
        # every bucket prunes at f's norm: an infinite one raises the float overflow
        with pytest.raises(InputError, match="float overflow"):
            symmetric_decompose(f, order)
        return
    buckets: dict = {}
    for (a, b), c in f.terms.items():
        buckets.setdefault((a % order, b % order), {})[(a - a % order, b - b % order)] = c
    built = {key: LaurentPolynomial(terms, prune_scale=f.max_norm) for key, terms in sorted(buckets.items())}
    components = symmetric_decompose(f, order).components
    # a bucket that prunes to nothing leaves no component
    assert list(components) == [key for key, comp in built.items() if not comp.is_zero]
    for key, comp in components.items():
        assert _state(comp) == _state(built[key])


@given(bucket_polys, st.integers(1, 4))
def test_components_are_the_nonzero_ones_of_the_dense_square(f, order):
    try:
        dense = _dense_decompose(f, order)
    except InputError as err:
        with pytest.raises(InputError, match=f"^{re.escape(str(err))}$"):
            symmetric_decompose(f, order)
        return
    want = [(key, _state(comp)) for key, comp in dense.items() if not comp.is_zero]
    components = symmetric_decompose(f, order).components
    assert [(key, _state(comp)) for key, comp in components.items()] == want


@given(
    bucket_polys,
    st.integers(1, 4),
    st.sampled_from([(0.5 + 0.25j, -0.75 + 0.5j), (QComplex(1, 2), QComplex(-1, 3)), (2.0, QComplex(1))]),
)
@example(LaurentPolynomial.zero(), 1, (QComplex(1, 2), QComplex(-1, 3)))
def test_correction_skips_the_empty_components(f, order, p):
    def want():
        components = symmetric_decompose(f, order).components
        return LaurentPolynomial(
            {key: comp.eval(*p) for key, comp in components.items()},
            prune_scale=lambda: f.max_norm() or 1.0,
        )

    # an infinite norm makes both raise the float overflow
    assert state_or_error(lambda: correction_polynomial(f, p, order)) == state_or_error(want)


def test_correction_prunes_a_term_its_component_would_prune():
    # f was built at scale 0, so it keeps a term 1e-15 times its own norm; the
    # component built at |f| prunes it, and so must the correction, though
    # p2^-2 lifts that term's value far above the correction's own prune
    f = LaurentPolynomial({(0, 0): 1 + 0j, (0, -1): 1e-15 + 0j}, prune_scale=0.0)
    p = (0.005 + 0j, 0.01 + 0j)
    components = symmetric_decompose(f, 2).components
    assert list(components) == [(0, 0)]
    got = correction_polynomial(f, p, 2)
    assert got.terms == {key: comp.eval(*p) for key, comp in components.items()}
