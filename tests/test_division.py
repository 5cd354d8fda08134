"""Change of variables to ratio/cut monomials and the division kernels."""

import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gleason import (
    CuspDomain,
    LaurentPolynomial,
    QComplex,
    parse_poly,
    poly_bounded,
)
from gleason import division
from gleason.division import (
    MonomialPair,
    ratio_cut_point,
    split_component,
    split_cut,
    split_polynomial,
    split_ratio,
)
from gleason.errors import GleasonError, InputError, InternalContractError
from gleason.laurent import PRUNE_REL, _linear_quotient, _relabelled
from gleason.scalars import negligible, powi

from conftest import (
    built_or_none,
    fiber_values,
    max_coeff_distance,
    monomial,
    monomial_bounded,
    rand_laurent,
    rand_qcomplex,
    rand_symmetric_component,
    state_or_error,
    to_ratio_cut,
)

PARAM_TUPLES = [(1, 1, 0, 1), (2, 1, 0, 1), (1, 2, 0, 1), (3, 2, 0, 1), (2, 3, 0, 1), (1, 1, 1, 1)]


def _exact_point(rng):
    return (rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True))


def test_monomial_pair_validation_and_order():
    assert MonomialPair(2, 1).order == 2
    assert MonomialPair(2, 3, 1, 1).order == 5
    assert MonomialPair(1, 1, 0, 1).order == 1
    # the domain whose pair it is validates the exponents
    for k, l, m, n in [(0, 1, 0, 1), (1, 0, 0, 1), (1, 1, -1, 1), (1, 1, 0, 0)]:
        with pytest.raises(InputError):
            CuspDomain.strip(k, l, 0.5, 2.0, m, n, 0.0)


def test_fiber_data_values():
    # at p = (2, 3) the ratio monomial z1^2 z2^-1 is 4/3 and the cut z1 z2 is 6;
    # split_component divides u^3 - u(p)^3 and v^3 - v(p)^3 by those values
    pair = MonomialPair(2, 1, 1, 1)  # order 3
    p = (QComplex(2), QComplex(3))
    u_p, v_p = QComplex(4) / 3, QComplex(6)
    ratio_cubed = LaurentPolynomial({(6, -3): QComplex(1), (0, 0): -(u_p**3)})
    g1, g2 = split_component(0, 0, ratio_cubed, pair, ratio_cut_point(pair, p))
    assert g1 == LaurentPolynomial({(4, -2): QComplex(1), (2, -1): u_p, (0, 0): u_p**2})
    assert g2.is_zero
    cut_cubed = LaurentPolynomial({(3, 3): QComplex(1), (0, 0): -(v_p**3)})
    g1, g2 = split_component(0, 0, cut_cubed, pair, ratio_cut_point(pair, p))
    assert g1.is_zero
    assert g2 == LaurentPolynomial({(2, 2): QComplex(1), (1, 1): v_p, (0, 0): v_p**2})


def test_to_ratio_cut_examples():
    pair = MonomialPair(1, 1, 0, 1)  # order 1
    form = to_ratio_cut(monomial(1, -1), pair)
    assert dict(form.terms) == {(1, 0): 1}
    form = to_ratio_cut(monomial(1, 1), pair)
    assert dict(form.terms) == {(1, 2): 1}
    form = to_ratio_cut(LaurentPolynomial.constant(5), pair)
    assert dict(form.terms) == {(0, 0): 5}


def test_to_ratio_cut_rejects_bad_exponents():
    # an exponent off the symmetry lattice breaks the caller's routing
    with pytest.raises(InternalContractError):
        to_ratio_cut(monomial(1, 0), MonomialPair(2, 1, 0, 1))


def test_to_ratio_cut_relabels_negative_ratio_exponents():
    # z1^-1 = u^-1 v^-1 for u = z1/z2, v = z2; z2^2 = u^-1 v for v = z1*z2
    assert dict(to_ratio_cut(monomial(-1, 0), MonomialPair(1, 1, 0, 1)).terms) == {(-1, -1): 1}
    assert dict(to_ratio_cut(monomial(0, 2), MonomialPair(1, 1, 1, 1)).terms) == {(-1, 1): 1}


@pytest.mark.parametrize("k,l,m,n", PARAM_TUPLES)
def test_round_trip_through_ratio_cut(k, l, m, n):
    rng = random.Random(k * 100 + l * 10 + m + n)
    pair = MonomialPair(k, l, m, n)
    for _ in range(20):
        f = rand_symmetric_component(rng, k, l, m, n, terms=6, exact=True)
        form = to_ratio_cut(f, pair)
        assert all(alpha >= 0 for alpha, _ in form.terms)
        assert _from_ratio_cut(form, pair) == f
    # note: arbitrary (alpha, beta) maps land in a lattice of index order,
    # not order^2, so the reverse round trip only holds for images like the
    # ones above; starting from random forms would hit the divisibility check


def _outside_cone_component(rng, pair: MonomialPair, terms: int = 6, max_unit: int = 4) -> LaurentPolynomial:
    """Exact component bounded on a strip, exponents in (N*Z)^2 with a*l + b*k >= 0,
    at least one of them with a negative ratio exponent a*n - b*m."""
    order = pair.order
    while True:
        out: dict = {}
        while len(out) < terms:
            a, b = order * rng.randint(-max_unit, max_unit), order * rng.randint(-max_unit, max_unit)
            if a * pair.l + b * pair.k >= 0:
                out[(a, b)] = rand_qcomplex(rng, nonzero=True)
        if any(a * pair.n < b * pair.m for a, b in out):
            return LaurentPolynomial(out)


@pytest.mark.parametrize("k,l,m,n", PARAM_TUPLES)
def test_round_trip_through_ratio_cut_outside_the_cone(k, l, m, n):
    rng = random.Random(k * 1000 + l * 100 + m * 10 + n)
    pair = MonomialPair(k, l, m, n)
    for _ in range(20):
        f = _outside_cone_component(rng, pair)
        form = to_ratio_cut(f, pair)
        assert any(alpha < 0 for alpha, _ in form.terms)
        assert _from_ratio_cut(form, pair) == f


# -- the relabels' prunes ------------------------------------------------------------


def _state(f: LaurentPolynomial) -> tuple:
    """Terms in order with their coefficients' reprs, and the norm as stored."""
    return [(e, repr(c)) for e, c in f.terms.items()], repr(f._norm)


def _ratio_cut_map(terms: dict, pair: MonomialPair) -> dict:
    """A map in z-exponents (a, b) divisible by the order, keyed in (ratio, cut) ones."""
    order = pair.order
    return {((a * pair.n - b * pair.m) // order, (a * pair.l + b * pair.k) // order): c for (a, b), c in terms.items()}


def _z_map(terms: dict, pair: MonomialPair, shift: tuple = (0, 0)) -> dict:
    """A map in (ratio, cut) exponents keyed in z-exponents, times z1^i z2^j for shift (i, j)."""
    i, j = shift
    return {(a * pair.k + b * pair.m + i, -a * pair.l + b * pair.n + j): c for (a, b), c in terms.items()}


def _from_ratio_cut(g: LaurentPolynomial, pair: MonomialPair, shift: tuple = (0, 0)) -> LaurentPolynomial:
    """A (u, v) form back in z-exponents, times z1^i z2^j for shift (i, j).

    u^alpha v^beta = z1^(alpha*k + beta*m) z2^(-alpha*l + beta*n).  An exact g
    is relabelled as it is; a floating g is built again at its norm, so the
    prune at PRUNE_REL * |g|, after the one g was built with, may drop terms.
    split_component's parts are its (u, v) quotients relabelled so.
    """
    return LaurentPolynomial(_z_map(g.terms, pair, shift), prune_scale=g.max_norm)


# moduli over 40 decades, infinities and NaN, and exact coefficients; built at
# a prune scale below their own, so that the relabels' prunes at the norm drop
# terms, or at NaN, which prunes nothing; an infinity without a scale sets an
# infinite one, which raises, and is not drawn
relabel_coeffs = st.one_of(
    st.builds(lambda c, k: c * 10.0**k, st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                                          allow_infinity=False), st.integers(-20, 20)),
    st.sampled_from([complex(math.inf, 0.0), complex(math.nan, 0.0), complex(1.0, -math.inf)]),
    st.builds(QComplex, st.fractions(-3, 3, max_denominator=4)),
)
relabel_scales = st.one_of(st.none(), st.floats(0.0, 1e3), st.just(math.nan))
relabel_pairs = st.sampled_from([MonomialPair(1, 1, 0, 1), MonomialPair(2, 1, 0, 1), MonomialPair(3, 2, 0, 1)])


@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-2, 2)), relabel_coeffs, max_size=5),
    relabel_scales,
    relabel_pairs,
)
def test_to_ratio_cut_prunes_as_its_construction(exponents, scale, pair):
    order = pair.order
    terms = {(order * a, order * b): c for (a, b), c in exponents.items()}
    f = built_or_none(terms, scale)
    assume(f is not None)
    # f built at scale and relabelled is the relabelled map built by the one
    # relabel builder; an infinite norm makes either prune raise the float overflow
    got = state_or_error(lambda: to_ratio_cut(f, pair))
    assert got == state_or_error(lambda: _relabelled(_ratio_cut_map(terms, pair), scale))


@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-2, 2)), relabel_coeffs, max_size=5),
    relabel_scales,
    relabel_pairs,
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_from_ratio_cut_prunes_as_a_second_construction(terms, scale, pair, shift):
    g = built_or_none(terms, scale)
    assume(g is not None)
    got = state_or_error(lambda: _from_ratio_cut(g, pair, shift))
    assert got == state_or_error(lambda: _relabelled(_z_map(terms, pair, shift), scale))


@pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
def test_relabels_prune_at_the_boundary(step):
    # built at scale 1, g keeps a term beside PRUNE_REL * |g|; a relabel's
    # prune at |g| drops it iff it sits at or below that threshold
    at = PRUNE_REL * 4.0
    x = complex({-1: math.nextafter(at, 0.0), 0: at, 1: math.nextafter(at, 1.0)}[step])
    pair = MonomialPair(2, 1, 0, 1)
    f_terms, g_terms = {(0, 0): 4.0 + 0j, (2, 0): x}, {(0, 0): 4.0 + 0j, (1, 0): x}
    f, g = LaurentPolynomial(f_terms, prune_scale=1.0), LaurentPolynomial(g_terms, prune_scale=1.0)
    assert len(f) == len(g) == 2
    form = to_ratio_cut(f, pair)
    assert _state(form) == _state(_relabelled(_ratio_cut_map(f_terms, pair), 1.0))
    assert (len(form) == 2) == (step > 0)
    back = _from_ratio_cut(g, pair, (1, 0))
    assert _state(back) == _state(_relabelled(_z_map(g_terms, pair, (1, 0)), 1.0))
    assert (len(back) == 2) == (step > 0)


def test_project_to_fiber_examples():
    pair = MonomialPair(1, 1, 0, 1)
    p = (QComplex(1, 1), QComplex(2))
    u_p, _ = fiber_values(pair, p)
    g = LaurentPolynomial({(1, 0): QComplex(1)})
    assert dict(g.substitute_z1(u_p).terms) == {(0, 0): u_p}
    g = LaurentPolynomial({(1, 1): QComplex(1)})
    assert dict(g.substitute_z1(u_p).terms) == {(0, 1): u_p}


def test_project_to_fiber_collapses_ratio_direction():
    rng = random.Random(8)
    pair = MonomialPair(2, 1, 0, 1)
    p = _exact_point(rng)
    u_p, v_p = fiber_values(pair, p)
    g = to_ratio_cut(rand_symmetric_component(rng, 2, 1, 0, 1, terms=8, exact=True), pair)
    proj = g.substitute_z1(u_p)
    assert all(alpha == 0 for alpha, _ in proj.terms)
    # substituting the ratio value is evaluation along the fiber
    value = sum(c * powi(v_p, beta) for (_, beta), c in proj.terms.items())
    f = _from_ratio_cut(g, pair)
    assert f.eval(*p) == value


# -- split_ratio --------------------------------------------------------------


def test_split_ratio_frozen_forms():
    p = (QComplex(1, 2), QComplex(3))
    r1, r2 = split_ratio(1, 1, p)
    assert r1 == LaurentPolynomial.constant(QComplex(1) / QComplex(3))
    assert r2 == LaurentPolynomial({(1, -1): QComplex(-1) / QComplex(3)})
    r1, r2 = split_ratio(2, 1, p)
    third = QComplex(1) / QComplex(3)
    assert r1 == LaurentPolynomial({(1, 0): third, (0, 0): QComplex(1, 2) * third})
    assert r2 == LaurentPolynomial({(2, -1): -third})


@pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
def test_split_ratio_identity_and_cone(k, l):
    rng = random.Random(k * 7 + l)
    domain = CuspDomain.hartogs(k, l)
    for _ in range(10):
        p = _exact_point(rng)
        r1, r2 = split_ratio(k, l, p)
        lin1 = LaurentPolynomial({(1, 0): QComplex(1), (0, 0): -p[0]})
        lin2 = LaurentPolynomial({(0, 1): QComplex(1), (0, 0): -p[1]})
        ratio_value = powi(p[0], k) * powi(p[1], -l)
        target = LaurentPolynomial({(k, -l): QComplex(1), (0, 0): -ratio_value})
        assert r1 * lin1 + r2 * lin2 == target
        assert poly_bounded(domain, r1).bounded
        assert poly_bounded(domain, r2).bounded


# -- split_cut ----------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (2, 3), (3, 1)])
def test_split_cut_identity_and_exponents(m, n):
    rng = random.Random(m * 11 + n)
    for _ in range(10):
        p = _exact_point(rng)
        v1, v2 = split_cut(m, n, p)
        lin1 = LaurentPolynomial({(1, 0): QComplex(1), (0, 0): -p[0]})
        lin2 = LaurentPolynomial({(0, 1): QComplex(1), (0, 0): -p[1]})
        cut = LaurentPolynomial({(m, n): QComplex(1), (0, 0): -powi(p[0], m) * powi(p[1], n)})
        assert v1 * lin1 + v2 * lin2 == cut
        assert all(a >= 0 and b >= 0 for a, b in [*v1.exponents(), *v2.exponents()])
        # the closed form is the split that peels the z1 dependence first
        assert (v1, v2) == split_polynomial(cut, p)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (2, 3)])
@pytest.mark.parametrize(
    "p, kind",
    [((0.5 + 0.25j, 0.75 - 0.5j), complex), ((0.5, 0.75), complex), ((QComplex(1, 2), QComplex(3)), QComplex)],
    ids=["complex", "float", "exact"],
)
def test_splits_take_the_kind_of_the_base_point(m, n, p, kind):
    # the float kernel then meets no exact operand to convert, V2 = 1 included
    lin1 = monomial(1, 0) - LaurentPolynomial.constant(p[0])
    for part in (*split_ratio(2, 1, p), *split_cut(m, n, p), lin1):
        assert {type(c) for c in part.terms.values()} <= {kind}
        assert part.is_exact() == (kind is QComplex or part.is_zero)  # V1 = 0 when m = 0


# -- split_polynomial ---------------------------------------------------------


def test_split_polynomial_examples():
    p = (QComplex(1, -1), QComplex(2))
    lin2 = LaurentPolynomial({(0, 1): QComplex(1), (0, 0): -p[1]})
    assert split_polynomial(lin2, p) == (LaurentPolynomial.zero(), LaurentPolynomial.constant(QComplex(1)))

    prod = LaurentPolynomial({(1, 1): QComplex(1), (0, 0): -p[0] * p[1]})
    p1_part, p2_part = split_polynomial(prod, p)
    assert p1_part == monomial(0, 1)
    assert p2_part == LaurentPolynomial.constant(p[0])

    lin1 = LaurentPolynomial({(1, 0): QComplex(1), (0, 0): -p[0]})
    assert split_polynomial(lin1, p) == (LaurentPolynomial.constant(QComplex(1)), LaurentPolynomial.zero())


@pytest.mark.parametrize("seed", range(8))
def test_split_polynomial_reexpands(seed):
    rng = random.Random(seed)
    p = _exact_point(rng)
    # polynomial in z1, Laurent in z2, forced to vanish at p
    raw = {(rng.randint(0, 5), rng.randint(-4, 4)): rand_qcomplex(rng) for _ in range(7)}
    h = LaurentPolynomial(raw)
    P = h - LaurentPolynomial.constant(h.eval(*p))
    p1_part, p2_part = split_polynomial(P, p)
    lin1 = LaurentPolynomial({(1, 0): QComplex(1), (0, 0): -p[0]})
    lin2 = LaurentPolynomial({(0, 1): QComplex(1), (0, 0): -p[1]})
    assert p1_part * lin1 + p2_part * lin2 == P


def test_split_polynomial_float_mode():
    rng = random.Random(77)
    p = (0.4 + 0.1j, 0.6 - 0.2j)
    raw = {(rng.randint(0, 4), rng.randint(-3, 3)): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)}
    h = LaurentPolynomial(raw)
    P = h - LaurentPolynomial.constant(h.eval(*p))
    p1_part, p2_part = split_polynomial(P, p)
    lin1 = LaurentPolynomial({(1, 0): 1, (0, 0): -p[0]})
    lin2 = LaurentPolynomial({(0, 1): 1, (0, 0): -p[1]})
    rebuilt = p1_part * lin1 + p2_part * lin2
    assert max_coeff_distance(rebuilt, P) <= 1e-10 * (1 + P.one_norm())


# -- split_component ----------------------------------------------------------


def _linear_factors(pair: MonomialPair, p: tuple):
    u_p, v_p = fiber_values(pair, p)
    one = QComplex(1) if isinstance(u_p, QComplex) else 1.0
    ratio_lin = LaurentPolynomial({(pair.k, -pair.l): one, (0, 0): -u_p})
    cut_lin = LaurentPolynomial({(pair.m, pair.n): one, (0, 0): -v_p})
    return ratio_lin, cut_lin


def test_split_component_examples():
    pair = MonomialPair(1, 1, 0, 1)
    rng = random.Random(2)
    p = _exact_point(rng)
    ratio_lin, cut_lin = _linear_factors(pair, p)

    f1, f2 = split_component(0, 0, ratio_lin, pair, ratio_cut_point(pair, p))
    assert f1 == LaurentPolynomial.constant(QComplex(1)) and f2.is_zero

    f1, f2 = split_component(0, 0, cut_lin, pair, ratio_cut_point(pair, p))
    assert f1.is_zero and f2 == LaurentPolynomial.constant(QComplex(1))

    f1, f2 = split_component(0, 0, ratio_lin * cut_lin, pair, ratio_cut_point(pair, p))
    assert f1 == cut_lin and f2.is_zero


@pytest.mark.parametrize("k,l,m,n", PARAM_TUPLES)
def test_split_component_reexpands_and_stays_in_cone(k, l, m, n):
    rng = random.Random(k * 31 + l * 7 + m * 3 + n)
    pair = MonomialPair(k, l, m, n)
    order = pair.order
    strip = CuspDomain.strip(k, l, 0.5, 2.0, m, n, 0.0)
    for _ in range(20):
        p = _exact_point(rng)
        i, j = rng.randrange(order), rng.randrange(order)
        h = rand_symmetric_component(rng, k, l, m, n, terms=6, exact=True)
        comp = h - LaurentPolynomial.constant(h.eval(*p))
        f1, f2 = split_component(i, j, comp, pair, ratio_cut_point(pair, p))
        ratio_lin, cut_lin = _linear_factors(pair, p)
        target = monomial(i, j) * comp
        assert f1 * ratio_lin + f2 * cut_lin == target
        for out in (f1, f2):
            for a, b in out.exponents():
                assert a * l + b * k >= 0
                assert monomial_bounded(strip, a, b)
            if (m, n) == (0, 1):
                assert poly_bounded(CuspDomain.hartogs(k, l), out).bounded


def test_split_component_detects_nonvanishing_input():
    pair = MonomialPair(1, 1, 0, 1)
    p = (QComplex(1), QComplex(2))
    with pytest.raises(InternalContractError):
        split_component(0, 0, LaurentPolynomial.constant(QComplex(1)), pair, ratio_cut_point(pair, p))


def test_split_component_float_mode():
    rng = random.Random(91)
    pair = MonomialPair(2, 1, 0, 1)
    p = (0.3 + 0.2j, 0.8 - 0.1j)
    h = rand_symmetric_component(rng, 2, 1, 0, 1, terms=6, exact=False)
    comp = h - LaurentPolynomial.constant(h.eval(*p))
    f1, f2 = split_component(1, 0, comp, pair, ratio_cut_point(pair, p))
    ratio_lin, cut_lin = _linear_factors(pair, p)
    rebuilt = f1 * ratio_lin + f2 * cut_lin
    target = monomial(1, 0) * comp
    assert max_coeff_distance(rebuilt, target) <= 1e-10 * (1 + comp.one_norm())


# -- split_component against the (u, v) chain ------------------------------------


def _chain_split_component(i, j, comp, pair, uv):
    """split_component as it was built: each quotient as a (u, v) form,
    LaurentPolynomial(..., prune_scale=...) in (ratio, cut) exponents, then
    relabelled to z-exponents by _from_ratio_cut."""
    u_p, v_p = uv
    g = to_ratio_cut(comp, pair)
    g_proj = g.substitute_z1(u_p)
    slices: dict = {}
    for (alpha, beta), c in g.terms.items():
        slices.setdefault(beta, {})[alpha] = c
    ratio_terms: dict = {}
    for beta, sl in slices.items():
        sl[0] = sl.get(0, 0) - g_proj.coefficient(0, beta)
        quotient, _rem = _linear_quotient(sl, u_p, g.is_exact())
        for alpha, c in quotient.items():
            ratio_terms[(alpha, beta)] = c
    part_ratio = LaurentPolynomial(ratio_terms, prune_scale=g.max_norm)
    quotient, rem = _linear_quotient({beta: c for (_, beta), c in g_proj.terms.items()}, v_p, g_proj.is_exact())
    if not negligible(rem, lambda: max(g_proj.one_norm(), comp.one_norm())):
        raise InternalContractError("fiber projection does not vanish at the base point")
    part_cut = LaurentPolynomial({(0, beta): c for beta, c in quotient.items()}, prune_scale=g_proj.max_norm)
    return _from_ratio_cut(part_ratio, pair, (i, j)), _from_ratio_cut(part_cut, pair, (i, j))


def _split_outcome(split, *args):
    """_state of both parts, or the class and message of the exception raised."""
    try:
        return [_state(part) for part in split(*args)]
    except (GleasonError, ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)


split_pairs = st.sampled_from(
    [MonomialPair(1, 1, 0, 1), MonomialPair(2, 1, 0, 1), MonomialPair(3, 2, 0, 1), MonomialPair(1, 1, 1, 1)]
)
# moduli over 40 decades, so that the parts' prunes at |g| and at their own
# norms drop terms; exact coefficients; and points of either kind whose ratio
# and cut values spread over many decades
split_coeffs = st.one_of(
    st.builds(lambda c, k: c * 10.0**k, st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                                          allow_infinity=False), st.integers(-20, 20)),
    st.builds(QComplex, st.fractions(-3, 3, max_denominator=4)),
)
split_points = st.one_of(
    st.tuples(*[st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(1e-3, 1e3), st.floats(0, 6.3))] * 2),
    st.tuples(*[st.builds(QComplex, st.fractions(-3, 3, max_denominator=5).filter(bool),
                          st.fractions(-3, 3, max_denominator=5))] * 2),
)


@settings(max_examples=300)
@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-2, 2)), split_coeffs, min_size=1, max_size=5),
    split_pairs,
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    split_points,
    st.booleans(),
)
def test_split_component_is_the_ratio_cut_chain(units, pair, shift, p, vanish):
    order = pair.order
    # exponents in (N*Z)^2, with negative ratio exponents a*n - b*m for the cut z1*z2
    h = LaurentPolynomial({(order * a, order * b): c for (a, b), c in units.items()})
    comp = h - LaurentPolynomial.constant(h.eval(*p)) if vanish else h
    args = (*shift, comp, pair, ratio_cut_point(pair, p))
    assert _split_outcome(split_component, *args) == _split_outcome(_chain_split_component, *args)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_split_component_parts_of_exact_zeros_are_exact_zeros(exact):
    # comp in the cut alone leaves the ratio quotients empty, and a constant
    # fiber projection leaves the cut quotient empty: both parts are the
    # exact zero, never a floating one
    pair = MonomialPair(2, 1, 0, 1)
    p = (QComplex(1, 2), QComplex(3)) if exact else (0.3 + 0.2j, 0.8 - 0.1j)
    uv = ratio_cut_point(pair, p)
    one = QComplex(1) if exact else 1.0 + 0j
    cut_lin = LaurentPolynomial({(0, 2): one, (0, 0): -uv[1] ** 2})  # v^2 - v(p)^2
    g1, g2 = split_component(1, 0, cut_lin, pair, uv)
    assert g1.is_zero and g1._norm is None
    assert [_state(g1), _state(g2)] == [_state(part) for part in _chain_split_component(1, 0, cut_lin, pair, uv)]
    zero = LaurentPolynomial({(0, 0): one - one})
    for part in split_component(0, 1, zero, pair, uv):
        assert part.is_zero and part._norm is None


@pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("part", ["ratio", "cut"])
def test_split_component_parts_prune_at_the_boundary(step, part):
    # u = z1/z2 and v = z2; a quotient term x comes out exactly, beside
    # PRUNE_REL * 4, where 4 is the scale its part is built at (|g| for the
    # ratio part, |g_proj| for the cut part), while x survives every prune
    # before: it stays iff it sits above that threshold
    x = {-1: math.nextafter(PRUNE_REL * 4.0, 0.0), 0: PRUNE_REL * 4.0,
         1: math.nextafter(PRUNE_REL * 4.0, 1.0)}[step]
    pair = MonomialPair(1, 1, 0, 1)
    if part == "ratio":
        # u(p) = 1/4; g = 4u - 1 + v(-4x u^2 + 2x u), |g| = 4, so the ratio
        # quotient of the v-slice is -4x u + (2x - x)
        p, comp = (0.25 + 0j, 1.0 + 0j), {(1, -1): 4.0, (0, 0): -1.0, (2, -1): -4 * x, (1, 0): 2 * x}
    else:
        # u(p) = 2, v(p) = 1; g = -2uv + x v^2 + 2u, |g| = 2, so the fiber
        # projection -4v + x v^2 + 4 has norm 4 and its quotient is
        # x v + (x - 4), whose norm, below 4, prunes no more
        p, comp = (2.0 + 0j, 1.0 + 0j), {(1, 0): -2.0, (0, 2): x, (1, -1): 2.0}
    comp = LaurentPolynomial({e: complex(c) for e, c in comp.items()})
    args = (0, 0, comp, pair, ratio_cut_point(pair, p))
    got, want = split_component(*args), _chain_split_component(*args)
    assert [_state(g) for g in got] == [_state(g) for g in want]
    assert ((0, 1) in got[part == "cut"].terms) == (step > 0)


@pytest.mark.parametrize("x, kept", [(1e-12, False), (1e-10, True)])
def test_split_component_ratio_part_prunes_at_its_own_norm(x, kept):
    # u(p) = 32, v(p) = 1; g = u^3 - 32 u^2 v + x u v^2 has |g| = 32, its
    # ratio quotient 1024 + 32u + u^2 - (1024 + 32u) v + x v^2 has norm 1024
    # and its fiber projection norm 32768.  Built at |g|, the part keeps x;
    # the prune at its own norm then drops 1e-12 and keeps 1e-10, which a
    # part built at |g_proj| would drop too
    pair = MonomialPair(1, 1, 0, 1)
    comp = LaurentPolynomial({(3, -3): 1.0 + 0j, (2, -1): -32.0 + 0j, (1, 1): complex(x)})
    args = (0, 0, comp, pair, ratio_cut_point(pair, (32.0 + 0j, 1.0 + 0j)))
    got, want = split_component(*args), _chain_split_component(*args)
    assert [_state(g) for g in got] == [_state(g) for g in want]
    assert got[0].max_norm() == 1024.0
    assert ((0, 2) in got[0].terms) == kept


# -- split_component against the chain, on seeded and edge components ------------


def _assert_split_matches(i, j, comp, pair, uv):
    """split_component and the chain give the same terms in order and carried
    norms, or raise the same exception class with the same message; returns
    that outcome."""
    got = _split_outcome(split_component, i, j, comp, pair, uv)
    assert got == _split_outcome(_chain_split_component, i, j, comp, pair, uv)
    return got


def _seeded_point(rng, pair: MonomialPair, exact: bool):
    """A base point off the axes: exact, or floating with |p2| over eight
    decades and |p1| = r |p2|^(l/k), as deep in the cusp as the benchmark."""
    if exact:
        return _exact_point(rng)
    r2 = 10.0 ** rng.uniform(-8, -0.1)
    r1 = rng.uniform(0.1, 0.9) * r2 ** (pair.l / pair.k)
    return tuple(r * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for r in (r1, r2))


SEEDED_SPLIT_PAIRS = [
    # the full cusp domain's pairs at orders 1 to 6, cut by z2
    *[MonomialPair(k, l) for k in range(1, 7) for l in (1, 2, 5)],
    # strips cut by z1*z2
    *[MonomialPair(k, l, 1, 1) for k, l in [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (5, 1)]],
]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("pair", SEEDED_SPLIT_PAIRS, ids=lambda q: f"{q.k}{q.l}{q.m}{q.n}")
def test_split_component_is_the_chain_on_seeded_components(pair, exact):
    rng = random.Random(f"{pair.k}{pair.l}{pair.m}{pair.n}{exact}")
    order = pair.order
    outcomes = []
    for _ in range(12):
        p = _seeded_point(rng, pair, exact)
        if pair.m:  # negative ratio exponents too: the strip's cone is wider
            h = _outside_cone_component(rng, pair, terms=rng.randint(1, 5), max_unit=2)
            if not exact:
                h = LaurentPolynomial({e: complex(c) * 10.0 ** rng.randint(-6, 6) for e, c in h.terms.items()})
        else:
            h = rand_symmetric_component(rng, pair.k, pair.l, 0, 1, terms=rng.randint(1, 5),
                                         max_unit=2, exact=exact)
        comp = h - LaurentPolynomial.constant(h.eval(*p))
        shift = rng.randrange(order), rng.randrange(order)
        outcomes.append(_assert_split_matches(*shift, comp, pair, ratio_cut_point(pair, p)))
    # seeded components vanish at p; most split, and a float one whose
    # projection's remainder grows past the vanishing test raises in both forms
    assert sum(isinstance(outcome, list) for outcome in outcomes) >= (12 if exact else 10)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_split_component_fiber_check_fails_as_the_chain(exact):
    pair = MonomialPair(2, 1, 1, 1)
    p = (QComplex(1, 2), QComplex(3)) if exact else (0.3 + 0.2j, 0.8 - 0.1j)
    rng = random.Random(5)
    h = rand_symmetric_component(rng, 2, 1, 1, 1, terms=4, exact=exact)
    got = _assert_split_matches(1, 2, h + LaurentPolynomial.constant(h.eval(*p) + 1), pair,
                                ratio_cut_point(pair, p))
    assert got == ("InternalContractError", "fiber projection does not vanish at the base point")


def test_split_component_relabel_drop_is_the_chain():
    # built at scale 1e-3, comp keeps 1e-15 * z1^2, below PRUNE_REL * |comp| = 4e-14:
    # the relabel to (u, v) drops it and g's norm is that of the terms it keeps
    pair = MonomialPair(2, 1)
    p = (0.3 + 0.2j, 0.8 - 0.1j)
    h = {(2, 0): 1e-15 + 0j, (0, 2): 4.0 + 0j, (2, 2): 2.5 - 1j}
    value = LaurentPolynomial(h, prune_scale=1e-3).eval(*p)
    comp = LaurentPolynomial({**h, (0, 0): -value}, prune_scale=1e-3)
    assert len(comp) == 4 and len(to_ratio_cut(comp, pair)) == 3
    got = _assert_split_matches(1, 0, comp, pair, ratio_cut_point(pair, p))
    assert isinstance(got, list)
    # at an infinite norm the relabel's prune raises the float overflow
    huge = LaurentPolynomial({(2, 0): complex(math.inf, 0.0), (0, 0): 1.0 + 0j}, prune_scale=1.0)
    assert _assert_split_matches(0, 0, huge, pair, ratio_cut_point(pair, p)) == (
        "InputError", "float overflow: a coefficient scale is out of the float range")


def test_split_component_keeps_every_term_of_an_exact_comp_with_a_norm():
    # parse_poly asks for max_norm(), so this exact comp carries a norm; its
    # terms z1 and -z2 sit 15 decades below it and must survive the relabel,
    # as no exact term is pruned.  comp = (u - 1)(1e15 + v) for u = z1/z2, v = z2
    pair = MonomialPair(1, 1)
    comp = parse_poly("1000000000000000*z1*z2^-1 - 1000000000000000 + z1 - z2", True)
    assert comp.is_exact() and comp._norm == 1e15
    p = (QComplex(1), QComplex(1))
    uv = ratio_cut_point(pair, p)
    g1, g2 = split_component(0, 0, comp, pair, uv)
    assert _assert_split_matches(0, 0, comp, pair, uv) == [_state(g1), _state(g2)]
    ratio_lin, cut_lin = _linear_factors(pair, p)
    assert g1 * ratio_lin + g2 * cut_lin == comp


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_split_component_at_an_underflowed_ratio_value(exact):
    # u(p) = 0, as a float u(p) underflows deep in the cusp: u^alpha vanishes
    # for alpha > 0, and a negative alpha raises as substitute_z1 does
    pair = MonomialPair(1, 1, 1, 1)
    one = QComplex(1) if exact else 1.0 + 0j
    uv = (0 * one, 2 * one)
    outside = LaurentPolynomial({(2, 0): one, (0, 2): -one, (-2, 2): one})  # u v - u^-1 v + u^-2
    assert _assert_split_matches(0, 0, outside, pair, uv) == (
        "EvaluationDomainError", "negative z1-exponent evaluated at z1 = 0")
    inside = LaurentPolynomial({(2, 0): one, (2, 2): one, (0, 0): -4 * one})  # u v + v^2 - 4
    assert isinstance(_assert_split_matches(1, 0, inside, pair, uv), list)



# -- the fiber verdict and the parts' relabel --------------------------------------

# comp = 1 - 2 z2 + (1 + d) z2^2 for MonomialPair(1, 1) at p = (1, 1), where
# u = z1/z2 and v = z2 are 1: the fiber remainder is comp(p) ~ d, against
# 1e-9 |comp|_inf = 2e-9 and 1e-9 max(|fiber|_1, |comp|_1) ~ 4e-9
FIBER_VERDICT_CASES = {
    "within the carried norm": (1e-12, False, True),
    "within the one-norms only": (3e-9, True, True),
    "beyond both": (5e-9, True, False),
}


@pytest.mark.parametrize("d, slow, passes", FIBER_VERDICT_CASES.values(), ids=FIBER_VERDICT_CASES.keys())
def test_fiber_verdict_reads_the_one_norms_only_beyond_the_carried_norm(monkeypatch, d, slow, passes):
    pair = MonomialPair(1, 1)
    comp = LaurentPolynomial({(0, 0): 1.0 + 0j, (0, 1): -2.0 + 0j, (0, 2): complex(1.0 + d)})
    calls = []
    monkeypatch.setattr(division, "negligible", lambda value, scale: calls.append(value) or negligible(value, scale))
    got = _assert_split_matches(0, 0, comp, pair, ratio_cut_point(pair, (1.0 + 0j, 1.0 + 0j)))
    assert (len(calls), isinstance(got, list)) == (int(slow), passes)


@pytest.mark.parametrize("first", [True, False], ids=["NaN first", "NaN later"])
def test_fiber_verdict_fails_a_nan_remainder(first):
    # a NaN norm (first) or a finite one (later): the remainder is NaN either way
    pair = MonomialPair(1, 1)
    nan, one = complex(math.nan, 0.0), 1.0 + 0j
    comp = LaurentPolynomial({(0, 0): nan, (0, 1): one} if first else {(0, 1): one, (0, 0): nan}, prune_scale=1.0)
    got = _assert_split_matches(0, 0, comp, pair, ratio_cut_point(pair, (1.0 + 0j, 1.0 + 0j)))
    assert got == ("InternalContractError", "fiber projection does not vanish at the base point")


def _relabelled_part(terms: dict, scale) -> LaurentPolynomial:
    """laurent._relabelled's reference, which builds split_component's parts:
    built at scale, then built again at its own norm, as the (u, v) quotient
    was before its relabel."""
    built = LaurentPolynomial(terms, prune_scale=scale)
    return built if built._norm is None else LaurentPolynomial(dict(built.terms), prune_scale=built._norm)


PART_CASES = {
    # built at 0.5 the 8e-15 term stays, and at the part's own norm 1 it goes
    "scale below the norm": ({(0, 0): 1.0 + 0j, (1, 0): 8e-15 + 0j}, 0.5),
    "scale at the norm": ({(0, 0): 1.0 + 0j, (1, 0): 2e-14 + 0j}, 1.0),
    "scale above the norm": ({(0, 0): 1.0 + 0j, (1, 0): 2e-14 + 0j}, 1.5),
    "NaN scale": ({(0, 0): 1.0 + 0j, (1, 0): 1e-20 + 0j}, math.nan),
    "scale as a function": ({(0, 0): 1.0 + 0j, (1, 0): 8e-15 + 0j}, lambda: 0.5),
    "empty": ({}, 1.0),
    "exact zeros only": ({(0, 0): 0j}, 1.0),
    "every term pruned": ({(0, 0): 1e-20 + 0j}, 1.0),
    "exact": ({(0, 0): QComplex(1), (1, 0): QComplex(0, 2)}, 1.0),
}


@pytest.mark.parametrize("terms, scale", PART_CASES.values(), ids=PART_CASES.keys())
def test_part_is_built_at_scale_then_at_its_own_norm(terms, scale):
    assert _state(_relabelled(dict(terms), scale)) == _state(_relabelled_part(terms, scale))


@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-2, 2)),
                    st.one_of(split_coeffs.filter(lambda c: not isinstance(c, QComplex)), st.just(0j)),
                    max_size=5),
    st.one_of(st.floats(0.0, 1e21), st.just(math.nan)),
)
def test_part_is_the_relabel_on_floating_maps(terms, scale):
    assert _state(_relabelled(dict(terms), scale)) == _state(_relabelled_part(terms, scale))

def test_branch_evaluations_agree_with_fiber_projection():
    # evaluate the symmetric component at an explicit branch point over a
    # random fiber coordinate and compare with the projected polynomial
    rng = random.Random(19)
    for k, l, m, n in [(2, 1, 0, 1), (1, 1, 1, 1)]:
        pair = MonomialPair(k, l, m, n)
        order = pair.order
        p = (0.4 + 0.3j, 0.7 - 0.2j)
        u_p, _ = fiber_values(pair, p)
        h = rand_symmetric_component(rng, k, l, m, n, terms=5, exact=False)
        g = to_ratio_cut(h, pair)
        proj = g.substitute_z1(u_p)
        scale = 1 + h.one_norm()
        for _ in range(20):
            x_val = cmath.exp(complex(rng.uniform(-2, -0.1), rng.uniform(0, 6.28)))
            log_u = cmath.log(u_p)
            log_x = cmath.log(x_val)
            z1 = cmath.exp((n * log_u + l * log_x) / order)
            z2 = cmath.exp((-m * log_u + k * log_x) / order)
            proj_val = sum(c * x_val**beta for (_, beta), c in proj.terms.items())
            for a in range(order):
                for b in range(order):
                    g1 = cmath.exp(2j * math.pi * (n * a + l * b) / order)
                    g2 = cmath.exp(2j * math.pi * (-m * a + k * b) / order)
                    branch_val = h.eval(g1 * z1, g2 * z2)
                    assert abs(branch_val - proj_val) <= 1e-10 * scale
