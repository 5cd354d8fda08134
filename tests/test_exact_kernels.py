"""The exact kernels against references written with QComplex operators.

Evaluation and the correction polynomial's values (one grouped sum over
shared power tables), the multiply-accumulate kernel, the Horner walk and
the symbolic residual form their exact sums as unreduced Gaussian-integer
triples and reduce each stored or returned coefficient once; substitution
takes its powers from `powi`, which raises a Gaussian integer to the power
and reduces once.  Each test here compares one of them with a plain
operator loop that reduces after every step: values must be equal, and term
maps must hold the same keys in the same order.
"""

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gleason import LaurentPolynomial, QComplex, division
from gleason.domains import MonomialPair
from gleason.errors import EvaluationDomainError
from gleason.laurent import _exact_values, _linear_quotient, multiply_add, subtract_linear_multiples
from gleason.scalars import _reduce_values, _reduced, powi

from conftest import chain_multiply_add

# the package re-exports the function verify under the submodule's name
verify_module = importlib.import_module("gleason.verify")

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=8)
coeffs = st.builds(QComplex, fracs, fracs)
nonzero_coeffs = coeffs.filter(bool)
exps = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
polys = st.dictionaries(exps, nonzero_coeffs, max_size=7).map(LaurentPolynomial)
# dyadic and other denominators, and the zero point
points = st.builds(
    QComplex,
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
)
nonzero_points = points.filter(bool)


def _items(poly: LaurentPolynomial) -> list:
    return list(poly.terms.items())


# -- references ---------------------------------------------------------------


def ref_eval(f: LaurentPolynomial, q1, q2):
    total = 0
    for (a, b), c in f.terms.items():
        # a term that z1 = 0 removes is not looked at in z2
        if not q1 and a:
            if a < 0:
                raise EvaluationDomainError("negative exponent at a zero coordinate")
            continue
        if not q2 and b:
            if b < 0:
                raise EvaluationDomainError("negative exponent at a zero coordinate")
            continue
        total = total + c * q1**a * q2**b
    return total


def ref_substitute_z1(f: LaurentPolynomial, value) -> list:
    acc: dict = {}
    for (a, b), c in f.terms.items():
        if not value and a < 0:
            raise EvaluationDomainError("negative exponent at a zero coordinate")
        if not value and a:
            continue
        acc[(0, b)] = acc.get((0, b), 0) + c * value**a
    return [(e, c) for e, c in acc.items() if c]


def ref_linear_quotient(coeffs: dict, root):
    if not coeffs:
        return {}, 0
    low = min(0, min(coeffs))
    carry = 0
    quotient = {}
    for d in range(max(coeffs), low, -1):
        carry = coeffs.get(d, 0) + root * carry
        quotient[d - 1] = carry
    return quotient, coeffs.get(low, 0) + root * carry


def ref_residual(f, f1, f2, p):
    """f + f1*(p1 - z1) + f2*(p2 - z2) by the multiply-accumulate kernel."""
    lin1 = LaurentPolynomial({(1, 0): -1, (0, 0): p[0]})
    lin2 = LaurentPolynomial({(0, 1): -1, (0, 0): p[1]})
    return multiply_add(f, [(f1, lin1), (f2, lin2)])


# -- evaluation and substitution ------------------------------------------------


def _same_outcome(kernel, reference):
    try:
        want = reference()
    except EvaluationDomainError:
        with pytest.raises(EvaluationDomainError):
            kernel()
        return None
    return kernel(), want


@given(polys, points, points)
@example(LaurentPolynomial({(2, -1): QComplex(1), (0, 0): QComplex(-4)}), QComplex(2), QComplex(1))
@example(LaurentPolynomial({(0, 3): QComplex(1, 2), (1, 0): QComplex(3)}), QComplex(0), QComplex(0))
@example(LaurentPolynomial({(1, -1): QComplex(0, 1)}), QComplex(0), QComplex(0))
@example(
    LaurentPolynomial({(1, 0): QComplex(Fraction(1, 2)), (0, -1): QComplex(Fraction(1, 3))}),
    QComplex(Fraction(1, 5)),
    QComplex(2, 1),
)
def test_eval_matches_the_operator_loop(f, q1, q2):
    outcome = _same_outcome(lambda: f.eval(q1, q2), lambda: ref_eval(f, q1, q2))
    if outcome is not None:
        got, want = outcome
        assert got == want
        assert isinstance(got, QComplex) or got == 0


def test_eval_cancels_to_an_exact_zero():
    q = (QComplex(Fraction(1, 3), Fraction(1, 2)), QComplex(Fraction(-2, 5)))
    g = LaurentPolynomial({(3, -2): QComplex(2, 1), (1, 4): QComplex(Fraction(1, 7))})
    f = g - LaurentPolynomial.constant(g.eval(*q))
    value = f.eval(*q)
    assert value == 0 and isinstance(value, QComplex)
    assert value.as_ints() == (0, 0, 1)


groups = st.lists(
    st.dictionaries(exps, nonzero_coeffs, min_size=1, max_size=5).map(lambda d: list(d.items())),
    max_size=4,
)


@given(groups, nonzero_points, nonzero_points)
@example([], QComplex(2), QComplex(3))
@example(
    [[((0, 0), QComplex(1))], [((3, -2), QComplex(1, 1)), ((-1, 4), QComplex(Fraction(1, 3)))]],
    QComplex(Fraction(1, 2), 1),
    QComplex(Fraction(-2, 3)),
)
@example([[((1, 0), QComplex(2)), ((0, 1), QComplex(-1))]], QComplex(1), QComplex(2))
def test_grouped_values_match_an_operator_loop_per_group(groups, q1, q2):
    want = []
    for terms in groups:
        total = 0
        for (a, b), c in terms:
            total = total + c * q1**a * q2**b
        want.append(total)
    got = _exact_values(groups, q1, q2)
    assert got == want
    for value in got:
        x, y, d = value.as_ints()
        assert d > 0 and math.gcd(x, y, d) == 1


@given(polys, points)
@example(LaurentPolynomial({(1, 2): QComplex(1), (0, 2): QComplex(-2)}), QComplex(2))
@example(LaurentPolynomial({(-1, 0): QComplex(1)}), QComplex(0))
def test_substitute_z1_matches_the_operator_loop(f, value):
    outcome = _same_outcome(
        lambda: _items(f.substitute_z1(value)), lambda: ref_substitute_z1(f, value)
    )
    if outcome is not None:
        got, want = outcome
        assert [e for e, _ in got] == [e for e, _ in want]
        assert all(a == b for (_, a), (_, b) in zip(got, want))


# -- the multiply-accumulate kernel -------------------------------------------------


ONE = LaurentPolynomial.constant(QComplex(1))
ZERO = LaurentPolynomial.zero()
# constants that share an int with 1 but are not 1
near_ones = st.sampled_from([QComplex(1, 1), QComplex(Fraction(1, 2)), QComplex(-1)]).map(LaurentPolynomial.constant)
factors = st.one_of(polys, st.just(ONE), st.just(ZERO), near_ones)


@given(polys, st.lists(st.tuples(factors, factors), max_size=5))
@example(
    LaurentPolynomial({(0, 1): QComplex(1), (0, 0): QComplex(2)}),
    [
        (LaurentPolynomial({(1, 0): QComplex(2)}), ZERO),
        (ZERO, ONE),
        (LaurentPolynomial({(0, 0): QComplex(-2), (2, 0): QComplex(0, 3)}), ONE),
        (LaurentPolynomial({(0, 1): QComplex(Fraction(1, 3))}), LaurentPolynomial({(1, -1): QComplex(3)})),
        (ONE, LaurentPolynomial({(0, 1): QComplex(-1)})),
        (LaurentPolynomial({(0, 1): QComplex(2)}), LaurentPolynomial.constant(QComplex(1, 1))),
        (LaurentPolynomial({(0, 1): QComplex(2)}), LaurentPolynomial.constant(QComplex(Fraction(1, 2)))),
    ],
)
def test_multiply_add_with_zero_and_one_factors_matches_the_operator_chain(base, products):
    want = base
    for g, h in products:
        want = want + g * h
    got = multiply_add(base, products)
    assert [e for e, _ in _items(got)] == [e for e, _ in _items(want)]
    assert all(a == b for (_, a), (_, b) in zip(_items(got), _items(want)))


one_terms = st.dictionaries(exps, nonzero_coeffs, min_size=1, max_size=1).map(LaurentPolynomial)


@given(polys, st.lists(polys, max_size=4), polys, one_terms)
@example(
    LaurentPolynomial({(1, 0): QComplex(Fraction(1, 2)), (0, 0): QComplex(2)}),
    [LaurentPolynomial({(0, 0): QComplex(1, 1), (1, -1): QComplex(Fraction(1, 3))})],
    LaurentPolynomial({(1, 0): QComplex(Fraction(1, 2)), (0, 1): QComplex(0, 2)}),
    LaurentPolynomial({(0, 0): QComplex(Fraction(-3, 4), 1)}),
)
def test_multiply_add_reads_shared_and_one_term_factors_as_the_chain(base, gs, h, one):
    # one h object in several products, a distinct h with equal terms, a
    # one-term h, and empty factors on either side
    twin = LaurentPolynomial(dict(h.terms))
    products = [(g, h) for g in gs] + [(h, twin), (twin, one), (h, one), (one, h), (ZERO, h), (h, ZERO)]
    want = chain_multiply_add(base, products)
    got = multiply_add(base, products)
    assert list(got.terms) == list(want)
    assert all(got.terms[e] == c for e, c in want.items())


def test_multiply_add_keeps_untouched_coefficients_and_reduces_touched_ones():
    half, third = QComplex(Fraction(1, 2)), QComplex(Fraction(1, 3))
    base = LaurentPolynomial({(0, 0): half, (5, 0): QComplex(1, 3)})
    passed = LaurentPolynomial({(0, 0): half, (1, 0): QComplex(Fraction(2, 3)), (3, 0): QComplex(0, 7)})
    products = [
        (passed, ONE),  # (0, 0) becomes 2/2; (1, 0) and (3, 0) pass through
        (LaurentPolynomial({(1, 0): third}), ONE),  # 2/3 + 1/3 = 3/3
        (LaurentPolynomial({(2, 0): QComplex(Fraction(1, 4))}), LaurentPolynomial.constant(QComplex(2))),
    ]
    got = multiply_add(base, products)
    want = chain_multiply_add(base, products)
    assert list(got.terms) == list(want)
    assert all(got.terms[e] == c for e, c in want.items())
    for value in got.terms.values():
        x, y, d = value.as_ints()
        assert math.gcd(x, y, d) == 1
    # a coefficient that no other summand reaches is the operand's own
    assert got.terms[(5, 0)] is base.terms[(5, 0)]
    assert got.terms[(3, 0)] is passed.terms[(3, 0)]


def _poly(terms: dict) -> LaurentPolynomial:
    return LaurentPolynomial({e: QComplex(c) for e, c in terms.items()})


@pytest.mark.parametrize(
    "base, g, h",
    [
        # g*h meets (0, 0) twice: the first summand cancels base there, the
        # second brings it back, so it keeps base's place
        ({(0, 0): 1, (3, 0): 5}, {(0, 0): 1, (1, 0): 1}, {(0, 0): -1, (-1, 0): 2}),
        # (1 + z + z^2)(1 - z + z^2) = 1 + z^2 + z^4: (1, 0) and (3, 0) are
        # new and cancel within the product, (2, 0) cancels base after it
        ({(2, 0): -1, (5, 0): 1}, {(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(0, 0): 1, (1, 0): -1, (2, 0): 1}),
    ],
)
def test_multiply_add_drops_an_entry_only_after_the_product_that_cancels_it(base, g, h):
    base, products = _poly(base), [(_poly(g), _poly(h)), (_poly(h), ONE)]
    want = chain_multiply_add(base, products)
    got = multiply_add(base, products)
    assert list(got.terms) == list(want)
    assert all(got.terms[e] == c for e, c in want.items())


@given(polys, polys)
@example(  # (1 + z + z^2)(1 - z + z^2): (1, 0) and (3, 0) cancel within the product
    _poly({(0, 0): 1, (1, 0): 1, (2, 0): 1}),
    _poly({(0, 0): 1, (1, 0): -1, (2, 0): 1}),
)
@example(  # (1 + z - z^2)^2: (2, 0) cancels, then comes back after the new (3, 0)
    _poly({(0, 0): 1, (1, 0): 1, (2, 0): -1}),
    _poly({(0, 0): 1, (1, 0): 1, (2, 0): -1}),
)
def test_exact_product_is_the_chain(g, h):
    got = g * h
    want = chain_multiply_add(ZERO, [(g, h)])
    assert list(got.terms) == list(want)
    assert all(got.terms[e] == c for e, c in want.items())


def _scan_dispatched(coeffs, root, exact):
    """The walk chosen by reading every coefficient, as it was chosen before
    each caller passed its polynomial's kind."""
    scanned = all(type(c) is QComplex or (type(c) is int and not c) for c in coeffs.values())
    return _linear_quotient(coeffs, root, scanned)


def _typed(poly) -> list:
    return [(e, type(c).__name__, repr(c)) for e, c in poly.terms.items()]


def test_split_component_walks_a_zero_u0_entry_as_the_scan_dispatch(monkeypatch):
    # u = z1/z2, v = z2 at p = (1/2, 1/3): u(p) = 3/2, v(p) = 1/3.  The cut
    # slice of v holds u - (2/3)u^2, whose fiber value cancels to zero, so its
    # u^0 entry is the int 0 of 0 - 0; v^2 - 1/9 gives slices of u^0 alone
    pair = MonomialPair(1, 1, 0, 1)
    uv = (QComplex(Fraction(3, 2)), QComplex(Fraction(1, 3)))
    terms = {(1, 0): 1, (2, -1): Fraction(-2, 3), (0, 2): 1, (0, 0): Fraction(-1, 9)}
    exact = LaurentPolynomial({e: QComplex(c) for e, c in terms.items()})
    floating = LaurentPolynomial({e: complex(c) for e, c in terms.items()})
    for comp in (exact, floating):
        got = [_typed(part) for part in division.split_component(1, 0, comp, pair, uv)]
        with monkeypatch.context() as patch:
            patch.setattr(division, "_linear_quotient", _scan_dispatched)
            want = [_typed(part) for part in division.split_component(1, 0, comp, pair, uv)]
        assert got == want
    g1, g2 = division.split_component(1, 0, exact, pair, uv)
    assert g1.is_exact() and g2.is_exact() and not g1.is_zero and not g2.is_zero


# -- the Horner walk ----------------------------------------------------------------


horner_coeffs = st.dictionaries(
    st.integers(-4, 6), st.one_of(coeffs, st.just(0)), max_size=7
)


@given(horner_coeffs, nonzero_points)
@example({3: QComplex(1), -2: QComplex(Fraction(1, 2)), 0: 0}, QComplex(Fraction(1, 4)))
@example({0: 0}, QComplex(3))
@example({}, QComplex(3))
def test_linear_quotient_matches_the_operator_loop(coeffs, root):
    quotient, remainder = _linear_quotient(dict(coeffs), root, True)
    want_quotient, want_remainder = ref_linear_quotient(dict(coeffs), root)
    assert list(quotient) == list(want_quotient)
    assert all(quotient[d] == want_quotient[d] for d in quotient)
    assert remainder == want_remainder


def test_linear_quotient_divides_a_vanishing_slice_exactly():
    root = QComplex(Fraction(2, 3), Fraction(-1, 5))
    # t^-2 * (t - root) * (t^3 + 2): a pole of order 2, remainder zero
    g = LaurentPolynomial({(0, 1): 1, (0, 0): -root})
    h = LaurentPolynomial({(0, 3): 1, (0, 0): 2, (0, -2): QComplex(0, 1)})
    product = {b: c for (_, b), c in (g * h).terms.items()}
    quotient, remainder = _linear_quotient(product, root, True)
    assert not remainder
    got = {d: c for d, c in quotient.items() if c}
    assert got == {b: c for (_, b), c in h.terms.items()}


# -- the symbolic residual --------------------------------------------------------


@given(polys, polys, polys, points, points)
@example(
    LaurentPolynomial({(1, 0): QComplex(1)}),
    LaurentPolynomial({(0, 0): QComplex(1), (1, 0): QComplex(2)}),
    LaurentPolynomial.zero(),
    QComplex(1),
    QComplex(0),
)
@example(  # a shifted and a root summand cancel within each part
    LaurentPolynomial({(5, 5): QComplex(1)}),
    LaurentPolynomial({(1, 0): QComplex(1), (0, 0): QComplex(2)}),
    LaurentPolynomial({(0, 0): QComplex(2), (0, 1): QComplex(1)}),
    QComplex(2),
    QComplex(2),
)
def test_residual_matches_multiply_add_nonzero(f, f1, f2, p1, p2):
    got = verify_module.symbolic_residual(f, f1, f2, (p1, p2))
    want = ref_residual(f, f1, f2, (p1, p2))
    assert [e for e, _ in _items(got)] == [e for e, _ in _items(want)]
    assert all(a == b for (_, a), (_, b) in zip(_items(got), _items(want)))


def _unread():
    raise AssertionError("an exact residual read its tolerance")


@given(polys, polys, polys, points, points)
def test_exact_residual_never_reads_its_tolerance(f, f1, f2, p1, p2):
    got = subtract_linear_multiples(f, [(f1, (1, 0), p1), (f2, (0, 1), p2)], _unread)
    assert got == ref_residual(f, f1, f2, (p1, p2))


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1.0])
def test_floating_residual_reads_a_tolerance_function_once(tol):
    f = LaurentPolynomial({(1, 0): 1.0, (0, 0): 0.5 + 1e-10})
    parts = [(LaurentPolynomial.constant(1.0), (1, 0), 0.5), (LaurentPolynomial.constant(QComplex(1)), (0, 1), 0)]
    calls = []

    def read():
        calls.append(tol)
        return tol

    got = subtract_linear_multiples(f, parts, read)
    assert calls == [tol]
    want = subtract_linear_multiples(f, parts, tol)
    assert [(e, repr(c)) for e, c in got.terms.items()] == [(e, repr(c)) for e, c in want.terms.items()]


@given(polys, polys, points, points)
def test_residual_of_a_true_identity_is_zero(f1, f2, p1, p2):
    lin1 = LaurentPolynomial({(1, 0): 1, (0, 0): -p1})
    lin2 = LaurentPolynomial({(0, 1): 1, (0, 0): -p2})
    f = f1 * lin1 + f2 * lin2
    assert verify_module.symbolic_residual(f, f1, f2, (p1, p2)).is_zero
    assert ref_residual(f, f1, f2, (p1, p2)).is_zero


# -- reduction ----------------------------------------------------------------------


parts = st.integers(-(2**80), 2**80)


@given(parts, parts, st.integers(0, 90))
@example(0, 0, 5)
@example(-6, 0, 3)
@example(0, -2**40, 41)
def test_reduced_power_of_two_matches_gcd(x, y, k):
    _check_reduced(x, y, 2**k)


@given(parts, parts, st.integers(1, 10**12))
@example(0, 0, 9)
@example(-12, 18, 6)
def test_reduced_other_denominators_matches_gcd(x, y, d):
    _check_reduced(x, y, d)


def _check_reduced(x, y, d):
    g = math.gcd(x, y, d)
    assert _reduced(x, y, d).as_ints() == (x // g, y // g, d // g)


triples = st.tuples(parts, parts, st.one_of(st.integers(0, 90).map(lambda k: 2**k), st.integers(1, 10**12)))


@given(st.dictionaries(exps, st.one_of(triples, nonzero_coeffs), max_size=8))
@example({(0, 0): (6, -4, 8), (1, 0): (12, 18, 6), (2, 0): QComplex(1, 2), (3, 0): (0, 5, 1)})
def test_reduce_values_is_reduced_per_entry_in_place(terms):
    before = dict(terms)
    got = _reduce_values(terms)
    assert got is terms and list(got) == list(before)
    for exp, t in before.items():
        if type(t) is tuple:
            assert type(got[exp]) is QComplex and got[exp].as_ints() == _reduced(*t).as_ints()
        else:  # a QComplex entry is left as the same object
            assert got[exp] is t


# -- powers -------------------------------------------------------------------------


@given(nonzero_points, st.integers(-8, 8))
@example(QComplex(Fraction(1, 2)), -8)
@example(QComplex(3, -4), 0)
def test_powi_matches_the_operator_loop(q, e):
    got = powi(q, e)
    if not e:
        assert type(got) is int and got == 1
        return
    base = 1 / q if e < 0 else q
    want = 1
    for _ in range(abs(e)):
        want = want * base
    assert type(got) is QComplex and got == want
    x, y, d = got.as_ints()
    assert d > 0 and math.gcd(x, y, d) == 1
