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

from gleason import LaurentPolynomial, QComplex
from gleason.errors import EvaluationDomainError
from gleason.laurent import _exact_values, _linear_quotient, multiply_add
from gleason.scalars import _reduced, powi

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


# -- the Horner walk ----------------------------------------------------------------


horner_coeffs = st.dictionaries(
    st.integers(-4, 6), st.one_of(coeffs, st.just(0)), max_size=7
)


@given(horner_coeffs, nonzero_points)
@example({3: QComplex(1), -2: QComplex(Fraction(1, 2)), 0: 0}, QComplex(Fraction(1, 4)))
@example({0: 0}, QComplex(3))
@example({}, QComplex(3))
def test_linear_quotient_matches_the_operator_loop(coeffs, root):
    quotient, remainder = _linear_quotient(dict(coeffs), root)
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
    quotient, remainder = _linear_quotient(product, root)
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
def test_residual_matches_multiply_add_nonzero(f, f1, f2, p1, p2):
    got = verify_module.symbolic_residual(f, f1, f2, (p1, p2))
    want = ref_residual(f, f1, f2, (p1, p2))
    assert [e for e, _ in _items(got)] == [e for e, _ in _items(want)]
    assert all(a == b for (_, a), (_, b) in zip(_items(got), _items(want)))


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
