"""Exact scalar layer: QComplex mirrors complex arithmetic."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gleason import QComplex
from gleason.scalars import is_exact, powi

from conftest import EXACT_ROOT_ORDERS, root_of_unity, root_table

fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=8
)
qcomplexes = st.builds(QComplex, fractions, fractions)


@given(qcomplexes, qcomplexes)
def test_add_mul_mirror_complex(x, y):
    assert complex(x + y) == pytest.approx(complex(x) + complex(y))
    assert complex(x * y) == pytest.approx(complex(x) * complex(y))
    assert complex(x - y) == pytest.approx(complex(x) - complex(y))


@given(qcomplexes, qcomplexes)
def test_division_inverts_multiplication(x, y):
    if not y:
        return
    assert (x * y) / y == x


@given(qcomplexes)
def test_abs2_is_exact_square(x):
    assert x.abs2() == x.re * x.re + x.im * x.im
    assert abs(x) == pytest.approx(math.sqrt(float(x.abs2())))


def test_mixed_arithmetic_degrades_to_complex():
    q = QComplex(Fraction(1, 2), Fraction(1, 3))
    assert isinstance(q + 0.25, complex)
    assert isinstance(q * (1 + 2j), complex)
    assert isinstance((1 + 2j) * q, complex)
    assert q + 0.25 == pytest.approx(complex(q) + 0.25)
    # exact operands stay exact
    assert isinstance(q + 1, QComplex)
    assert isinstance(q * Fraction(2, 7), QComplex)


def test_equality_and_hash_across_types():
    assert QComplex(2) == 2
    assert QComplex(Fraction(1, 2)) == 0.5
    assert QComplex(1, 1) != 1
    assert hash(QComplex(3)) == hash(QComplex(3, 0))
    # a real value hashes like the int or Fraction it equals
    assert hash(QComplex(3)) == hash(3)
    assert hash(QComplex(Fraction(-5, 6))) == hash(Fraction(-5, 6))
    assert len({QComplex(3), 3}) == 1
    assert {Fraction(1, 2): "half"}[QComplex(Fraction(1, 2))] == "half"


@given(qcomplexes, st.integers(min_value=-6, max_value=6))
def test_powi_matches_float_power(x, e):
    if not x and e <= 0:
        return
    expect = complex(x) ** e
    got = complex(powi(x, e))
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_powi_exact_types():
    assert powi(QComplex(Fraction(2, 3)), 3) == QComplex(Fraction(8, 27))
    assert powi(QComplex(Fraction(2, 3)), -2) == QComplex(Fraction(9, 4))
    assert powi(2, 10) == 1024
    assert powi(0.5, 2) == 0.25


def test_exact_roots_of_unity():
    assert EXACT_ROOT_ORDERS == (1, 2, 4)
    assert root_of_unity(1) == QComplex(1)
    assert root_of_unity(2) == QComplex(-1)
    assert root_of_unity(4) == QComplex(0, 1)
    for order in (1, 2, 4):
        assert isinstance(root_of_unity(order), QComplex)
        assert powi(root_of_unity(order), order) == QComplex(1)


@pytest.mark.parametrize("order", [3, 5, 6, 7])
def test_floating_roots_of_unity(order):
    z = root_of_unity(order)
    assert isinstance(z, complex)
    assert z == pytest.approx(cmath.exp(2j * cmath.pi / order))
    table = root_table(order)
    assert len(table) == order
    for s, w in enumerate(table):
        assert w == pytest.approx(z**s)


def test_root_table_exact_orders():
    table = root_table(4)
    assert table == [QComplex(1), QComplex(0, 1), QComplex(-1), QComplex(0, -1)]
    assert all(isinstance(w, QComplex) for w in table)


def test_predicates():
    # the library tests coefficients with `not c` and measures them with abs(c)
    assert not QComplex(0)
    assert QComplex(0, 1)
    assert is_exact(QComplex(1, 2))
    assert is_exact(3)
    assert is_exact(Fraction(1, 3))
    assert not is_exact(0.5)
    assert not is_exact(1 + 0j)
    assert abs(QComplex(3, 4)) == pytest.approx(5.0)


# -- the reduced (x + y*i)/d form against a (Fraction, Fraction) reference ----

exact_reals = st.one_of(st.integers(min_value=-40, max_value=40), fractions)


def _ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def _ref_pow(a, e):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        out = _ref_mul(out, a)
    return _ref_div((Fraction(1), Fraction(0)), out) if e < 0 else out


def _check(q, ref):
    """q is a reduced QComplex whose value is the reference pair."""
    assert isinstance(q, QComplex)
    assert q._d > 0
    assert math.gcd(q._x, q._y, q._d) == 1
    re, im = q.re, q.im
    assert isinstance(re, Fraction) and isinstance(im, Fraction)
    assert (re, im) == tuple(Fraction(v) for v in ref)
    assert q == QComplex(*ref)


@given(fractions, fractions, fractions, fractions)
def test_arithmetic_matches_fraction_reference(a, b, c, e):
    x, y = QComplex(a, b), QComplex(c, e)
    _check(x, (a, b))
    _check(x + y, (a + c, b + e))
    _check(x - y, (a - c, b - e))
    _check(-x, (-a, -b))
    _check(x * y, _ref_mul((a, b), (c, e)))
    if c or e:
        _check(x / y, _ref_div((a, b), (c, e)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert x.abs2() == a * a + b * b
    assert abs(x) == math.hypot(float(a), float(b))
    assert complex(x) == complex(float(a), float(b))
    assert (x == y) == ((a, b) == (c, e))
    assert (not x) == (not a and not b)


@given(fractions, fractions, exact_reals)
def test_mixed_exact_operands_match_reference(a, b, r):
    x, rr = QComplex(a, b), (r, 0)
    _check(x + r, (a + r, b))
    _check(r + x, (a + r, b))
    _check(x - r, (a - r, b))
    _check(r - x, (r - a, -b))
    _check(x * r, _ref_mul((a, b), rr))
    _check(r * x, _ref_mul((a, b), rr))
    if r:
        _check(x / r, _ref_div((a, b), rr))
    else:
        with pytest.raises(ZeroDivisionError):
            x / r
    if a or b:
        _check(r / x, _ref_div(rr, (a, b)))
    else:
        with pytest.raises(ZeroDivisionError):
            r / x
    assert (x == r) == ((a, b) == rr)


@given(fractions, fractions, st.integers(min_value=-7, max_value=7))
def test_powi_matches_fraction_reference(a, b, e):
    x = QComplex(a, b)
    if not x and e < 0:
        with pytest.raises(ZeroDivisionError):
            powi(x, e)
        return
    if e == 0:
        assert powi(x, e) == 1
        return
    _check(powi(x, e), _ref_pow((a, b), e))
    _check(x**e, _ref_pow((a, b), e))


def test_float_operands_meet_a_qcomplex_as_complex():
    q = QComplex(1, 2)
    assert 0.5 - q == (-0.5 - 2j)
    assert 2.0 / q == (0.4 - 0.8j)
    assert q / 2.0 == (0.5 + 1j)
    with pytest.raises(TypeError):
        q + "x"
