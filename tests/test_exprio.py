"""Polynomial grammar and machine report serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gleason import (
    LaurentPolynomial,
    QComplex,
    format_poly,
    parse_poly,
    solve,
)
from gleason.errors import ExponentOverflowError, InputError, PolySyntaxError
from gleason.exprio import (
    format_float,
    format_scalar,
    emit_report,
    parse_scalar,
)
from gleason import CuspDomain

from conftest import parse_report, rand_laurent


# -- parsing ------------------------------------------------------------------


def test_parse_monomial_with_exponents():
    f = parse_poly("z1^2*z2^-1")
    assert f == LaurentPolynomial({(2, -1): 1})


def test_parse_complex_coefficient():
    f = parse_poly("(1+2i) z1 - 3")
    assert f.coefficient(1, 0) == 1 + 2j
    assert f.coefficient(0, 0) == -3


def test_parse_syntax_error_position():
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("z1^")
    assert info.value.position == 3
    assert isinstance(info.value, InputError)


# the message and offset of the errors that no command-line test runs in process
MALFORMED_CAUSES = {
    "1.": ("expected digits after decimal point", 2),
    "2 @ z1": ("unexpected character '@'", 2),
    "1/0": ("zero denominator", 2),
    "z1^2.5": ("exponent must be an integer", 3),
    "z1)": ("expected '+', '-' or end of input", 2),
}


@pytest.mark.parametrize("bad", ["", "   ", "z3", "z1^^2", "2 +", "(1+2i", "z1**2", *MALFORMED_CAUSES])
def test_parse_rejects_malformed(bad):
    with pytest.raises(PolySyntaxError) as info:
        parse_poly(bad)
    if bad in MALFORMED_CAUSES:
        message, offset = MALFORMED_CAUSES[bad]
        assert str(info.value) == f"{message} (at offset {offset})"
        assert info.value.position == offset


def test_parse_scalar_rejects_a_blank_literal():
    with pytest.raises(InputError, match="^empty complex literal$"):
        parse_scalar("  ")


def test_exponent_cap():
    assert parse_poly("z1^1000000") == LaurentPolynomial({(10**6, 0): 1})
    with pytest.raises(ExponentOverflowError):
        parse_poly("z1^1000001")
    with pytest.raises(ExponentOverflowError):
        parse_poly("z2^-1000001")


def test_parse_merges_like_terms():
    assert parse_poly("z1 + z1") == LaurentPolynomial({(1, 0): 2})
    assert parse_poly("z1 - z1").is_zero


def test_parse_implicit_multiplication():
    expect = LaurentPolynomial({(1, -1): 2})
    assert parse_poly("2z1z2^-1") == expect
    assert parse_poly("2 z1 * z2^-1") == expect
    assert parse_poly("2*z1*z2^-1") == expect


def test_parse_rational_and_exact_mode():
    f = parse_poly("1/3 z1", exact=True)
    assert f.coefficient(1, 0) == QComplex(Fraction(1, 3))
    assert f.is_exact()
    g = parse_poly("0.25 + (1/2-1/2i)z2", exact=True)
    assert g.coefficient(0, 0) == QComplex(Fraction(1, 4))
    assert g.coefficient(0, 1) == QComplex(Fraction(1, 2), Fraction(-1, 2))


def test_parse_signed_exponent_forms():
    assert parse_poly("z1^+3") == LaurentPolynomial({(3, 0): 1})
    assert parse_poly("-z2^-2") == LaurentPolynomial({(0, -2): -1})


# -- formatting ---------------------------------------------------------------


def test_format_frozen_strings():
    assert format_poly(LaurentPolynomial.zero()) == "0"
    assert format_poly(LaurentPolynomial({(1, 0): 1, (0, -1): 1})) == "z1 + z2^-1"
    assert format_poly(LaurentPolynomial({(0, 1): 2})) == "2z2"
    assert format_poly(LaurentPolynomial({(1, 0): -2})) == "-2z1"
    assert format_poly(LaurentPolynomial({(1, -1): 1})) == "z1*z2^-1"
    assert format_poly(LaurentPolynomial({(1, 0): 1 + 2j})) == "(1+2i)z1"


def test_format_float_round_trips():
    for x in [0.1, -2.5, 3.0, 1e-20, 123456789.123, 2**-40, -1e22]:
        assert float(Fraction(format_float(x))) == x
    assert format_float(2.0) == "2"
    assert "e" not in format_float(1e-20)
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_format_scalar_round_trips():
    cases = [
        QComplex(Fraction(1, 3), Fraction(-2, 7)),
        QComplex(Fraction(3, 4)),
        complex(0.5, -0.25),
        complex(-1.5, 0),
    ]
    for c in cases:
        text = format_scalar(c)
        back = parse_scalar(text, exact=isinstance(c, QComplex))
        assert back == c
    with pytest.raises(InputError):
        parse_scalar("i")
    with pytest.raises(InputError):
        parse_scalar("2/0")


def test_parse_scalar_exponent_sign_is_not_the_split():
    # the sign of an exponent belongs to its number, not to the real/imaginary split
    assert parse_scalar("0.25+1e-3i") == complex(0.25, 1e-3)
    assert parse_scalar("1-2E-3i") == complex(1, -2e-3)
    assert parse_scalar("1e-3+2i") == complex(1e-3, 2)
    assert parse_scalar("1+2e3i") == complex(1, 2e3)
    assert parse_scalar("-1e+2-3e-1i", exact=True) == QComplex(-100, Fraction(-3, 10))


smallfracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
exact_polys = st.dictionaries(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    st.builds(QComplex, smallfracs, smallfracs),
    max_size=7,
).map(LaurentPolynomial)


@given(exact_polys)
def test_round_trip_exact_coefficients(f):
    text = format_poly(f)
    assert parse_poly(text, exact=True) == f
    assert format_poly(parse_poly(text, exact=True)) == text


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_float_coefficients(seed):
    rng = random.Random(seed)
    f = rand_laurent(rng, terms=9, max_exp=7, exact=False)
    text = format_poly(f)
    back = parse_poly(text)
    assert back.terms.keys() == f.terms.keys()
    for e, c in f.terms.items():
        assert back.coefficient(*e) == c  # bit-identical floats
    assert format_poly(back) == text


# -- machine reports ----------------------------------------------------------


def _trivial_solution():
    domain = CuspDomain.hartogs(1, 1)
    return solve(domain, parse_poly("z2 - 0.5"), (0.25, 0.5), samples=16, seed=3)


def test_machine_report_round_trip():
    sol = _trivial_solution()
    text = emit_report(sol, "machine")
    assert "residual_max=0" in text.splitlines()[0]
    fields = parse_report(text)
    assert fields["mode"] == sol.mode
    assert fields["k"] == 1 and fields["l"] == 1
    assert fields["bounded_f1"] is True and fields["bounded_f2"] is True
    assert fields["residual_max"] == sol.report.residual_max
    assert fields["sup_f1_sampled"] == sol.report.sup_f1_sampled
    assert fields["p1"] == complex(0.25) and fields["p2"] == complex(0.5)
    assert fields["cone_violations"] == []


def test_axis_report_has_bound_rhs():
    domain = CuspDomain.hartogs(1, 1)
    sol = solve(domain, parse_poly("z1"), (0, 0.5), samples=16, seed=3)
    text = emit_report(sol, "machine")
    assert any(line.startswith("bound_rhs=") for line in text.splitlines())
    assert parse_report(text)["bound_rhs"] == sol.report.bound_rhs


def test_plain_report_and_bad_format():
    sol = _trivial_solution()
    text = emit_report(sol, "plain")
    assert "mode" in text and "residual max" in text
    with pytest.raises(InputError):
        emit_report(sol, "yaml")
    with pytest.raises(InputError):
        parse_report("no equals sign here")
