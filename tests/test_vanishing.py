"""Boundary of the vanishing policy at every site that applies it.

Two sites judge a value by it here: the input test on f(p) in GleasonProblem
and the certified residual in verify; split_component's fiber check has its
own tests.

An exact value must be zero; a float value may reach 1e-9 times the norm
the site scales by.  Each case computes that threshold from the site's own
norm, puts a float defect at half and at twice the threshold, and an exact
defect of 1e-30, and checks acceptance against the site's error class.  At
the verification site the value is the symbolic residual's coefficient and
the norm 1 + |f|_1; two more cases put that coefficient within its rounding
bound of the threshold, on either side, which takes the exact fallback.
"""

from fractions import Fraction

import pytest

import importlib

from gleason import CuspDomain, LaurentPolynomial, QComplex, verify
from gleason.errors import NonvanishingError
from gleason.solver import GleasonProblem

REL = 1e-9
P_FLOAT = (0.25 + 0j, 0.5 + 0j)
P_EXACT = (QComplex(Fraction(1, 4)), QComplex(Fraction(1, 2)))


def _linear(var: int, root, defect):
    """z_var - root + defect, with the coefficient type of root."""
    one = QComplex(1) if isinstance(root, QComplex) else 1 + 0j
    exp = (1, 0) if var == 1 else (0, 1)
    return LaurentPolynomial({exp: one, (0, 0): defect - root})


def _problem(f, p):
    GleasonProblem(CuspDomain.hartogs(1, 1), f, p)


class Rejected(Exception):
    """The verification report's symbolic check failed."""


def _verify(f, p, f2=None):
    """Verify f against f1 = 0 and f2 = 1, so the residual is f - (z2 - p2)."""
    one = QComplex(1) if isinstance(p[1], QComplex) else 1 + 0j
    f2 = LaurentPolynomial.constant(one) if f2 is None else f2
    report = verify(CuspDomain.hartogs(1, 1), f, LaurentPolynomial.zero(), f2, p, samples=0)
    if not report.symbolic_residual_zero:
        raise Rejected


def _one_norm(f):
    return f.one_norm()


def _identity_norm(f):
    return 1.0 + f.one_norm()


# (site, variable of the linear form, error class, the norm the site scales by)
SITES = [
    (_problem, 2, NonvanishingError, _one_norm),
    (_verify, 2, Rejected, _identity_norm),
]
SITE_IDS = ["GleasonProblem", "verify"]


def _float_case(var: int, factor: float, norm):
    """Float f whose value at P_FLOAT is factor times its own threshold."""
    root = P_FLOAT[var - 1]
    defect = factor * REL * norm(_linear(var, root, 0))
    f = _linear(var, root, defect)
    threshold = REL * norm(f)
    value = abs(f.eval(*P_FLOAT))
    assert value == pytest.approx(factor * threshold, rel=1e-6)
    return f


@pytest.mark.parametrize("site,var,error,norm", SITES, ids=SITE_IDS)
def test_float_defect_below_threshold_is_accepted(site, var, error, norm):
    site(_float_case(var, 0.5, norm), P_FLOAT)


@pytest.mark.parametrize("site,var,error,norm", SITES, ids=SITE_IDS)
def test_float_defect_above_threshold_raises(site, var, error, norm):
    with pytest.raises(error):
        site(_float_case(var, 2.0, norm), P_FLOAT)


@pytest.mark.parametrize("site,var,error,norm", SITES, ids=SITE_IDS)
def test_exact_defect_raises(site, var, error, norm):
    defect = QComplex(Fraction(1, 10**30))
    f = _linear(var, P_EXACT[var - 1], defect)
    assert f.eval(*P_EXACT) == defect
    with pytest.raises(error):
        site(f, P_EXACT)
    site(_linear(var, P_EXACT[var - 1], QComplex(0)), P_EXACT)


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_verify_defect_within_its_rounding_bound_takes_the_exact_verdict(monkeypatch, side):
    # f2 = 2^23 and p2 = 1/2 make the residual's constant coefficient
    # f_00 + 2^22, with summands of modulus 2^22 and a rounding bound of about
    # 12 * 2^-53 * 2^23 = 1.1e-8 around it; f_00 puts it one ulp of f_00,
    # 2^-31, below or above the threshold 1e-9 * (1 + |f|_1), 1.3e-2
    laurent = importlib.import_module("gleason.laurent")
    lifted = []

    def recorded(exp, *args):
        lifted.append(exp)
        return exact_coefficient(exp, *args)

    exact_coefficient = laurent._exact_coefficient
    monkeypatch.setattr(laurent, "_exact_coefficient", recorded)
    c, p = 2.0**23, (0.25 + 0j, 0.5 + 0j)
    f2 = LaurentPolynomial.constant(c + 0j)
    f = LaurentPolynomial({(0, 1): c + 0j, (0, 0): -(2.0**22) + REL * (1 + 1.5 * c)})
    threshold = REL * _identity_norm(f)
    defect = threshold + side * 2.0**-31
    f = LaurentPolynomial({(0, 1): c + 0j, (0, 0): -(2.0**22) + defect})
    assert REL * _identity_norm(f) == threshold
    value = f.terms[(0, 0)].real + 2.0**22  # exact: both are multiples of 2^-31
    assert 0 < side * (value - threshold) < 12 * 2.0**-53 * 2.0**23
    if side < 0:
        _verify(f, p, f2)
    else:
        with pytest.raises(Rejected):
            _verify(f, p, f2)
    assert lifted == [(0, 0)]
