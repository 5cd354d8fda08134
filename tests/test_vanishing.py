"""Boundary of the vanishing policy at every site that applies it.

An exact value must be zero; a float value may reach 1e-9 times the norm
the site scales by.  Each case computes that threshold from the site's own
norm, puts a float defect at half and at twice the threshold, and an exact
defect of 1e-30, and checks acceptance against the site's error class.
"""

from fractions import Fraction

import pytest

from gleason import CuspDomain, LaurentPolynomial, QComplex
from gleason.division import split_polynomial
from gleason.errors import NonvanishingError, NotDivisibleError
from gleason.laurent import divide_univariate
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


def _split(f, p):
    split_polynomial(f, p)


def _divide(f, p):
    divide_univariate(f, p[1])


# (site, variable of the linear form, error class); every site scales by |f|_1
SITES = [
    (_problem, 2, NonvanishingError),
    (_split, 1, NonvanishingError),
    (_divide, 2, NotDivisibleError),
]
SITE_IDS = ["GleasonProblem", "split_polynomial", "divide_univariate"]


def _float_case(var: int, factor: float):
    """Float f whose value at P_FLOAT is factor times its own threshold."""
    root = P_FLOAT[var - 1]
    defect = factor * REL * _linear(var, root, 0).one_norm()
    f = _linear(var, root, defect)
    threshold = REL * f.one_norm()
    value = abs(f.eval(*P_FLOAT))
    assert value == pytest.approx(factor * threshold, rel=1e-6)
    return f


@pytest.mark.parametrize("site,var,error", SITES, ids=SITE_IDS)
def test_float_defect_below_threshold_is_accepted(site, var, error):
    site(_float_case(var, 0.5), P_FLOAT)


@pytest.mark.parametrize("site,var,error", SITES, ids=SITE_IDS)
def test_float_defect_above_threshold_raises(site, var, error):
    with pytest.raises(error):
        site(_float_case(var, 2.0), P_FLOAT)


@pytest.mark.parametrize("site,var,error", SITES, ids=SITE_IDS)
def test_exact_defect_raises(site, var, error):
    defect = QComplex(Fraction(1, 10**30))
    f = _linear(var, P_EXACT[var - 1], defect)
    assert f.eval(*P_EXACT) == defect
    with pytest.raises(error):
        site(f, P_EXACT)
    site(_linear(var, P_EXACT[var - 1], QComplex(0)), P_EXACT)
