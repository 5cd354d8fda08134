"""End-to-end division solves on the cusp domain and the strip."""

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gleason import (
    CuspDomain,
    LaurentPolynomial,
    QComplex,
    poly_bounded,
    solve,
)
from gleason.errors import InputError, NonvanishingError, UnboundedError
from gleason.laurent import divide_univariate, multiply_add
from gleason.scalars import powi
from gleason.solver import MODE_AXIS, MODE_INTERIOR, MODE_STRIP, _axis_parts, _pipeline_parts
from gleason.verify import symbolic_residual

from conftest import (
    max_coeff_distance,
    monomial,
    rand_bounded_poly,
    rand_interior_point,
    sampled_sup,
    strip_cone_poly,
    subtract_value_at,
)


def _lin1(p1, one=1):
    return LaurentPolynomial({(1, 0): one, (0, 0): -p1})


def _lin2(p2, one=1):
    return LaurentPolynomial({(0, 1): one, (0, 0): -p2})


def _check_exact(sol, f, p):
    assert sol.report.symbolic_residual_zero
    one = QComplex(1) if f.is_exact() else 1
    rebuilt = sol.f1 * _lin1(p[0], one) + sol.f2 * _lin2(p[1], one)
    if f.is_exact() and sol.f1.is_exact() and sol.f2.is_exact():
        assert rebuilt == f
    else:
        assert max_coeff_distance(rebuilt, f) <= 1e-9 * (1 + f.one_norm())


# -- the four pinned solves ---------------------------------------------------


@pytest.mark.parametrize("k,l,p", [(1, 1, (0.25, 0.5)), (2, 3, (0.2, 0.7)), (3, 1, (0.0, 0.5))])
def test_trivial_coordinate_solve(k, l, p):
    domain = CuspDomain.hartogs(k, l)
    f = _lin2(p[1])
    sol = solve(domain, f, p, samples=200, seed=2)
    assert sol.f1.is_zero
    assert sol.f2 == LaurentPolynomial.constant(1)
    assert sol.report.passed


def test_interior_ratio_solve():
    domain = CuspDomain.hartogs(1, 1)
    p = (QComplex(Fraction(1, 2)), QComplex(Fraction(4, 5)))
    c = p[0] / p[1]
    f = LaurentPolynomial({(1, -1): QComplex(1), (0, 0): -c})
    sol = solve(domain, f, p, samples=200, seed=2)
    assert sol.mode == MODE_INTERIOR
    inv = QComplex(1) / p[1]  # 5/4
    assert sol.f1 == LaurentPolynomial.constant(inv)
    assert sol.f2 == LaurentPolynomial({(1, -1): -inv})
    _check_exact(sol, f, p)


def test_axis_solve_with_corrected_sign():
    domain = CuspDomain.hartogs(1, 1)
    f = monomial(1, 0)
    sol = solve(domain, f, (0, 0.5), samples=2000, seed=42)
    assert sol.mode == MODE_AXIS
    assert sol.f1 == monomial(0, 1, 2.0)
    assert sol.f2 == monomial(1, 0, -2.0)
    assert sol.report.residual_max == 0.0
    assert sol.report.bound_rhs == pytest.approx(8.0)  # 2^2 * 1 / 0.5
    assert sol.report.sup_f1_sampled <= 2.0 <= sol.report.bound_rhs


def test_interior_product_solve():
    domain = CuspDomain.hartogs(1, 1)
    p = (QComplex(Fraction(1, 2)), QComplex(Fraction(4, 5)))
    c = p[0] / p[1]
    ratio_lin = LaurentPolynomial({(1, -1): QComplex(1), (0, 0): -c})
    f = ratio_lin * _lin2(p[1], QComplex(1))
    sol = solve(domain, f, p, samples=200, seed=4)
    inv = QComplex(1) / p[1]
    assert sol.f1 == _lin2(p[1], QComplex(1)) * inv
    assert sol.f2 == LaurentPolynomial({(1, -1): -inv}) * _lin2(p[1], QComplex(1))
    _check_exact(sol, f, p)


# -- the axis-branch sign regression ------------------------------------------


def _axis_oracle(f, l, p2, sign):
    """Independent construction of the p1 = 0 branch's f2 with either sign."""
    f0 = LaurentPolynomial({e: c for e, c in f.terms.items() if e[0] == 0})
    comb = LaurentPolynomial({(0, j): powi(p2, l - 1 - j) for j in range(l)})
    inv = 1 / powi(p2, l)
    head = comb * (f - f0) * (sign * inv)
    return head + divide_univariate(f0, p2)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_axis_sign_regression(l):
    domain = CuspDomain.hartogs(2, l)
    p2 = QComplex(Fraction(3, 5))
    rng = random.Random(l)
    f = subtract_value_at(
        rand_bounded_poly(rng, domain, terms=10, exact=True), (QComplex(0), p2)
    )
    sol = solve(domain, f, (QComplex(0), p2), samples=0)
    good = _axis_oracle(f, l, p2, QComplex(-1))
    assert sol.f2 == good

    # the flipped sign breaks the identity by an explicitly known residual
    bad = _axis_oracle(f, l, p2, QComplex(1))
    residual = symbolic_residual(f, sol.f1, bad, (QComplex(0), p2))
    f0 = LaurentPolynomial({e: c for e, c in f.terms.items() if e[0] == 0})
    pl = powi(p2, l)
    expected = (f - f0) * (LaurentPolynomial.constant(pl) - monomial(0, l)) * (QComplex(2) / pl)
    assert residual == expected
    if not (f - f0).is_zero:
        assert residual.max_norm() >= 1.0 or not residual.is_zero


def test_axis_solve_of_axis_only_function():
    # f independent of z1: the whole solution rides on f2
    domain = CuspDomain.hartogs(1, 2)
    p2 = 0.6
    f = LaurentPolynomial({(0, 2): 1.0, (0, 0): -(p2**2)})
    sol = solve(domain, f, (0, p2), samples=300, seed=6)
    assert sol.f1.is_zero
    assert sol.f2 == divide_univariate(f, p2)
    assert sol.report.passed


def _reference_axis_parts(f, l, p2):
    """The axis branch's slice formulas, written out without the ratio split:

        f1 = (z2^l / p2^l) * (f - f0) / z1,
        f2 = -(sum_{j<l} z2^j p2^(l-1-j)) * (f - f0) / p2^l + f0 / (z2 - p2).
    """
    axis_terms: dict = {}
    rest_terms: dict = {}
    for (a, b), c in f.terms.items():
        (axis_terms if a == 0 else rest_terms)[(a, b)] = c
    f0 = LaurentPolynomial(axis_terms, prune_scale=f.max_norm)
    rest = LaurentPolynomial(rest_terms, prune_scale=f.max_norm)
    power = powi(p2, l)
    if not power:  # a float p2^l that underflowed
        raise InputError("float overflow: 1/p2^l is out of the float range")
    inv = 1 / power
    f1 = LaurentPolynomial(
        {(a - 1, b + l): c * inv for (a, b), c in rest.terms.items()},
        prune_scale=lambda: f.max_norm() * abs(inv),
    )
    comb = LaurentPolynomial({(0, j): -(powi(p2, l - 1 - j) * inv) for j in range(l)})
    f2 = comb * rest + divide_univariate(f0, p2)
    size = abs(power)
    bound_rhs = 2 ** (l + 1) * float(f.one_norm()) / size if size else math.inf
    if not math.isfinite(bound_rhs):
        raise InputError("float overflow: the axis bound 2^(l+1)*|f|_1/|p2|^l is out of the float range")
    return f1, f2, bound_rhs


def _parts_state(compute) -> tuple:
    """Each part's terms in order with coefficient reprs and stored norm, and
    the bound's repr; or the type and message of the error raised."""
    try:
        f1, f2, bound_rhs = compute()
    except Exception as err:  # compared by its type and message
        return type(err).__name__, str(err)
    states = [([(e, repr(c)) for e, c in g.terms.items()], repr(g._norm)) for g in (f1, f2)]
    return states, repr(bound_rhs)


def _axis_input(terms: dict, exact: bool, p2):
    """f from terms with z1-exponents >= 0, made to vanish at (0, p2) through
    its constant term, with the base point; None where the float range ends."""
    p = (QComplex(0) if exact else 0.0, p2)
    try:
        f = LaurentPolynomial(terms)
        f = f - LaurentPolynomial.constant(f.eval(*p))
    except InputError:  # an infinite f(p) sets an infinite prune scale
        return None
    return f, p


_axis_exponents = st.tuples(st.integers(0, 4), st.integers(-6, 6))
_exact_axis_inputs = st.builds(
    _axis_input,
    st.dictionaries(_axis_exponents, st.fractions(-4, 4, max_denominator=6), max_size=6),
    st.just(True),
    st.builds(
        lambda q, e: QComplex(q / 10**e),
        st.fractions(-1, 1, max_denominator=9).filter(bool),
        st.integers(0, 330),
    ),
)
_float_axis_inputs = st.builds(
    _axis_input,
    st.dictionaries(
        _axis_exponents,
        st.builds(lambda c, e: c * 10.0**e, st.complex_numbers(max_magnitude=1.0), st.integers(-20, 20)),
        max_size=6,
    ),
    st.just(False),
    st.builds(
        lambda c, e: c * 10.0**e,
        st.one_of(
            st.floats(0.1, 1.0), st.floats(-1.0, -0.1), st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
        ),
        st.integers(-70, 0),
    ),
)


@given(st.one_of(_exact_axis_inputs, _float_axis_inputs).filter(bool), st.integers(1, 6))
@example((LaurentPolynomial({(1, 0): -1.0}), (0.0, -0.5)), 1)  # f1 = (2-0j), with its signed zero
@example((LaurentPolynomial({(1, 0): 1.0}), (0.0, 1e-60)), 6)  # p2^6 underflows
@example((LaurentPolynomial({(1, 0): QComplex(1)}), (QComplex(0), QComplex(Fraction(1, 10**320)))), 1)
def test_axis_parts_are_the_slice_formulas(case, l):
    # the ratio split at p1 = 0 builds the slice formulas' parts term for
    # term, with their norms, and their bound, or raises their error
    f, p = case
    want = _parts_state(lambda: _reference_axis_parts(f, l, p[1]))
    assert _parts_state(lambda: _axis_parts(f, l, p)) == want


# -- randomized exactness and cone soundness ----------------------------------


@pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 2), (2, 3), (4, 1)])
def test_random_interior_solves_exact(k, l):
    domain = CuspDomain.hartogs(k, l)
    rng = random.Random(k * 13 + l)
    exact = k in (1, 2, 4)
    for _ in range(8):
        p = rand_interior_point(rng, domain, exact=exact)
        f = subtract_value_at(rand_bounded_poly(rng, domain, terms=8, exact=exact), p)
        sol = solve(domain, f, p, samples=0)
        assert sol.mode == MODE_INTERIOR
        _check_exact(sol, f, p)
        assert poly_bounded(domain, sol.f1).bounded
        assert poly_bounded(domain, sol.f2).bounded
        if exact and f.is_exact():
            assert sol.f1.is_exact() and sol.f2.is_exact()


def test_random_axis_solves():
    rng = random.Random(99)
    for k, l in [(1, 1), (2, 2), (3, 1)]:
        domain = CuspDomain.hartogs(k, l)
        p = (0, rng.uniform(0.1, 0.9))
        f = subtract_value_at(rand_bounded_poly(rng, domain, terms=10), p)
        sol = solve(domain, f, p, samples=400, seed=8)
        assert sol.mode == MODE_AXIS
        assert sol.report.passed
        assert sampled_sup(sol.f1, domain, 400, seed=9) <= sol.report.bound_rhs


def test_strip_solves_and_matches_interior_pipeline():
    rng = random.Random(55)
    for k, l in [(1, 1), (2, 1)]:
        hart = CuspDomain.hartogs(k, l)
        p = rand_interior_point(rng, hart, exact=False)
        ratio = abs(p[0]) ** k / abs(p[1]) ** l
        strip = CuspDomain.strip(
            k, l, ratio * 0.5, min(ratio * 2.0, 0.999), 0, 1, math.log(abs(p[1])) / 2
        )
        assert strip.contains(*p)
        f = subtract_value_at(rand_bounded_poly(rng, hart, terms=8), p)
        sol_hart = solve(hart, f, p, samples=0)
        sol_strip = solve(strip, f, p, samples=0)
        assert sol_strip.mode == MODE_STRIP
        assert sol_hart.mode == MODE_INTERIOR
        assert sol_strip.f1 == sol_hart.f1
        assert sol_strip.f2 == sol_hart.f2
        assert sol_strip.report.symbolic_residual_zero


def test_strip_general_cut_solve():
    # k=l=1 with cut monomial z1*z2: order 2, exact roots available
    strip = CuspDomain.strip(1, 1, 0.25, 4.0, 1, 1, 0.0)
    p = (QComplex(Fraction(1, 2)), QComplex(Fraction(2, 3)))
    assert strip.contains(*p)
    rng = random.Random(3)
    f = subtract_value_at(strip_cone_poly(rng, 1, 1, 1, 1, terms=8, exact=True), p)
    sol = solve(strip, f, p, samples=0)
    assert sol.mode == MODE_STRIP
    _check_exact(sol, f, p)
    for out in (sol.f1, sol.f2):
        assert poly_bounded(strip, out).bounded


def test_strip_solve_of_cut_monomial():
    strip = CuspDomain.strip(1, 1, 0.25, 4.0, 1, 1, 0.0)
    p = (QComplex(Fraction(1, 2)), QComplex(Fraction(2, 3)))
    x_p = p[0] * p[1]
    f = LaurentPolynomial({(1, 1): QComplex(1), (0, 0): -x_p})
    sol = solve(strip, f, p, samples=0)
    # single component with the trivial cut part: outputs are split_polynomial's
    from gleason.division import split_polynomial

    v1, v2 = split_polynomial(f, p)
    assert sol.f1 == v1 and sol.f2 == v2
    _check_exact(sol, f, p)


def test_low_degree_input_short_circuits_to_polynomial_split():
    # when f equals its own correction polynomial the components vanish
    domain = CuspDomain.hartogs(2, 1)
    p = (QComplex(Fraction(1, 3)), QComplex(Fraction(1, 2)))
    f = LaurentPolynomial({(1, 1): QComplex(1), (0, 0): -p[0] * p[1]})
    sol = solve(domain, f, p, samples=0)
    assert sol.f1 == monomial(0, 1)
    assert sol.f2 == LaurentPolynomial.constant(p[0])
    _check_exact(sol, f, p)


def test_zero_function_solves_to_zero():
    domain = CuspDomain.hartogs(1, 1)
    zero = LaurentPolynomial.zero()
    for p in [(0.25, 0.5), (0, 0.5)]:
        sol = solve(domain, zero, p, samples=50, seed=1)
        assert sol.f1.is_zero and sol.f2.is_zero
        assert sol.report.passed


def test_solver_linearity_in_exact_mode():
    domain = CuspDomain.hartogs(2, 1)
    rng = random.Random(121)
    p = rand_interior_point(rng, domain, exact=True)
    f = subtract_value_at(rand_bounded_poly(rng, domain, terms=6, exact=True), p)
    g = subtract_value_at(rand_bounded_poly(rng, domain, terms=6, exact=True), p)
    sf = solve(domain, f, p, samples=0)
    sg = solve(domain, g, p, samples=0)
    sfg = solve(domain, f + g, p, samples=0)
    assert sfg.f1 == sf.f1 + sg.f1
    assert sfg.f2 == sf.f2 + sg.f2


# -- typed failures -----------------------------------------------------------


def test_base_point_outside_domain():
    domain = CuspDomain.hartogs(1, 1)
    with pytest.raises(InputError):
        solve(domain, monomial(1, 0), (0.9, 0.5))


def test_unbounded_function_rejected_with_certificate():
    domain = CuspDomain.hartogs(1, 1)
    f = LaurentPolynomial({(0, -1): 1, (0, 1): 1, (0, 0): -0.5 - 2.0})
    with pytest.raises(UnboundedError) as info:
        solve(domain, f, (0.25, 0.5))
    assert info.value.certificate.violations == ((0, -1),)


def test_nonvanishing_function_rejected_with_value():
    domain = CuspDomain.hartogs(1, 1)
    with pytest.raises(NonvanishingError) as info:
        solve(domain, monomial(0, 1), (0.25, 0.5))
    assert info.value.value == pytest.approx(0.5)


def test_force_branch_validation():
    domain = CuspDomain.hartogs(1, 1)
    strip = CuspDomain.strip(1, 1, 0.25, 4.0, 0, 1, -0.05)
    f = _lin2(0.5)
    with pytest.raises(InputError, match="unknown branch 'bogus'"):
        solve(domain, f, (0.25, 0.5), force_branch="bogus")
    # a forced branch is only checked against the dispatch; the error names both
    with pytest.raises(InputError, match=f"'{MODE_AXIS}'.*'{MODE_INTERIOR}'"):
        solve(domain, f, (0.25, 0.5), force_branch=MODE_AXIS)
    with pytest.raises(InputError):
        solve(domain, f, (0, 0.5), force_branch=MODE_INTERIOR)
    with pytest.raises(InputError):
        solve(domain, f, (0.25, 0.5), force_branch=MODE_STRIP)
    with pytest.raises(InputError):
        solve(strip, f, (0.5, 0.5), force_branch=MODE_INTERIOR)
    # explicit branch matching the dispatch is allowed
    sol = solve(domain, f, (0, 0.5), force_branch=MODE_AXIS, samples=50, seed=1)
    assert sol.mode == MODE_AXIS


def test_float_pipeline_order_three_degrades_gracefully():
    # k = 3 has no exact root of unity: exact inputs degrade to floats
    domain = CuspDomain.hartogs(3, 1)
    rng = random.Random(17)
    p = rand_interior_point(rng, domain, exact=False)
    f = subtract_value_at(rand_bounded_poly(rng, domain, terms=8), p)
    sol = solve(domain, f, p, samples=300, seed=5)
    assert sol.report.passed
    assert sol.report.residual_max <= sol.report.identity_tol


@pytest.mark.parametrize("k,l,coeff,exp,p", [
    (2, 3, 1.274771666299252 + 0.023021480359028512j, (5, 11),
     (-0.0016143179259597714 - 0.01594534966294673j, -0.2357228049883171 - 0.02624679838643026j)),
    (1, 2, 0.686099889402251 + 1.297010847326883j, (11, 1),
     (0.0762199339545858 + 0.00929676462670597j, -0.4536352444713789 - 0.6107819475689877j)),
], ids=["float_sampled-1-63", "float_sampled-1-354"])
def test_monomial_whose_correction_fails_its_own_vanishing_scale_solves(k, l, coeff, exp, p):
    # f(p) passes the input test, while the correction polynomial's value at p
    # exceeds 1e-9 of its own much smaller norm: the certified residual decides
    sol = solve(CuspDomain.hartogs(k, l), LaurentPolynomial({exp: coeff}), p)
    assert sol.mode == MODE_INTERIOR
    assert sol.report.passed


def _no_float_modulus(self):
    raise AssertionError("float modulus taken of an exact coefficient")


@pytest.mark.parametrize(
    "domain",
    [
        CuspDomain.hartogs(2, 1),
        CuspDomain.hartogs(3, 2),
        CuspDomain.strip(1, 1, 0.25, 4.0, 1, 1, 0.0),
    ],
    ids=["interior-2-1", "interior-3-2", "strip-cut-z1z2"],
)
def test_exact_pipeline_takes_no_float_modulus(monkeypatch, domain):
    # prune scales and vanishing scales are float work that exact mode never uses
    rng = random.Random(29)
    for _ in range(4):
        if domain.kind == "hartogs_full":
            p = rand_interior_point(rng, domain, exact=True)
            f = subtract_value_at(rand_bounded_poly(rng, domain, terms=10, exact=True), p)
        else:
            p = (QComplex(Fraction(1, 2)), QComplex(Fraction(2, 3)))
            f = subtract_value_at(strip_cone_poly(rng, 1, 1, 1, 1, terms=8, exact=True), p)
        with monkeypatch.context() as patch:
            patch.setattr(QComplex, "__abs__", _no_float_modulus)
            f1, f2 = _pipeline_parts(f, p, domain.pair)
        assert symbolic_residual(f, f1, f2, p).is_zero


@pytest.mark.parametrize(
    "domain",
    [
        CuspDomain.hartogs(3, 2),
        CuspDomain.hartogs(5, 1),
        CuspDomain.strip(1, 1, 0.25, 4.0, 1, 1, 0.0),
    ],
    ids=["interior-3-2", "interior-5-1", "strip-cut-z1z2"],
)
def test_float_pipeline_takes_the_float_kernel(monkeypatch, domain):
    # the recombination accumulates in the floating multiply_add kernel and the
    # residual in the shift kernel: inside either, the operator chain's * and +
    # must never run, and the residual never takes the general product loop
    laurent = importlib.import_module("gleason.laurent")
    inside = []
    calls = []

    def track(kernel, name):
        def tracked(base, products, *args):
            calls.append((name, len(products)))
            inside.append(name)
            try:
                return kernel(base, products, *args)
            finally:
                inside.pop()

        return tracked

    def refuse(owner, name, where):
        op = getattr(owner, name)

        def guarded(*args):
            if inside and inside[-1] in where:
                raise AssertionError(f"{inside[-1]} fell back to {name}")
            return op(*args)

        return guarded

    # gleason.verify is also the name of a function: import the modules by path
    solver, verify = (importlib.import_module(m) for m in ("gleason.solver", "gleason.verify"))
    monkeypatch.setattr(solver, "multiply_add", track(multiply_add, "multiply_add"))
    monkeypatch.setattr(
        verify,
        "subtract_linear_multiples",
        track(laurent.subtract_linear_multiples, "subtract_linear_multiples"),
    )
    both = ("multiply_add", "subtract_linear_multiples")
    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(LaurentPolynomial, name, refuse(LaurentPolynomial, name, both))
    monkeypatch.setattr(
        laurent,
        "_term_products",
        refuse(laurent, "_term_products", ("subtract_linear_multiples",)),
    )
    rng = random.Random(31)
    for _ in range(4):
        if domain.kind == "hartogs_full":
            p = rand_interior_point(rng, domain)
            f = subtract_value_at(rand_bounded_poly(rng, domain, terms=10), p)
        else:
            p = (0.5, 2 / 3)
            f = subtract_value_at(strip_cone_poly(rng, 1, 1, 1, 1, terms=8), p)
        f1, f2 = _pipeline_parts(f, p, domain.pair)
        residual = symbolic_residual(f, f1, f2, p)
        assert residual.max_norm() <= 1e-9 * (1 + f.one_norm())
        assert all(type(c) is complex for c in residual.terms.values())
    # per instance two recombinations, each with products, then one residual
    # with its two linear parts
    assert [name for name, _ in calls] == 4 * ["multiply_add", "multiply_add", "subtract_linear_multiples"]
    assert all(n for name, n in calls if name == "multiply_add")
    assert [n for name, n in calls if name == "subtract_linear_multiples"] == [2, 2, 2, 2]


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_infinite_part_names_the_float_overflow(monkeypatch, name):
    # a recombination sum can overflow below its finite prune threshold:
    # 1e308 + 1e308 is stored as inf, and such a part must not reach the report
    big = LaurentPolynomial({(0, 0): 1e308 + 0j})
    inf = multiply_add(big, [(big, LaurentPolynomial.constant(1.0))])
    assert inf.max_norm() == math.inf
    solver = importlib.import_module("gleason.solver")
    monkeypatch.setattr(solver, "_pipeline_parts", lambda f, p, pair: (inf, big) if name == "f1" else (big, inf))
    with pytest.raises(InputError, match=f"^float overflow: {name} is out of the float range$"):
        solve(CuspDomain.hartogs(1, 1), LaurentPolynomial({(1, 0): 1.0 + 0j, (0, 0): -0.25 + 0j}), (0.25, 0.5))
