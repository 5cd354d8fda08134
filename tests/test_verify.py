"""Residual checks, sampled sup norms, and the averaging oracle."""

import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gleason
from gleason import (
    CuspDomain,
    LaurentPolynomial,
    QComplex,
    solve,
    verify,
)
from gleason.domains import sample
from gleason.scalars import VANISH_TOL_REL
from gleason.verify import (
    VerificationReport,
    _sample_powers,
    eval_on_arrays,
    symbolic_residual,
)

from conftest import (
    averaged_component,
    averaged_component_on_arrays,
    chain_multiply_add,
    eval_fresh,
    monomial,
    rand_bounded_poly,
    rand_interior_point,
    rand_laurent,
    sampled_sup,
    subtract_value_at,
)


def _exact_pair_for_linear(p):
    """Hand-built solution of f = z2 - p2: f1 = 0, f2 = 1."""
    f = LaurentPolynomial({(0, 1): 1, (0, 0): -p[1]})
    return f, LaurentPolynomial.zero(), LaurentPolynomial.constant(1)


def test_exact_pair_reports_clean():
    domain = CuspDomain.hartogs(1, 1)
    p = (0.25, 0.5)
    f, f1, f2 = _exact_pair_for_linear(p)
    rep = verify(domain, f, f1, f2, p, samples=500, seed=7)
    assert rep.symbolic_residual_zero
    assert rep.residual_max == 0.0
    assert rep.residual_coeff_max == 0.0
    assert rep.bounded_f1 and rep.bounded_f2
    assert rep.cone_violations == ()
    assert rep.samples_used == 500 and rep.seed == 7
    assert rep.passed


def test_zero_solution_all_zero_report():
    domain = CuspDomain.hartogs(2, 1)
    zero = LaurentPolynomial.zero()
    rep = verify(domain, zero, zero, zero, (0.1, 0.5), samples=200, seed=1)
    assert rep.symbolic_residual_zero
    assert rep.residual_max == 0.0
    assert rep.sup_f_upper == 0.0
    assert rep.sup_f1_sampled == 0.0 and rep.sup_f2_sampled == 0.0
    assert rep.passed


@pytest.mark.parametrize("delta", [1e-3, 1e-6])
def test_perturbation_is_detected(delta):
    domain = CuspDomain.hartogs(1, 1)
    p = (0.25, 0.5)
    f, f1, f2 = _exact_pair_for_linear(p)
    f1_bad = f1 + monomial(1, 0, delta)
    rep = verify(domain, f, f1_bad, f2, p, samples=2000, seed=42)
    assert not rep.symbolic_residual_zero
    assert rep.residual_max > rep.identity_tol
    assert not rep.passed
    # argmax is a real witness: the residual there reproduces residual_max
    q1, q2 = rep.residual_argmax
    res = symbolic_residual(f, f1_bad, f2, p)
    assert abs(res.eval(q1, q2)) == pytest.approx(rep.residual_max, rel=1e-12)


def test_unbounded_part_flagged():
    domain = CuspDomain.hartogs(1, 1)
    p = (0.25, 0.5)
    # f2 = z2^-1 is not bounded on the domain; identity holds for f built to match
    f2 = monomial(0, -1)
    f1 = LaurentPolynomial.zero()
    lin2 = LaurentPolynomial({(0, 1): 1, (0, 0): -p[1]})
    f = f2 * lin2
    rep = verify(domain, f, f1, f2, p, samples=100, seed=3)
    assert rep.symbolic_residual_zero
    assert not rep.bounded_f2
    assert rep.cone_violations == ((0, -1),)
    assert not rep.passed


def test_verify_without_samples():
    domain = CuspDomain.hartogs(1, 1)
    p = (0.25, 0.5)
    f, f1, f2 = _exact_pair_for_linear(p)
    rep = verify(domain, f, f1, f2, p, samples=0, seed=11)
    assert rep.samples_used == 0
    assert rep.residual_max == 0.0
    assert rep.residual_argmax == (complex(p[0]), complex(p[1]))
    assert rep.passed


def test_symbolic_residual_polynomial():
    p = (QComplex(1, 1), QComplex(2))
    f = LaurentPolynomial({(1, 0): QComplex(1)})
    f1 = LaurentPolynomial.constant(QComplex(1))
    res = symbolic_residual(f, f1, LaurentPolynomial.zero(), p)
    assert res == LaurentPolynomial.constant(p[0])


def _linear_factors(p):
    """z1 - p1 and z2 - p2, formed by the operator chain."""
    return (
        monomial(1, 0) - LaurentPolynomial.constant(p[0]),
        monomial(0, 1) - LaurentPolynomial.constant(p[1]),
    )


@pytest.mark.parametrize("seed", range(12))
def test_exact_symbolic_residual_matches_the_dict_loop(seed):
    rng = random.Random(seed)
    f, f1, f2 = (rand_laurent(rng, terms=6, max_exp=2, exact=True) for _ in range(3))
    p = (QComplex(Fraction(rng.randint(1, 5), 7), 1), QComplex(Fraction(2, 3)))
    lin1, lin2 = _linear_factors(p)
    expected = chain_multiply_add(f, [(f1, lin1), (f2, lin2)], subtract=True)
    res = symbolic_residual(f, f1, f2, p)
    assert list(res.terms.items()) == list(expected.items())
    assert all(type(c) is QComplex for c in res.terms.values())
    # f built from the identity itself leaves no residual at all
    exact_f = chain_multiply_add(LaurentPolynomial.zero(), [(f1, lin1), (f2, lin2)])
    assert symbolic_residual(LaurentPolynomial(exact_f), f1, f2, p).is_zero


@pytest.mark.parametrize("seed", range(4))
def test_perturbed_exact_solution_is_refuted(seed):
    rng = random.Random(seed)
    domain = CuspDomain.hartogs(2, 1)
    p = rand_interior_point(rng, domain, exact=True)
    f = subtract_value_at(rand_bounded_poly(rng, domain, 6, max_exp=6, exact=True), p)
    sol = solve(domain, f, p, samples=0)
    assert sol.report.passed and symbolic_residual(f, sol.f1, sol.f2, p).is_zero
    exp = next(iter(sol.f1.exponents()))
    third = monomial(*exp, QComplex(Fraction(1, 3)))
    bad_f1 = sol.f1 + third
    res = symbolic_residual(f, bad_f1, sol.f2, p)
    lin1, _ = _linear_factors(p)
    assert res == -1 * (third * lin1)
    report = verify(domain, f, bad_f1, sol.f2, p, samples=0)
    assert not report.symbolic_residual_zero
    assert report.residual_coeff_max > 0
    assert report.passed is False


# -- the certified floating residual -------------------------------------------

FLIPS = json.loads((Path(__file__).parent / "data" / "residual_flips.json").read_text())


def _lifted(c):
    """(re, im) Fractions of the value a float or complex coefficient stands for."""
    z = complex(c)
    return Fraction(z.real), Fraction(z.imag)


def _exact_residual_within(f, f1, f2, p, tol) -> bool:
    """Every coefficient of f - f1*(z1-p1) - f2*(z2-p2), over the lifted floats,
    at most tol in modulus: a dict loop that shares no code with the library."""
    out: dict = {}

    def add(exp, re, im):
        old = out.get(exp, (0, 0))
        out[exp] = (old[0] + re, old[1] + im)

    for exp, c in f.terms.items():
        add(exp, *_lifted(c))
    for g, (i, j), root in ((f1, (1, 0), p[0]), (f2, (0, 1), p[1])):
        r, s = _lifted(root)
        for (a, b), c in g.terms.items():
            x, y = _lifted(c)
            add((a + i, b + j), -x, -y)
            add((a, b), x * r - y * s, x * s + y * r)
    return all(re * re + im * im <= Fraction(tol) ** 2 for re, im in out.values())


@pytest.mark.parametrize("case", FLIPS, ids=[case["name"] for case in FLIPS])
def test_float_pass_verdict_is_the_exact_residual_s(case):
    # two float_deep_cusp seed-1 instances on which the residual pruned at 1e-14
    # of its operands' norms, read against a 1e-12 noise floor, got the verdict
    # wrong: one it passed has an exact residual beyond tolerance, one it
    # rejected has every exact coefficient within it
    domain = eval(case["domain"], {"CuspDomain": CuspDomain})
    f = gleason.parse_poly(case["f"])
    p = tuple(gleason.parse_scalar(z) for z in case["p"])
    sol = solve(domain, f, p, samples=0)
    report = sol.report
    assert report.passed is case["passed"]
    assert report.symbolic_residual_zero is case["passed"]
    assert _exact_residual_within(f, sol.f1, sol.f2, p, report.identity_tol) is case["passed"]


def _pair_at(tol: float, case: str) -> tuple:
    """Gaussian-rational parts on the circle |c| = tol, or a hair outside it,
    whose float parts' modulus lies on the other side of tol."""
    t = Fraction(tol)
    if case == "within":
        return t * Fraction(12, 37), t * Fraction(35, 37)
    return t * Fraction(3, 5) + Fraction(1, 2**92), t * Fraction(4, 5)


@pytest.mark.parametrize("case", ["within", "beyond"])
def test_exact_fallback_rounds_to_its_verdict(case):
    # f's constant term is the whole residual coefficient, exact, within or a
    # hair beyond tol; rounded to nearest, its float modulus reads the other
    # verdict, so the fallback moves the stored value by ulps
    def problem(x, y):
        return LaurentPolynomial({(1, 1): QComplex(1), (0, 0): QComplex(x, y)})

    tol = VANISH_TOL_REL * (1.0 + problem(*_pair_at(2e-9, case)).one_norm())
    x, y = _pair_at(tol, case)
    f = problem(x, y)
    assert VANISH_TOL_REL * (1.0 + f.one_norm()) == tol
    within = x * x + y * y <= Fraction(tol) ** 2
    assert within == (case == "within")
    assert (abs(complex(float(x), float(y))) <= tol) != within
    # f2 = z1 cancels f's z1*z2 term in float; p1 is a float, so the float pass runs
    f1, f2 = LaurentPolynomial.zero(), LaurentPolynomial({(1, 0): 1.0 + 0j})
    got = symbolic_residual(f, f1, f2, (0.5, 0.0)).terms[(0, 0)]
    assert (abs(got) <= tol) == within
    assert abs(got - complex(float(x), float(y))) <= 4 * 2.0**-52 * tol
    report = verify(CuspDomain.hartogs(1, 1), f, f1, f2, (0.5, 0.0), samples=0)
    assert report.symbolic_residual_zero == within


# -- sampled suprema ----------------------------------------------------------


def test_sampled_sup_constant():
    domain = CuspDomain.hartogs(1, 1)
    assert sampled_sup(LaurentPolynomial.constant(3), domain, 100, seed=5) == pytest.approx(3.0)


def test_sampled_sup_z2_approaches_one():
    domain = CuspDomain.hartogs(1, 1)
    value = sampled_sup(monomial(0, 1), domain, 2000, seed=42)
    assert 0.95 < value < 1.0


def test_sampled_sup_bounded_ratio_monomial():
    domain = CuspDomain.hartogs(1, 1)
    value = sampled_sup(monomial(1, -1), domain, 2000, seed=42)
    assert value <= 1 + 1e-9


def test_sampled_sup_monotone_in_count():
    domain = CuspDomain.hartogs(2, 1)
    rng = random.Random(9)
    g = rand_laurent(rng, terms=4, max_exp=3, exact=False)
    g = LaurentPolynomial({(abs(a), abs(b)): c for (a, b), c in g.terms.items()})
    values = [sampled_sup(g, domain, n, seed=13) for n in (50, 200, 800, 2000)]
    assert values == sorted(values)


def test_sampled_sup_never_beats_coefficient_bound():
    domain = CuspDomain.hartogs(2, 3)
    rng = random.Random(31)
    from conftest import rand_bounded_poly
    from gleason import poly_bounded

    for _ in range(10):
        g = rand_bounded_poly(rng, domain, terms=8)
        assert poly_bounded(domain, g).bounded
        assert sampled_sup(g, domain, 500, seed=2) <= g.one_norm() * (1 + 1e-9)


# -- vectorized evaluation and the averaging oracle ---------------------------


def test_eval_on_arrays_matches_eval():
    rng = random.Random(15)
    f = rand_laurent(rng, terms=9, max_exp=5, exact=False)
    domain = CuspDomain.hartogs(1, 1)
    pts = sample(domain, 64, seed=20)
    q1 = np.array([q[0] for q in pts])
    q2 = np.array([q[1] for q in pts])
    vec = eval_fresh(f, q1, q2)
    for idx, (a, b) in enumerate(pts):
        assert vec[idx] == pytest.approx(f.eval(a, b), rel=1e-12, abs=1e-12)


def test_eval_on_arrays_zero_polynomial():
    q = np.array([0.5 + 0j, 0.25 + 0j])
    out = eval_fresh(LaurentPolynomial.zero(), q, q)
    assert out.shape == (2,) and np.all(out == 0)


def test_averaged_component_hand_value():
    f = monomial(1, 0)
    assert averaged_component(f, 2, 1, 0, 1.0, 1.0) == pytest.approx(1.0)
    for i, j in [(0, 0), (0, 1), (1, 1)]:
        assert averaged_component(f, 2, i, j, 1.0, 1.0) == pytest.approx(0.0)
    c = 2.5 - 1.5j
    g = LaurentPolynomial.constant(c)
    assert averaged_component(g, 3, 0, 0, 0.7, 0.9) == pytest.approx(c)


def test_averaged_component_on_arrays_matches_scalar():
    rng = random.Random(23)
    f = rand_laurent(rng, terms=6, max_exp=4, exact=False)
    q1 = np.array([0.5 + 0.1j, -0.3 + 0.4j, 0.9j])
    q2 = np.array([0.8 + 0j, 0.5 - 0.5j, -0.7 + 0.1j])
    for order in (1, 2, 3, 4):
        i, j = rng.randrange(order), rng.randrange(order)
        vec = averaged_component_on_arrays(f, order, i, j, q1, q2)
        for idx in range(len(q1)):
            scalar = averaged_component(f, order, i, j, q1[idx], q2[idx])
            assert vec[idx] == pytest.approx(scalar, rel=1e-10, abs=1e-12)


# -- the sample cache ----------------------------------------------------------

STRIP = CuspDomain.strip(1, 1, 0.5, 2.0, 1, 2, -0.25)


def _sample_arrays(domain, count, seed):
    """The (q1, q2) arrays the cached power tables of a sample key are over."""
    return tuple(table.q for table in _sample_powers(domain, count, seed))


def test_sample_arrays_are_read_only():
    for q in _sample_arrays(STRIP, 50, 3):
        with pytest.raises(ValueError):
            q[0] = 0
        with pytest.raises(ValueError):
            q *= 2


@pytest.mark.parametrize("domain", [CuspDomain.hartogs(2, 1), STRIP])
def test_sample_arrays_match_a_fresh_sample(domain):
    q1, q2 = _sample_arrays(domain, 80, 5)
    assert q1.dtype == q2.dtype == complex
    assert list(zip(q1.tolist(), q2.tolist())) == sample(domain, 80, 5)


def test_sample_arrays_are_shared_between_equal_keys():
    first = _sample_arrays(CuspDomain.hartogs(2, 1), 40, 7)
    again = _sample_arrays(CuspDomain.hartogs(2, 1), 40, 7)
    assert again[0] is first[0] and again[1] is first[1]


@pytest.mark.parametrize("key", [
    (STRIP, 40, 8),
    (STRIP, 41, 7),
    (CuspDomain(1, 1, "hartogs_full", 0.5, 2.0, 1, 2, -0.25), 40, 7),
    (CuspDomain(1, 1, "strip_omega2", 0.4, 2.0, 1, 2, -0.25), 40, 7),
    (CuspDomain(1, 1, "strip_omega2", 0.5, 2.5, 1, 2, -0.25), 40, 7),
    (CuspDomain(1, 1, "strip_omega2", 0.5, 2.0, 1, 2, -1.0), 40, 7),
])
def test_sample_arrays_differ_between_keys(key):
    q1, q2 = _sample_arrays(STRIP, 40, 7)
    r1, r2 = _sample_arrays(*key)
    assert r1 is not q1 and r2 is not q2
    assert r1.shape != q1.shape or not (np.array_equal(r1, q1) and np.array_equal(r2, q2))


def test_sample_cache_is_bounded():
    assert _sample_powers.cache_info().maxsize is not None


def test_shared_powers_change_no_bit():
    rng = random.Random(31)
    polys = [rand_laurent(rng, terms=8, max_exp=4, exact=False) for _ in range(3)]
    powers = _sample_powers(CuspDomain.hartogs(1, 1), 60, 9)
    q1, q2 = powers[0].q, powers[1].q
    for f in polys:
        assert np.array_equal(eval_on_arrays(f, q1, q2, powers), eval_fresh(f, q1, q2))


# -- evaluation against the loop it replaced --------------------------------------


def _reference_eval_on_arrays(f, q1, q2):
    """The plain loop: every term is c * q1**a * q2**b, added to a zero array."""
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    out = np.zeros(np.broadcast(q1, q2).shape, dtype=complex)
    pow1, pow2 = {}, {}
    for (a, b), c in f.terms.items():
        if a not in pow1:
            pow1[a] = q1**a
        if b not in pow2:
            pow2[b] = q2**b
        out += complex(c) * pow1[a] * pow2[b]
    return out


# parts with zeros of either sign; moduli keep every value of the tests finite
_PART = st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
_FLOAT_COEFF = st.builds(complex, _PART, _PART)
_EXACT_COEFF = st.builds(
    QComplex, st.fractions(-50, 50, max_denominator=60), st.fractions(-50, 50, max_denominator=60)
)
_EXPONENT = st.integers(-4, 4) | st.just(0)
_COORD = st.sampled_from([0.0, -0.0]) | st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
_POINT = st.builds(complex, _COORD, _COORD).filter(lambda z: abs(z) >= 0.1)


def _poly(coeff):
    return st.dictionaries(st.tuples(_EXPONENT, _EXPONENT), coeff, max_size=8).map(LaurentPolynomial)


@settings(max_examples=300)
@given(
    f=_poly(_FLOAT_COEFF) | _poly(_EXACT_COEFF),
    points=st.lists(st.tuples(_POINT, _POINT), min_size=1, max_size=12),
)
@example(f=LaurentPolynomial({}), points=[(0.5, 0.5j)])
@example(f=LaurentPolynomial({(0, 0): complex(-0.0, 2.0)}), points=[(-0.0 + 0.5j, 0.5)])
@example(f=LaurentPolynomial({(0, 3): 1.5, (-2, 0): complex(0.0, -0.0) + 1}), points=[(0.3, -0.7)])
def test_eval_on_arrays_moduli_are_the_reference_loop_s(f, points):
    q1 = np.array([a for a, _ in points], dtype=complex)
    q2 = np.array([b for _, b in points], dtype=complex)
    expected = np.abs(_reference_eval_on_arrays(f, q1, q2)).tobytes()
    assert np.abs(eval_fresh(f, q1, q2)).tobytes() == expected
    room = [64]
    shared = verify_module._Powers(q1, room), verify_module._Powers(q2, room)
    assert np.abs(eval_on_arrays(f, q1, q2, shared)).tobytes() == expected
    assert np.abs(eval_on_arrays(f, q1, q2, shared)).tobytes() == expected


@pytest.mark.parametrize("seed", range(6))
def test_eval_on_sample_tables_is_the_reference_loop_s(seed):
    rng = random.Random(seed)
    domain = CuspDomain.hartogs(rng.randint(1, 3), rng.randint(1, 3))
    powers = _sample_powers(domain, 500, seed)
    q1, q2 = powers[0].q, powers[1].q
    for exact in (False, True):
        f = rand_bounded_poly(rng, domain, 10, max_exp=5, exact=exact)
        f = LaurentPolynomial({**f.terms, (0, 0): f.coefficient(1, 1) or 1, (0, 2): 3, (2, 0): 2})
        got = eval_on_arrays(f, q1, q2, powers)
        assert got.shape == q1.shape
        assert np.abs(got).tobytes() == np.abs(_reference_eval_on_arrays(f, q1, q2)).tobytes()


def _reference_report(domain, f, f1, f2, p, samples, seed):
    """`verify` with the sampled fields taken by the reference loop on every polynomial."""
    report = verify(domain, f, f1, f2, p, samples=0, seed=seed)
    pts = sample(domain, samples, seed)
    q1 = np.array([a for a, _ in pts], dtype=complex)
    q2 = np.array([b for _, b in pts], dtype=complex)
    res, at1, at2 = (
        np.abs(_reference_eval_on_arrays(g, q1, q2)) for g in (symbolic_residual(f, f1, f2, p), f1, f2)
    )
    top = int(np.argmax(res))
    fields = {name: getattr(report, name) for name in VerificationReport.__match_args__}
    fields.update(
        residual_max=float(res[top]),
        residual_argmax=(complex(q1[top]), complex(q2[top])),
        sup_f1_sampled=float(np.max(at1)),
        sup_f2_sampled=float(np.max(at2)),
        samples_used=samples,
    )
    return VerificationReport(**fields)


@pytest.mark.parametrize("case", ["empty residual and f1", "empty f1", "random", "exact"])
def test_verify_reports_are_the_reference_path_s(case):
    rng = random.Random(case)
    domain = CuspDomain.hartogs(2, 1)
    p = (0.25 + 0.05j, 0.5 - 0.1j)
    if case == "empty residual and f1":
        f, f1, f2 = _exact_pair_for_linear(p)
    elif case == "empty f1":
        f, _, f2 = _exact_pair_for_linear(p)
        f1 = LaurentPolynomial.zero()
        f = f + monomial(0, 2, 1e-3)
    else:
        exact = case == "exact"
        f, f1, f2 = (rand_laurent(rng, terms=6, max_exp=3, exact=exact) for _ in range(3))
        if exact:
            p = (QComplex(Fraction(1, 4), Fraction(1, 20)), QComplex(Fraction(1, 2)))
    report = verify(domain, f, f1, f2, p, samples=700, seed=3)
    if case.startswith("empty"):
        assert f1.is_zero and report.sup_f1_sampled == 0.0
    if case == "empty residual and f1":
        assert symbolic_residual(f, f1, f2, p).is_zero
        assert report.residual_max == 0.0
    assert repr(report) == repr(_reference_report(domain, f, f1, f2, p, 700, 3))


def test_repeated_verify_reports_are_equal():
    rng = random.Random(37)
    domain = CuspDomain.hartogs(2, 1)
    p = (0.3 + 0.1j, 0.6 - 0.2j)
    f, f1, f2 = (rand_laurent(rng, terms=5, max_exp=3, exact=False) for _ in range(3))
    first = verify(domain, f, f1, f2, p, samples=300, seed=4)
    again = verify(domain, f, f1, f2, p, samples=300, seed=4)
    assert first == again
    pts = sample(domain, 300, 4)
    q1 = np.array([a for a, _ in pts])
    q2 = np.array([b for _, b in pts])
    residual = symbolic_residual(f, f1, f2, p)
    assert first.residual_max == float(np.max(np.abs(eval_fresh(residual, q1, q2))))
    assert first.sup_f1_sampled == float(np.max(np.abs(eval_fresh(f1, q1, q2))))


# -- the power cache ------------------------------------------------------------

# the package attribute gleason.verify is the function; the module is this one
verify_module = importlib.import_module("gleason.verify")


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty sample cache for one test; the shared one is untouched."""
    cached = verify_module._sample_powers
    fresh = lru_cache(maxsize=cached.cache_info().maxsize)(cached.__wrapped__)
    monkeypatch.setattr(verify_module, "_sample_powers", fresh)
    return fresh


def test_sample_powers_are_read_only(cold_cache):
    for var in (0, 1):
        for e in (-3, 0, 1, 2, 5):
            power = cold_cache(STRIP, 50, 3)[var][e]
            with pytest.raises(ValueError):
                power[0] = 0
            with pytest.raises(ValueError):
                power *= 2


@pytest.mark.parametrize("domain", [CuspDomain.hartogs(2, 1), STRIP])
def test_sample_powers_are_bit_equal_to_fresh_powers(cold_cache, domain):
    pts = sample(domain, 80, 5)
    for var in (0, 1):
        fresh_q = np.array([point[var] for point in pts], dtype=complex)  # drawn without the cache
        for e in (-4, -1, 0, 1, 2, 3, 7):
            power = cold_cache(domain, 80, 5)[var][e]
            assert power.tobytes() == (fresh_q**e).tobytes()
            assert cold_cache(domain, 80, 5)[var][e] is power


@pytest.mark.parametrize("domain", [CuspDomain.hartogs(2, 1), STRIP])
def test_zeroth_sample_power_is_one(cold_cache, domain):
    # eval_on_arrays skips the product by q**0 because this is exactly 1+0j
    for var in (0, 1):
        power = cold_cache(domain, 300, 5)[var][0]
        assert np.array_equal(power, np.ones(300))
        assert not np.signbit(power.real).any() and not np.signbit(power.imag).any()


def test_power_cache_keeps_its_byte_bound(cold_cache):
    # the bound stated in the module docstring and README: 16 keys of the two
    # sample arrays and at most 64 powers, each count x 16 bytes
    keys, room = cold_cache.cache_info().maxsize, 64
    assert keys == 16 and keys * (room + 2) * 2000 * 16 <= 33_800_000
    count = 20
    tables = cold_cache(STRIP, count, 3)
    assert tables[0].q.nbytes == tables[1].q.nbytes == count * 16
    for e in range(room + 25):
        power = tables[e % 2][e]
        assert power.nbytes == count * 16
        assert len(tables[0]) + len(tables[1]) == min(e + 1, room)
        assert power.flags.writeable == (e >= room)
    # a power past the room is handed out, right, but not kept
    past = tables[1][room + 23]
    assert past is not tables[1][room + 23] and past.tobytes() == (tables[1].q ** (room + 23)).tobytes()
    assert tables[0][room - 2] is tables[0][room - 2]
    # least recently used key first out: the newest `keys` are the ones kept
    seeds = range(keys + 5)
    for seed in seeds:
        cold_cache(STRIP, count, seed)
        assert cold_cache.cache_info().currsize <= keys
    info = cold_cache.cache_info()
    cold_cache(STRIP, count, seeds[-keys])
    assert cold_cache.cache_info().hits == info.hits + 1
    cold_cache(STRIP, count, seeds[0])
    assert cold_cache.cache_info().misses == info.misses + 1


def test_verify_on_a_cold_cache_equals_verify_on_a_warm_one(cold_cache, monkeypatch):
    rng = random.Random(41)
    domain = CuspDomain.strip(2, 1, 0.5, 2.0, 1, 1, 0.0)
    p = (0.2 + 0.1j, 0.7 - 0.1j)
    f, f1, f2 = (rand_laurent(rng, terms=7, max_exp=4, exact=False) for _ in range(3))
    cold = verify(domain, f, f1, f2, p, samples=400, seed=6)
    assert cold_cache.cache_info().misses == 1
    kept = [dict(table) for table in cold_cache(domain, 400, 6)]
    assert kept[0] and kept[1]

    def computed(table, exponent):
        raise AssertionError(f"power {exponent} computed again")

    monkeypatch.setattr(verify_module._Powers, "__missing__", computed)
    warm = verify(domain, f, f1, f2, p, samples=400, seed=6)
    assert repr(warm) == repr(cold)
    # the warm call found its key and every power it needed, and computed none
    assert cold_cache.cache_info().misses == 1
    assert [dict(table) for table in cold_cache(domain, 400, 6)] == kept


_NUMPY_PROBE = """
import json, sys
from fractions import Fraction
heavy = ("dataclasses", "inspect", "numpy")
seen = {}
import gleason.cli
seen["import"] = [name for name in heavy if name in sys.modules]
gleason.cli.main(["info", "--k", "2", "--l", "3"])
seen["info"] = [name for name in heavy if name in sys.modules]
f = gleason.parse_poly("z1^2*z2^-1 - 1/2", exact=True)
p = (gleason.QComplex(Fraction(1, 2)), gleason.QComplex(Fraction(1, 2)))
assert gleason.solve(gleason.CuspDomain.hartogs(2, 1), f, p, samples=0).report.passed
seen["solve"] = [name for name in heavy if name in sys.modules]
print(json.dumps(seen))
"""


def test_unsampled_work_leaves_numpy_unimported():
    # numpy is loaded only by the functions that evaluate on sample arrays, and
    # nothing loads dataclasses or the inspect module it imports, about 13 ms
    # of a cold command-line call
    src = str(Path(gleason.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen == {"import": [], "info": [], "solve": []}
