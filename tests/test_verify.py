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
    _sample_arrays,
    _sample_power,
    eval_on_arrays,
    symbolic_residual,
)

from conftest import (
    averaged_component,
    averaged_component_on_arrays,
    chain_multiply_add,
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
    vec = eval_on_arrays(f, q1, q2)
    for idx, (a, b) in enumerate(pts):
        assert vec[idx] == pytest.approx(f.eval(a, b), rel=1e-12, abs=1e-12)


def test_eval_on_arrays_zero_polynomial():
    q = np.array([0.5 + 0j, 0.25 + 0j])
    out = eval_on_arrays(LaurentPolynomial.zero(), q, q)
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
    assert _sample_arrays.cache_info().maxsize is not None


def test_shared_powers_change_no_bit():
    rng = random.Random(31)
    polys = [rand_laurent(rng, terms=8, max_exp=4, exact=False) for _ in range(3)]
    q1, q2 = _sample_arrays(CuspDomain.hartogs(1, 1), 60, 9)
    powers = ({}, {})
    for f in polys:
        assert np.array_equal(eval_on_arrays(f, q1, q2, powers), eval_on_arrays(f, q1, q2))


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
    assert first.residual_max == float(np.max(np.abs(eval_on_arrays(residual, q1, q2))))
    assert first.sup_f1_sampled == float(np.max(np.abs(eval_on_arrays(f1, q1, q2))))


# -- the power cache ------------------------------------------------------------

# the package attribute gleason.verify is the function; the module is this one
verify_module = importlib.import_module("gleason.verify")


@pytest.fixture
def cold_cache(monkeypatch):
    """Empty sample and power caches for one test; the shared ones are untouched."""
    for name in ("_sample_arrays", "_sample_power"):
        cached = getattr(verify_module, name)
        fresh = lru_cache(maxsize=cached.cache_info().maxsize)(cached.__wrapped__)
        monkeypatch.setattr(verify_module, name, fresh)
    return verify_module._sample_power


def test_sample_powers_are_read_only(cold_cache):
    for var in (0, 1):
        for e in (-3, 0, 1, 2, 5):
            power = cold_cache(STRIP, 50, 3, var, e)
            with pytest.raises(ValueError):
                power[0] = 0
            with pytest.raises(ValueError):
                power *= 2


@pytest.mark.parametrize("domain", [CuspDomain.hartogs(2, 1), STRIP])
def test_sample_powers_are_bit_equal_to_fresh_powers(cold_cache, domain):
    q = verify_module._sample_arrays(domain, 80, 5)
    for var in (0, 1):
        fresh_q = np.array(q[var])  # a writeable copy, as a caller without the cache has
        for e in (-4, -1, 0, 1, 2, 3, 7):
            power = cold_cache(domain, 80, 5, var, e)
            assert power.tobytes() == (fresh_q**e).tobytes()
            assert cold_cache(domain, 80, 5, var, e) is power


def test_power_cache_keeps_its_byte_bound(cold_cache):
    # the bound stated in the module docstring and README: 1024 x count x 16 bytes
    keep = _sample_power.cache_info().maxsize
    assert keep == 1024 and keep * 2000 * 16 <= 32_800_000
    count = 20
    exponents = range(keep + 25)
    for e in exponents:
        assert cold_cache(STRIP, count, 3, e % 2, e).nbytes == count * 16
        assert cold_cache.cache_info().currsize <= keep
    # least recently used first out: the newest `keep` powers are the ones kept
    info = cold_cache.cache_info()
    cold_cache(STRIP, count, 3, exponents[-keep] % 2, exponents[-keep])
    assert cold_cache.cache_info().hits == info.hits + 1
    cold_cache(STRIP, count, 3, 0, 0)
    assert cold_cache.cache_info().misses == info.misses + 1


def test_verify_on_a_cold_cache_equals_verify_on_a_warm_one(cold_cache):
    rng = random.Random(41)
    domain = CuspDomain.strip(2, 1, 0.5, 2.0, 1, 1, 0.0)
    p = (0.2 + 0.1j, 0.7 - 0.1j)
    f, f1, f2 = (rand_laurent(rng, terms=7, max_exp=4, exact=False) for _ in range(3))
    cold = verify(domain, f, f1, f2, p, samples=400, seed=6)
    misses = cold_cache.cache_info().misses
    assert misses > 0
    warm = verify(domain, f, f1, f2, p, samples=400, seed=6)
    assert repr(warm) == repr(cold)
    # the warm call found every power it needed and computed none
    assert cold_cache.cache_info().misses == misses


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
