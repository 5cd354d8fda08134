"""End-to-end acceptance checks over randomized corpora.

Each test exercises one advertised guarantee at full corpus size and asserts
its wall-clock budget.  The terminal-summary hook in conftest prints one
PASS/FAIL line per check after the run.
"""

import cmath
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from gleason import (
    CuspDomain,
    GleasonError,
    LaurentPolynomial,
    LogBoundary,
    PolySyntaxError,
    QComplex,
    format_poly,
    parse_poly,
    solve,
    split_line,
    symmetric_decompose,
)
from gleason.division import (
    MonomialPair,
    ratio_cut_point,
    split_component,
    split_polynomial,
    split_ratio,
)
from gleason.domains import poly_bounded, sample
from gleason.scalars import powi
from gleason.verify import symbolic_residual

from conftest import (
    averaged_component_on_arrays,
    eval_fresh,
    fiber_values,
    log_coordinates,
    monomial,
    monomial_bounded,
    rand_bounded_poly,
    rand_interior_point,
    rand_laurent,
    rand_qcomplex,
    rand_symmetric_component,
    recombine,
    strip_cone_poly,
    subtract_value_at,
    to_ratio_cut,
)

PAIRS = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)]


def _lin_factors(p):
    one = QComplex(1) if isinstance(p[0], QComplex) else 1.0
    lin1 = LaurentPolynomial({(1, 0): one, (0, 0): -p[0]})
    lin2 = LaurentPolynomial({(0, 1): one, (0, 0): -p[1]})
    return lin1, lin2


def test_01_interior_identity():
    t0 = time.perf_counter()
    for k, l in PAIRS:
        domain = CuspDomain.hartogs(k, l)
        rng = random.Random(1000 * k + l)
        for idx in range(200):
            exact = k in (1, 2, 4) and idx % 2 == 0
            p = rand_interior_point(rng, domain, exact=exact)
            f = subtract_value_at(
                rand_bounded_poly(rng, domain, rng.randint(1, 30), exact=exact), p
            )
            sol = solve(domain, f, p, samples=0)
            assert sol.mode == "p1_nonzero"
            res = symbolic_residual(f, sol.f1, sol.f2, p)
            if exact:
                assert res.is_zero
            else:
                assert res.max_norm() <= 1e-9 * (1 + f.one_norm())
            assert sol.report.cone_violations == ()
            assert sol.report.bounded_f1 and sol.report.bounded_f2
    assert time.perf_counter() - t0 <= 30.0


def test_02_axis_branch_bound():
    t0 = time.perf_counter()
    for k, l in PAIRS:
        domain = CuspDomain.hartogs(k, l)
        pts = sample(domain, 2000, seed=7)
        q1 = np.array([a for a, _ in pts])
        q2 = np.array([b for _, b in pts])
        rng = random.Random(2000 * k + l)
        for idx in range(200):
            exact = idx % 2 == 0
            if exact:
                p2 = QComplex(Fraction(rng.randint(1, 19), 20))
                p = (QComplex(0), p2)
            else:
                r = rng.uniform(0.05, 0.95)
                t = rng.uniform(0, 2 * math.pi)
                p = (0.0, complex(r * math.cos(t), r * math.sin(t)))
            f = subtract_value_at(
                rand_bounded_poly(rng, domain, rng.randint(1, 30), exact=exact), p
            )
            sol = solve(domain, f, p, samples=0)
            assert sol.mode == "p1_zero"
            res = symbolic_residual(f, sol.f1, sol.f2, p)
            if exact:
                assert res.is_zero
            else:
                assert res.max_norm() <= 1e-9 * (1 + f.one_norm())
            rhs = 2 ** (l + 1) * f.one_norm() / abs(complex(p[1])) ** l
            assert sol.report.bound_rhs == pytest.approx(rhs, rel=1e-12, abs=0)
            if sol.f1.is_zero:
                sup = 0.0
            else:
                sup = float(np.abs(eval_fresh(sol.f1, q1, q2)).max())
            assert sup <= rhs * (1 + 1e-9)
    assert time.perf_counter() - t0 <= 20.0


def test_03_sign_regression():
    domain = CuspDomain.hartogs(1, 1)
    f = monomial(1, 0)
    p2 = QComplex(Fraction(1, 2))
    p = (QComplex(0), p2)
    sol = solve(domain, f, p, samples=0)
    assert format_poly(sol.f1) == "2z2"
    assert format_poly(sol.f2) == "-2z1"
    assert symbolic_residual(f, sol.f1, sol.f2, p).is_zero

    # same construction with the head sign flipped: f0 = 0 here, so the bad
    # second factor is S*(f/p2^l) with S the telescoping sum, l = 1
    inv = 1 / powi(p2, 1)
    f2_bad = f * LaurentPolynomial.constant(inv)
    lin1, lin2 = _lin_factors(p)
    res_bad = sol.f1 * lin1 + f2_bad * lin2 - f
    expected = f * LaurentPolynomial(
        {(0, 1): QComplex(2) * inv, (0, 0): QComplex(-2)}
    )
    assert res_bad == expected
    assert res_bad.max_norm() >= 1.0


def test_04_symmetrization_oracle():
    t0 = time.perf_counter()
    for order in (1, 2, 3, 4):
        rng = random.Random(40 + order)
        q1 = np.array(
            [
                rng.uniform(0.7, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                for _ in range(100)
            ]
        )
        q2 = np.array(
            [
                rng.uniform(0.7, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                for _ in range(100)
            ]
        )
        zeta = cmath.exp(2j * math.pi / order)
        for _ in range(50):
            f = rand_laurent(rng, terms=rng.randint(1, 12), max_exp=5)
            system = symmetric_decompose(f, order)
            assert recombine(system) == f
            scale = 1 + f.one_norm()
            for i in range(order):
                for j in range(order):
                    comp = system.components[(i, j)]
                    vals = eval_fresh(comp, q1, q2)
                    avg = averaged_component_on_arrays(f, order, i, j, q1, q2)
                    assert float(np.abs(vals - avg).max()) <= 1e-10 * scale
                    rot1 = eval_fresh(comp, zeta * q1, q2)
                    rot2 = eval_fresh(comp, q1, zeta * q2)
                    assert float(np.abs(rot1 - vals).max()) <= 1e-10 * scale
                    assert float(np.abs(rot2 - vals).max()) <= 1e-10 * scale
    assert time.perf_counter() - t0 <= 10.0


SPLIT_TUPLES = [(1, 1, 0, 1), (2, 1, 0, 1), (1, 2, 0, 1), (3, 2, 0, 1), (2, 3, 0, 1), (1, 1, 1, 1)]


def test_05_division_identities():
    t0 = time.perf_counter()
    rng = random.Random(55)
    for _ in range(100):
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        p = (rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True))
        r1, r2 = split_ratio(k, l, p)
        lin1, lin2 = _lin_factors(p)
        target = monomial(k, -l) - LaurentPolynomial.constant(
            powi(p[0], k) * powi(p[1], -l)
        )
        assert r1 * lin1 + r2 * lin2 == target

    for _ in range(100):
        p = (rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True))
        terms = {
            (rng.randint(0, 6), rng.randint(-6, 6)): rand_qcomplex(rng)
            for _ in range(rng.randint(1, 8))
        }
        P = subtract_value_at(LaurentPolynomial(terms), p)
        P1, P2 = split_polynomial(P, p)
        lin1, lin2 = _lin_factors(p)
        assert P1 * lin1 + P2 * lin2 == P

    for k, l, m, n in SPLIT_TUPLES:
        pair = MonomialPair(k, l, m, n)
        order = pair.order
        strip = CuspDomain.strip(k, l, 0.5, 2.0, m, n, 0.0)
        hartogs = CuspDomain.hartogs(k, l)
        for _ in range(200):
            p = (rand_qcomplex(rng, nonzero=True), rand_qcomplex(rng, nonzero=True))
            u_p, v_p = fiber_values(pair, p)
            i, j = rng.randrange(order), rng.randrange(order)
            h = rand_symmetric_component(rng, k, l, m, n, terms=6, exact=True)
            comp = subtract_value_at(h, p)
            g1, g2 = split_component(i, j, comp, pair, ratio_cut_point(pair, p))
            ratio_lin = LaurentPolynomial(
                {(k, -l): QComplex(1), (0, 0): -u_p}
            )
            cut_lin = LaurentPolynomial(
                {(m, n): QComplex(1), (0, 0): -v_p}
            )
            target = monomial(i, j) * comp
            assert g1 * ratio_lin + g2 * cut_lin == target
            for out in (g1, g2):
                for a, b in out.exponents():
                    assert a * l + b * k >= 0
                    assert monomial_bounded(strip, a, b)
                if (m, n) == (0, 1):
                    assert poly_bounded(hartogs, out).bounded
    assert time.perf_counter() - t0 <= 10.0


BRANCH_TUPLES = [(2, 1, 0, 1), (1, 1, 1, 1), (3, 1, 0, 1), (1, 2, 1, 1), (4, 1, 0, 1), (2, 2, 1, 1)]


def test_06_branch_independence():
    # orders 2, 3 and 4, two parameter tuples each
    assert sorted({k * n + l * m for k, l, m, n in BRANCH_TUPLES}) == [2, 3, 4]
    for k, l, m, n in BRANCH_TUPLES:
        pair = MonomialPair(k, l, m, n)
        order = pair.order
        rng = random.Random(600 + 10 * k + l + m + n)
        for _ in range(20):
            p = tuple(
                rng.uniform(0.6, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                for _ in range(2)
            )
            u_p, _ = fiber_values(pair, p)
            h = rand_symmetric_component(rng, k, l, m, n, terms=5, max_unit=2)
            g = to_ratio_cut(h, pair)
            proj = g.substitute_z1(u_p)
            scale = 1 + h.one_norm()
            log_u = cmath.log(u_p)
            for _ in range(100):
                x_val = cmath.exp(complex(rng.uniform(-1, -0.05), rng.uniform(0, 2 * math.pi)))
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


def test_07_cone_soundness():
    for k, l in PAIRS:
        domain = CuspDomain.hartogs(k, l)
        xs, ys = log_coordinates(sample(domain, 10_000, seed=11))
        xd, yd = log_coordinates(sample(domain, 10_000, seed=12, cusp_bias=0.9, depth=60.0))
        rng = random.Random(700 * k + l)
        for _ in range(500):
            a, b = rng.randint(-12, 12), rng.randint(-12, 12)
            if monomial_bounded(domain, a, b):
                sup_log = float((a * xs + b * ys).max())
                assert sup_log <= math.log1p(1e-9)
            else:
                peak_log = float((a * xd + b * yd).max())
                assert peak_log > math.log(1e3)


def _ray_polyline_hit(points, base, slope):
    bx, by = base
    dx, dy = float(slope.denominator), float(slope.numerator)
    hits = []
    for i in range(len(points) - 1):
        ax, ay = points[i]
        cx, cy = points[i + 1]
        sx, sy = cx - ax, cy - ay
        det = dx * (-sy) - dy * (-sx)
        if det == 0:
            continue
        t = ((ax - bx) * (-sy) + (ay - by) * sx) / det
        u = (dx * (ay - by) - dy * (ax - bx)) / det
        if t > 1e-12 and -1e-12 <= u <= 1 + 1e-12:
            hits.append((bx + t * dx, by + t * dy))
    assert len(hits) == 1
    return hits[0]


def _offset(m, n, point):
    return point[1] + (m / n) * point[0]


def test_08_separating_line():
    rng = random.Random(8)
    slopes = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(2, 3), Fraction(3, 2), Fraction(1, 3), Fraction(3)]
    for _ in range(50):
        radius = rng.uniform(0.5, 3.0)
        count = rng.randint(30, 80)
        start = rng.uniform(150, 175)
        stop = rng.uniform(5, 15)
        tx, ty = rng.uniform(-5, 5), rng.uniform(-5, 5)
        slope = rng.choice(slopes)
        thetas = [
            math.radians(start + (stop - start) * i / (count - 1)) for i in range(count)
        ]
        pts = [(tx + radius * math.cos(t), ty + radius * math.sin(t)) for t in thetas]
        boundary = LogBoundary(points=tuple(pts), strict=tuple([True] * count))
        line = split_line(boundary, slope, (tx, ty))
        assert math.gcd(line.m, line.n) == 1
        assert line.delta > 0
        hit = _ray_polyline_hit(pts, (tx, ty), slope)
        cusp_end = pts[-1] if pts[-1][1] < pts[0][1] else pts[0]
        assert _offset(line.m, line.n, hit) > line.r
        assert _offset(line.m, line.n, cusp_end) < line.r
        for i in range(count - 1):
            oa = _offset(line.m, line.n, pts[i])
            ob = _offset(line.m, line.n, pts[i + 1])
            if max(oa, ob) >= line.r - line.delta and min(oa, ob) <= line.r:
                assert boundary.strict[i] and boundary.strict[i + 1]


MALFORMED = ["", "   ", "z3", "z1^^2", "2 +", "(1+2i", "z1**2", "z1^"]


def test_09_parser_round_trip():
    rng = random.Random(9)
    for idx in range(500):
        exact = idx % 2 == 0
        f = rand_laurent(rng, terms=rng.randint(1, 10), exact=exact)
        canonical = format_poly(f)
        assert format_poly(parse_poly(canonical, exact=exact)) == canonical
    for idx in range(500):
        exact = idx % 2 == 0
        f = rand_laurent(rng, terms=rng.randint(1, 10), exact=exact)
        assert parse_poly(format_poly(f), exact=exact) == f
    for text in MALFORMED:
        with pytest.raises(PolySyntaxError) as err:
            parse_poly(text)
        assert isinstance(err.value.position, int) and err.value.position >= 0
        assert f"offset {err.value.position}" in str(err.value)


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "gleason.cli", *argv], capture_output=True
    )


def test_10_cli_end_to_end():
    axis = ("solve", "--k", "1", "--l", "1", "--p1", "0", "--p2", "0.5", "--f", "z1")
    first = _run_cli(*axis)
    lines = first.stdout.decode().splitlines()
    assert first.returncode == 0
    assert lines[0] == "f1 = 2z2"
    assert lines[1] == "f2 = -2z1"
    assert any(line.startswith("residual_max=0") for line in lines)

    reject = ("solve", "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.8", "--f", "z2")
    second = _run_cli(*reject)
    assert second.returncode == 2
    assert "f(p) = 0.8 != 0" in second.stderr.decode()

    info = ("info", "--k", "2", "--l", "3")
    third = _run_cli(*info)
    assert third.returncode == 0
    assert "a >= 0 and 3a + 2b >= 0" in third.stdout.decode()

    for argv, run in ((axis, first), (reject, second), (info, third)):
        again = _run_cli(*argv)
        assert again.stdout == run.stdout
        assert again.stderr == run.stderr
        assert again.returncode == run.returncode


DEEP_PAIRS = [(3, 2), (5, 1), (5, 2), (6, 1)]
DEEP_RADII = [Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)]


def _gaussian_on_circle(rng, radius: Fraction) -> QComplex:
    """Gaussian rational of modulus exactly radius, at a Pythagorean angle."""
    u, v = rng.randint(1, 3), rng.randint(0, 3)
    unit = QComplex(Fraction(u * u - v * v, u * u + v * v), Fraction(2 * u * v, u * u + v * v))
    return unit * powi(QComplex(0, 1), rng.randrange(4)) * radius


def _exact_residual_terms(f, f1, f2, p) -> dict:
    """Coefficients of f - f1*(z1-p1) - f2*(z2-p2), summed term by term."""
    acc = dict(f.terms)
    for (a, b), c in f1.terms.items():
        acc[(a + 1, b)] = acc.get((a + 1, b), 0) - c
        acc[(a, b)] = acc.get((a, b), 0) + c * p[0]
    for (a, b), c in f2.terms.items():
        acc[(a, b + 1)] = acc.get((a, b + 1), 0) - c
        acc[(a, b)] = acc.get((a, b), 0) + c * p[1]
    return acc


def _assert_exact_solution(domain, f, p):
    sol = solve(domain, f, p, samples=0)
    for out in (sol.f1, sol.f2):
        assert all(isinstance(c, QComplex) for c in out.terms.values())
        assert all(monomial_bounded(domain, a, b) for a, b in out.exponents())
    residual = _exact_residual_terms(f, sol.f1, sol.f2, p)
    assert all(isinstance(c, (QComplex, int)) and c == 0 for c in residual.values())


def test_11_deep_cusp():
    # symmetrization orders 3, 5 and 6 with base points deep in the cusp
    t0 = time.perf_counter()
    rng = random.Random(1100)
    for k, l in DEEP_PAIRS:
        domain = CuspDomain.hartogs(k, l)
        for r2 in DEEP_RADII:
            r1 = Fraction(0.5 * float(r2) ** (l / k)).limit_denominator(1000)
            for _ in range(5):
                p = (_gaussian_on_circle(rng, r1), _gaussian_on_circle(rng, r2))
                assert domain.contains(*p)
                f = subtract_value_at(rand_bounded_poly(rng, domain, 15, exact=True), p)
                _assert_exact_solution(domain, f, p)

    # strip cell of order 3: D(2, 1) cut by z1*z2, |p1| near |p2|^(1/2)
    strip = CuspDomain.strip(2, 1, 0.5, 2.0, 1, 1, 0.0)
    for r2 in DEEP_RADII:
        r1 = Fraction(float(r2) ** 0.5).limit_denominator(1000)
        for _ in range(10):
            p = (_gaussian_on_circle(rng, r1), _gaussian_on_circle(rng, r2))
            assert strip.contains(*p)
            f = subtract_value_at(strip_cone_poly(rng, 2, 1, 1, 1, 15, exact=True), p)
            _assert_exact_solution(strip, f, p)

    rng = random.Random(1101)
    raised = {}
    for k, l in DEEP_PAIRS:
        domain = CuspDomain.hartogs(k, l)
        for r2 in (0.5, 0.1, 0.01):
            r1 = 0.5 * r2 ** (l / k)
            count = 0
            for _ in range(10):
                p = (
                    r1 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                    r2 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                )
                f = subtract_value_at(rand_bounded_poly(rng, domain, 15), p)
                try:
                    solve(domain, f, p, samples=0)
                except GleasonError:
                    count += 1
            raised[(k, l, r2)] = count
    print("float solves raising per (k, l, |p2|) of 10:", raised)
    assert sum(raised.values()) <= 12  # at most 10% of 120
    assert time.perf_counter() - t0 <= 20.0
