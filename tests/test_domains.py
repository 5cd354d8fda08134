"""Domain membership, recession cones, sampling, and the separating line."""

import math
import random
from fractions import Fraction

import pytest

from gleason import (
    CuspDomain,
    LaurentPolynomial,
    LogBoundary,
    QComplex,
    poly_bounded,
    split_line,
)
from gleason.division import MonomialPair
from gleason.domains import SplitLine, sample, slope_candidates
from gleason.errors import InfeasibleSplitError, InputError

from conftest import log_coordinates, monomial_bounded


def test_contains_hartogs_examples():
    d = CuspDomain.hartogs(2, 1)
    assert d.contains(0.5, 0.6)  # 0.25 < 0.6 < 1
    assert not d.contains(0.9, 0.5)  # 0.81 < 0.5 fails
    assert CuspDomain.hartogs(1, 1).contains(0, 0.5)  # z2-axis is inside
    assert not CuspDomain.hartogs(1, 1).contains(0, 0)
    assert not CuspDomain.hartogs(1, 1).contains(0.5, 1.0)  # boundary is excluded


def test_contains_is_exact_for_rational_points():
    d = CuspDomain.hartogs(2, 3)
    # |q1|^2 = |q2|^3 exactly: boundary, hence outside
    q2 = QComplex(Fraction(1, 4))
    q1 = QComplex(Fraction(1, 8))  # (1/8)^2 = (1/4)^3
    assert not d.contains(q1, q2)
    assert d.contains(q1 * QComplex(Fraction(99, 100)), q2)


def test_recession_generators():
    assert CuspDomain.hartogs(2, 3).recession_generators == ((-1, 0), (-3, -2))
    s = CuspDomain.strip(2, 3, 0.5, 2.0, 1, 1, 0.0)
    assert s.recession_generators == ((-3, -2),)


def test_monomial_pair_of_domain():
    assert CuspDomain.strip(2, 3, 0.5, 2.0, 1, 1, 0.0).pair == MonomialPair(2, 3, 1, 1)
    assert CuspDomain.hartogs(2, 3).pair == MonomialPair(2, 3, 0, 1)
    # the full cusp domain is cut by z2 whatever its unused cut fields hold
    assert CuspDomain(2, 3, cut_m=1, cut_n=2).pair == MonomialPair(2, 3, 0, 1)


def test_monomial_bounded_examples():
    d = CuspDomain.hartogs(1, 1)
    assert monomial_bounded(d, 1, -1)
    assert not monomial_bounded(d, 0, -1)
    assert monomial_bounded(d, 0, 0)
    assert not monomial_bounded(d, -1, 0)
    # on the strip the z1-direction generator is absent
    s = CuspDomain.strip(1, 1, 0.5, 2.0, 0, 1, -0.1)
    assert monomial_bounded(s, -1, 1)
    assert not monomial_bounded(s, -2, 1)


def test_poly_bounded_certificates():
    d = CuspDomain.hartogs(1, 1)
    cert = poly_bounded(d, LaurentPolynomial({(1, -1): 3}))
    assert cert.bounded and cert.violations == ()
    cert = poly_bounded(d, LaurentPolynomial({(0, -1): 1}))
    assert not cert.bounded
    assert cert.violations == ((0, -1),)
    cert = poly_bounded(d, LaurentPolynomial.zero())
    assert cert.bounded and cert.violations == ()
    # violations come out sorted ascending
    f = LaurentPolynomial({(0, -1): 1, (-2, 0): 1, (-1, -1): 1, (2, 0): 1})
    cert = poly_bounded(d, f)
    assert cert.violations == ((-2, 0), (-1, -1), (0, -1))


@pytest.mark.parametrize(
    "domain",
    [CuspDomain.hartogs(1, 1), CuspDomain.hartogs(3, 2), CuspDomain.strip(2, 3, 0.5, 2.0, 1, 1, 0.0)],
)
def test_poly_bounded_is_the_monomial_test_on_every_exponent(domain):
    rng = random.Random(5)
    exps = {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(60)}
    cert = poly_bounded(domain, LaurentPolynomial({e: 1 for e in exps}))
    expected = tuple(sorted(e for e in exps if not monomial_bounded(domain, *e)))
    assert expected and len(expected) < len(exps)
    assert cert.violations == expected and cert.bounded is False


def test_domain_validation():
    with pytest.raises(InputError):
        CuspDomain.hartogs(0, 1)
    with pytest.raises(InputError):
        CuspDomain.hartogs(1, -2)
    with pytest.raises(InputError):
        CuspDomain.strip(1, 1, 0.5, 0.4, 0, 1, 0.0)
    with pytest.raises(InputError):
        CuspDomain.strip(1, 1, -0.5, 0.4, 0, 1, 0.0)
    with pytest.raises(InputError):
        CuspDomain.strip(1, 1, 0.5, 2.0, 1, 0, 0.0)
    with pytest.raises(InputError):
        CuspDomain(k=1, l=1, kind="polydisk")


@pytest.mark.parametrize("field", ["lower", "upper", "cut_r"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind", ["hartogs_full", "strip_omega2"])
def test_non_finite_fields_are_rejected(field, value, kind):
    fields = {"lower": 0.5, "upper": 2.0, "cut_r": 0.0} if kind == "strip_omega2" else {}
    fields[field] = value
    with pytest.raises(InputError, match=f"{field} must be finite"):
        CuspDomain(k=1, l=1, kind=kind, **fields)


# -- sampling -----------------------------------------------------------------


@pytest.mark.parametrize("domain", [
    CuspDomain.hartogs(1, 1),
    CuspDomain.hartogs(3, 2),
    CuspDomain.strip(2, 1, 0.5, 2.0, 0, 1, -0.05),
    CuspDomain.strip(1, 1, 0.25, 4.0, 1, 2, 0.0),
])
def test_sample_postconditions(domain):
    pts = sample(domain, 64, seed=5)
    assert len(pts) == 64
    assert all(domain.contains(q1, q2) for q1, q2 in pts)
    assert pts == sample(domain, 64, seed=5)
    assert pts != sample(domain, 64, seed=6)


def test_sample_prefix_nesting():
    d = CuspDomain.hartogs(2, 1)
    assert sample(d, 100, seed=9)[:30] == sample(d, 30, seed=9)


def test_sample_cusp_bias_one_stays_deep():
    d = CuspDomain.hartogs(1, 1)
    for _, q2 in sample(d, 200, seed=1, cusp_bias=1.0):
        assert abs(q2) <= math.exp(-3)
    # bias zero stays shallow
    for _, q2 in sample(d, 200, seed=1, cusp_bias=0.0):
        assert math.exp(-3) <= abs(q2) < 1


def test_sample_log_consistent_with_region():
    d = CuspDomain.hartogs(2, 3)
    for x, y in zip(*log_coordinates(sample(d, 500, seed=4))):
        assert d.k * x < d.l * y < 0


def test_contains_log_image_consistency():
    d = CuspDomain.strip(1, 1, 0.5, 2.0, 1, 2, -0.1)
    for x, y in zip(*log_coordinates(sample(d, 300, seed=8))):
        assert math.log(0.5) < d.k * x - d.l * y < math.log(2.0)
        assert d.cut_n * y + d.cut_m * x <= d.cut_n * d.cut_r + 1e-9


def test_bounded_monomial_sampled_sup():
    d = CuspDomain.hartogs(1, 1)
    sup = max(abs(q1 / q2) for q1, q2 in sample(d, 2000, seed=12))
    assert sup <= 1 + 1e-9
    # unbounded direction blows up once the cusp is deep enough
    deep = sample(d, 2000, seed=12, depth=60.0)
    assert max(1 / abs(q2) for _, q2 in deep) > 1e3


def test_strip_cut_constraint():
    d = CuspDomain.strip(1, 1, 0.5, 2.0, 0, 1, -0.1)
    assert d.contains(0.3, 0.35)
    assert not d.contains(0.3, 0.95)  # above the cut
    assert not d.contains(0.1, 0.35)  # ratio below the lower bound
    assert not d.contains(0, 0.5)  # axis excluded on the strip


# -- logarithmic boundary -----------------------------------------------------


def _arc(start_deg=170.0, stop_deg=5.0, count=56, radius=1.0):
    thetas = [math.radians(start_deg + (stop_deg - start_deg) * i / (count - 1))
              for i in range(count)]
    pts = [(radius * math.cos(t), radius * math.sin(t)) for t in thetas]
    return pts


def test_log_boundary_csv_round_trip():
    b = LogBoundary.from_csv("-1,0,1\n -0.5, -0.5 ,1\n\n0.125,-0.75,0\n")
    assert b.points == ((-1.0, 0.0), (-0.5, -0.5), (0.125, -0.75))
    assert b.strict == (True, True, False)


def test_log_boundary_validation():
    with pytest.raises(InputError):
        LogBoundary(points=((0, 0),), strict=(True,))
    with pytest.raises(InputError):
        LogBoundary(points=((0, 0), (1, 1)), strict=(True,))
    with pytest.raises(InputError):
        LogBoundary(points=((0, 0), (0, 0), (1, 1)), strict=(True,) * 3)
    # zigzag violates convexity
    with pytest.raises(InputError) as info:
        LogBoundary(
            points=((0, 0), (1, 1), (2, 0), (3, 1)),
            strict=(True,) * 4,
        )
    assert "convex" in str(info.value)


def test_log_boundary_csv_errors_carry_line_numbers():
    with pytest.raises(InputError) as info:
        LogBoundary.from_csv("0,0,1\n1,1\n")
    assert "line 2" in str(info.value)
    with pytest.raises(InputError) as info:
        LogBoundary.from_csv("0,0,1\n1,x,0\n")
    assert "line 2" in str(info.value)
    with pytest.raises(InputError) as info:
        LogBoundary.from_csv("0,0,2\n")
    assert "line 1" in str(info.value)


# -- the separating line ------------------------------------------------------


def _offset(m, n, point):
    return point[1] + (m / n) * point[0]


def _check_split(boundary: LogBoundary, line: SplitLine, hit, cusp_end):
    assert math.gcd(line.m, line.n) == 1
    assert line.delta > 0
    assert _offset(line.m, line.n, hit) > line.r
    assert _offset(line.m, line.n, cusp_end) < line.r
    # every segment whose offset range meets [r - delta, r] is fully strict
    for i in range(len(boundary.points) - 1):
        oa = _offset(line.m, line.n, boundary.points[i])
        ob = _offset(line.m, line.n, boundary.points[i + 1])
        lo, hi = min(oa, ob), max(oa, ob)
        if hi >= line.r - line.delta and lo <= line.r:
            assert boundary.strict[i] and boundary.strict[i + 1]


def test_split_line_on_circular_arc():
    pts = _arc()
    b = LogBoundary(points=tuple(pts), strict=tuple([True] * len(pts)))
    line = split_line(b, Fraction(1), (0.0, 0.0))
    hit = (math.cos(math.radians(45)), math.sin(math.radians(45)))
    cusp_end = pts[-1] if pts[-1][1] < pts[0][1] else pts[0]
    _check_split(b, line, hit, cusp_end)
    assert (line.m, line.n) == (0, 1)


def test_split_line_avoids_non_strict_window():
    pts = _arc()
    flags = [not (0.25 < y < 0.45) for _, y in pts]
    b = LogBoundary(points=tuple(pts), strict=tuple(flags))
    line = split_line(b, Fraction(1), (0.0, 0.0))
    hit = (math.cos(math.radians(45)), math.sin(math.radians(45)))
    cusp_end = pts[-1]
    _check_split(b, line, hit, cusp_end)


def test_split_line_all_flags_false_is_infeasible():
    pts = _arc(count=24)
    b = LogBoundary(points=tuple(pts), strict=tuple([False] * len(pts)))
    with pytest.raises(InfeasibleSplitError):
        split_line(b, Fraction(1), (0.0, 0.0))


def test_split_line_ray_must_hit():
    pts = _arc(count=24)
    b = LogBoundary(points=tuple(pts), strict=tuple([True] * len(pts)))
    with pytest.raises(InputError):
        split_line(b, Fraction(1), (10.0, 10.0))


def test_split_line_translation_equivariance():
    rng = random.Random(3)
    for _ in range(10):
        pts = _arc(count=40, radius=rng.uniform(0.5, 2.0))
        flags = [rng.random() > 0.15 for _ in pts]
        flags[len(pts) // 2] = True  # keep the 45-degree window plausible
        b = LogBoundary(points=tuple(pts), strict=tuple(flags))
        try:
            base = split_line(b, Fraction(1), (0.0, 0.0))
        except (InfeasibleSplitError, InputError):
            continue
        tx, ty = rng.uniform(-5, 5), rng.uniform(-5, 5)
        moved = LogBoundary(
            points=tuple((x + tx, y + ty) for x, y in pts), strict=tuple(flags)
        )
        shifted = split_line(moved, Fraction(1), (tx, ty))
        assert (shifted.m, shifted.n) == (base.m, base.n)
        assert shifted.r == pytest.approx(base.r + ty + (base.m / base.n) * tx)
        assert shifted.delta == pytest.approx(base.delta)


def test_slope_candidates_order_and_coprimality():
    first = list(slope_candidates(4))
    assert first == [(0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
    assert all(math.gcd(m, n) == 1 for m, n in slope_candidates(20))
