"""Domain membership, recession cones, sampling, and the separating line."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def _exact_contains(d: CuspDomain, q1: complex, q2: complex) -> bool:
    """Membership of the floats' exact values, in rationals; the cut in logs."""
    m1, m2 = (Fraction(q.real) ** 2 + Fraction(q.imag) ** 2 for q in (q1, q2))
    if d.kind == "hartogs_full":
        return m1**d.k < m2**d.l < 1
    if not m1 or not m2:
        return False
    den = m2**d.l
    if not Fraction(d.lower) ** 2 * den < m1**d.k < Fraction(d.upper) ** 2 * den:
        return False
    x, y = (0.5 * (math.log(m.numerator) - math.log(m.denominator)) for m in (m1, m2))
    return d.cut_n * y + d.cut_m * x <= d.cut_n * d.cut_r


CONTAINS_DOMAINS = [
    CuspDomain.hartogs(1, 1),
    CuspDomain.hartogs(5, 5),
    CuspDomain.hartogs(4, 1),
    CuspDomain.strip(1, 1, 0.1, 1e200, 0, 1, 0.0),
    CuspDomain.strip(2, 3, 1e-180, 0.5, 1, 1, 0.0),
    CuspDomain.strip(5, 2, 0.25, 2.0, 1, 2, 5.0),
]


@pytest.mark.parametrize("d", CONTAINS_DOMAINS, ids=lambda d: f"{d.kind}-{d.k}-{d.l}-{d.upper:g}")
def test_contains_deep_and_huge_float_points(d):
    # moduli from 1e-300 to 1e300: many float powers under- or overflow, and
    # membership must still agree with the exact values' membership
    rng = random.Random(d.k * 10 + d.l)
    for _ in range(2000):
        y = rng.uniform(-690, 10)
        x = (d.l * y + rng.uniform(-60, 60)) / d.k
        if rng.random() < 0.5 and d.kind == "hartogs_full":
            x = rng.uniform(-690, 690)
        q1, q2 = (math.exp(t) * complex(math.cos(a), math.sin(a)) for t, a in
                  ((x, rng.uniform(0, 6.3)), (y, rng.uniform(0, 6.3))))
        assert d.contains(q1, q2) == _exact_contains(d, q1, q2), (q1, q2)


# all but the two strips whose bounds' float squares leave the normal range
@pytest.mark.parametrize("d", CONTAINS_DOMAINS, ids=lambda d: f"{d.kind}-{d.k}-{d.l}-{d.upper:g}")
def test_contains_at_the_ends_of_the_float_range(d):
    # |q|^2 is past the largest float, or subnormal, or below the smallest
    # subnormal: membership is still the exact values', and nothing raises
    huge, tiny = 1.5e308, 5e-324
    points = [
        (complex(huge, huge), 0.5),
        (0.5, complex(huge, -huge)),
        (complex(huge, huge), complex(huge, huge)),
        (3e-158, 3.0000000001e-158),
        (3.0000000001e-158, 3e-158),
        (complex(tiny, tiny), 2 * tiny),
        (tiny, complex(0, 1e-300)),
    ]
    for q1, q2 in points:
        assert d.contains(q1, q2) == _exact_contains(d, complex(q1), complex(q2)), (q1, q2)
    assert not d.contains(math.nan, 0.5) and not d.contains(0.5, complex(0, math.inf))


MAGNITUDES = [5e-324, 1e-310, 3e-158, 1e-100, 1e-13, 0.3, 0.99]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_contains_separates_adjacent_floats(k):
    # an oracle that needs no arithmetic: for positive reals, hartogs(k, k) is
    # q1 < q2 < 1, and strip(k, k, 2^-k, 2^k) cut at |q2| = 1 is q2/2 < q1 < 2 q2
    hartogs = CuspDomain.hartogs(k, k)
    strip = CuspDomain.strip(k, k, 2.0**-k, 2.0**k, 0, 1, 0.0)
    for r in MAGNITUDES:
        up = math.nextafter(r, math.inf)
        assert hartogs.contains(r, up) and hartogs.contains(complex(0, r), up)
        assert not hartogs.contains(r, r) and not hartogs.contains(up, r)
        if r < 1e-300:
            continue  # r/2 or 2r would round
        for bound, inward in ((r / 2, math.inf), (2 * r, 0.0)):
            assert not strip.contains(bound, r)
            assert strip.contains(math.nextafter(bound, inward), complex(0, r))
    assert not hartogs.contains(1.5e308, math.nextafter(1.5e308, math.inf))


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


def test_sample_stays_in_its_bands():
    # log|z2| in [-30, -3] with chance CUSP_BIAS = 1/2, otherwise in [-3, -1e-3]
    ys = [math.log(abs(q2)) for _, q2 in sample(CuspDomain.hartogs(1, 1), 400, seed=1)]
    assert all(-30 - 1e-9 <= y <= -1e-3 + 1e-9 for y in ys)
    assert 150 <= sum(y <= -3 for y in ys) <= 250


def test_sample_shifts_a_band_that_lies_above_the_cut():
    # the cut y <= -40 lies below the deep band [-30, -3], so both bands are
    # shifted down to end at the strip's ceiling
    d = CuspDomain.strip(1, 1, 0.5, 2.0, 0, 1, -40.0)
    pts = sample(d, 500, seed=7)
    assert all(d.contains(q1, q2) for q1, q2 in pts)
    assert all(math.log(abs(q2)) <= -40 for _, q2 in pts)


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
    # the unbounded direction blows up in the deep band
    assert max(1 / abs(q2) for _, q2 in sample(d, 2000, seed=12)) > 1e3


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(10, 0), (23, 1)])
def test_log_boundary_rejects_a_non_finite_point(bad, where):
    pts = [list(point) for point in _arc(count=24)]
    index, axis = where
    pts[index][axis] = bad
    with pytest.raises(InputError, match=f"^boundary point at index {index} must be finite"):
        LogBoundary(points=tuple(map(tuple, pts)), strict=(True,) * 24)
    csv = "\n".join(f"{x!r},{y!r},1" for x, y in pts)
    with pytest.raises(InputError, match=f"^boundary point at index {index} must be finite"):
        LogBoundary.from_csv(csv)


@pytest.mark.parametrize("base", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_split_line_rejects_a_non_finite_base(base):
    pts = _arc(count=24)
    b = LogBoundary(points=tuple(pts), strict=tuple([True] * len(pts)))
    with pytest.raises(InputError, match="^base point must be finite"):
        split_line(b, Fraction(1), base)


@pytest.mark.parametrize("slope", [Fraction(10**400), Fraction(1, 10**400)], ids=["1e400", "1e-400"])
def test_split_line_rejects_a_slope_past_the_float_range(slope):
    pts = _arc(count=24)
    b = LogBoundary(points=tuple(pts), strict=tuple([True] * len(pts)))
    with pytest.raises(InputError, match="^cusp slope's numerator or denominator is out of the float range$"):
        split_line(b, slope, (0.0, 0.0))


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


def _reference_split_line(boundary, cusp_slope, base_point, max_slope_sum=64):
    """`split_line` as it was, merging the non-strict offset intervals before its sweep."""
    pts = boundary.points
    flags = boundary.strict
    px, py = float(base_point[0]), float(base_point[1])
    slope = Fraction(cusp_slope)
    dx, dy = float(slope.denominator), float(slope.numerator)

    hits = []
    last = len(pts) - 2
    for i in range(len(pts) - 1):
        ax, ay = pts[i]
        bx, by = pts[i + 1]
        ex, ey = bx - ax, by - ay
        det = dx * ey - dy * ex
        if abs(det) < 1e-15 * (1 + abs(dx * ey) + abs(dy * ex)):
            continue
        qx, qy = ax - px, ay - py
        t = (qx * ey - qy * ex) / det
        s = (qx * dy - qy * dx) / det
        s_hi = 1.0 + 1e-12 if i == last else 1.0
        if t > 1e-12 and -1e-12 <= s < s_hi:
            hits.append((i, t, s))
    if not hits:
        raise InputError("ray from the base point misses the boundary")
    if len(hits) > 1:
        raise InputError("ray from the base point crosses the boundary more than once")
    seg, t_hit, _ = hits[0]
    ax_hit = px + t_hit * dx
    ay_hit = py + t_hit * dy
    if not (flags[seg] and flags[seg + 1]):
        raise InfeasibleSplitError("ray crossing is not inside a strictly convex vertex window")
    end = pts[0] if pts[0][1] < pts[-1][1] else pts[-1]

    for m, n in slope_candidates(max_slope_sum):
        ratio = m / n

        def offset(point):
            return point[1] + ratio * point[0]

        rho_a = ay_hit + ratio * ax_hit
        rho_end = offset(end)
        if not rho_end < rho_a:
            continue
        bad = []
        for i in range(len(pts) - 1):
            if flags[i] and flags[i + 1]:
                continue
            oa, ob = offset(pts[i]), offset(pts[i + 1])
            bad.append((min(oa, ob), max(oa, ob)))
        merged = []
        for lo, hi in sorted(bad):
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        gaps = []
        cursor = rho_end
        for lo, hi in merged:
            lo = max(lo, rho_end)
            hi = min(hi, rho_a)
            if hi <= cursor:
                continue
            if lo > cursor:
                gaps.append((cursor, min(lo, rho_a)))
            cursor = max(cursor, hi)
            if cursor >= rho_a:
                break
        if cursor < rho_a:
            gaps.append((cursor, rho_a))
        scale = 1e-12 * (1.0 + abs(rho_a) + abs(rho_end))
        gaps = [(lo, hi) for lo, hi in gaps if hi - lo > scale]
        if not gaps:
            continue
        lo, hi = max(gaps, key=lambda g: (g[1] - g[0], g[0]))
        width = hi - lo
        return SplitLine(m=m, n=n, r=lo + 0.75 * width, delta=0.5 * width)
    raise InfeasibleSplitError(f"no separating slope with m + n <= {max_slope_sum} fits the boundary")


def _split_outcome(split, *args):
    try:
        return split(*args)
    except (InputError, InfeasibleSplitError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(100.0, 200.0),
    stop=st.floats(-60.0, 30.0),
    count=st.integers(3, 60),
    radius=st.floats(0.5, 3.0),
    strict=st.lists(st.booleans(), min_size=60, max_size=60),
    base=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    slope=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(2, 5)]),
    max_slope_sum=st.integers(1, 12),
)
def test_split_line_is_the_merging_reference_s(start, stop, count, radius, strict, base, slope, max_slope_sum):
    # the gap sweep merges overlapping intervals itself, so merging them first changes nothing
    pts = _arc(start, stop, count, radius)
    boundary = LogBoundary(points=tuple(pts), strict=tuple(strict[:count]))
    args = boundary, slope, base, max_slope_sum
    assert _split_outcome(split_line, *args) == _split_outcome(_reference_split_line, *args)


def test_slope_candidates_order_and_coprimality():
    first = list(slope_candidates(4))
    assert first == [(0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
    assert all(math.gcd(m, n) == 1 for m, n in slope_candidates(20))


def test_split_line_ray_must_cross_once():
    # the horizontal ray at height 0.5 crosses both arms of the V
    b = LogBoundary(((-1, 1), (0, 0), (1, 1)), (True,) * 3)
    with pytest.raises(InputError, match="^ray from the base point crosses the boundary more than once$"):
        split_line(b, Fraction(0), (-2, 0.5))
