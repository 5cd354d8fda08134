"""Cusp domains, their logarithmic geometry, and boundedness certificates.

Two domain kinds are supported.  ``hartogs_full`` is
``{ |z1|^k < |z2|^l < 1 }``, whose logarithmic image is the open cone spanned
by (-1, 0) and (-l, -k).  ``strip_omega2`` is a strip
``a < |z1^k / z2^l| < b`` cut off by a line ``y <= (-m/n) x + r`` in
logarithmic coordinates; its only recession direction is (-l, -k).

A monomial z1^a z2^b is bounded on a domain exactly when the exponent vector
has nonpositive inner product with every recession generator.  On the closure
of hartogs_full every bounded monomial has supremum 1, so the coefficient sum
is an upper bound for the polynomial's supremum there.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from math import gcd

from ._record import record
from .errors import InfeasibleSplitError, InputError
from .laurent import LaurentPolynomial
from .scalars import QComplex

HARTOGS_FULL = "hartogs_full"
STRIP_OMEGA2 = "strip_omega2"

# Width, in log scale, of the truncated z1-section used by the sampler; the
# true section of hartogs_full is a half line.
SECTION_WIDTH = 24.0
# The sampler's bands in log|z2|, and the chance that a point is drawn deep.
DEEP_BAND_BOTTOM = -30.0
DEEP_BAND_TOP = -3.0
SHALLOW_BAND_TOP = -1e-3
CUSP_BIAS = 0.5


def _abs2(q) -> tuple[int, int]:
    """Exact squared modulus n / d as the pair (n, d), d >= 0, not reduced.

    A QComplex gives its rational value, a complex point the exact value of
    its float parts.  A point with an infinite or NaN part gets (1, 0): under
    the cross-multiplied comparisons of ``contains`` it is larger than every
    modulus, so it lies in no domain.
    """
    if isinstance(q, QComplex):
        m = q.abs2()
        return m.numerator, m.denominator
    z = complex(q)
    if not cmath.isfinite(z):
        return 1, 0
    a, b = z.real.as_integer_ratio()
    c, d = z.imag.as_integer_ratio()
    return a * a * d * d + c * c * b * b, (b * d) ** 2


@record
class MonomialPair:
    """Exponent data of the ratio monomial z1^k z2^(-l) and cut monomial z1^m z2^n,
    k, l, n >= 1 and m >= 0 as CuspDomain.pair takes them from a valid domain."""

    k: int
    l: int
    m: int = 0
    n: int = 1

    @property
    def order(self) -> int:
        return self.k * self.n + self.l * self.m


@record
class CuspDomain:
    k: int
    l: int
    kind: str = HARTOGS_FULL
    lower: float = 0.0
    upper: float = 0.0
    cut_m: int = 0
    cut_n: int = 1
    cut_r: float = 0.0

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise InputError("domain exponents k, l must be positive integers")
        for name in ("lower", "upper", "cut_r"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"domain {name} must be finite, got {value!r}")
        if self.kind == STRIP_OMEGA2:
            if not 0 < self.lower < self.upper:
                raise InputError("strip bounds must satisfy 0 < lower < upper")
            if self.cut_n < 1 or self.cut_m < 0:
                raise InputError("cut slope must be -m/n with m >= 0, n >= 1")
        elif self.kind != HARTOGS_FULL:
            raise InputError(f"unknown domain kind {self.kind!r}")

    @classmethod
    def hartogs(cls, k: int, l: int) -> "CuspDomain":
        return cls(k=k, l=l, kind=HARTOGS_FULL)

    @classmethod
    def strip(
        cls, k: int, l: int, lower: float, upper: float, m: int, n: int, r: float
    ) -> "CuspDomain":
        return cls(
            k=k, l=l, kind=STRIP_OMEGA2, lower=lower, upper=upper,
            cut_m=m, cut_n=n, cut_r=r,
        )

    @property
    def pair(self) -> MonomialPair:
        """Ratio and cut monomials; hartogs_full is cut by z2 whatever its cut fields hold."""
        if self.kind == STRIP_OMEGA2:
            return MonomialPair(self.k, self.l, self.cut_m, self.cut_n)
        return MonomialPair(self.k, self.l)

    @property
    def recession_generators(self) -> tuple[tuple[int, int], ...]:
        if self.kind == HARTOGS_FULL:
            return ((-1, 0), (-self.l, -self.k))
        return ((-self.l, -self.k),)

    def contains(self, q1, q2) -> bool:
        """Strict membership; hartogs_full admits q1 = 0 when 0 < |q2| < 1.

        The point's squared moduli are compared exactly, in integers (a
        float's exact value), so deep or huge points neither under- nor
        overflow; only a strip's cut is compared in logs.
        """
        (n1, d1), (n2, d2) = _abs2(q1), _abs2(q2)
        # |q1|^(2k) = a / b and |q2|^(2l) = c / d, compared cross-multiplied
        a, b = n1**self.k, d1**self.k
        c, d = n2**self.l, d2**self.l
        if self.kind == HARTOGS_FULL:
            return a * d < c * b and c < d
        if a == 0 or c == 0:
            return False
        # lower^2 < (a / b) / (c / d) < upper^2
        lo, lo_den = self.lower.as_integer_ratio()
        hi, hi_den = self.upper.as_integer_ratio()
        ad, bc = a * d, b * c
        if not lo * lo * bc < ad * lo_den * lo_den or not ad * hi_den * hi_den < hi * hi * bc:
            return False
        x = 0.5 * (math.log(n1) - math.log(d1))
        y = 0.5 * (math.log(n2) - math.log(d2))
        return self.cut_n * y + self.cut_m * x <= self.cut_n * self.cut_r


@record
class BoundednessCertificate:
    bounded: bool
    violations: tuple[tuple[int, int], ...]


def poly_bounded(domain: CuspDomain, f: LaurentPolynomial) -> BoundednessCertificate:
    """Check every exponent of f against the recession cone.

    A monomial z1^a z2^b is bounded iff a*gx + b*gy <= 0 for every recession
    generator (gx, gy).  Violations are listed in ascending lexicographic
    order.
    """
    generators = domain.recession_generators
    outside = []
    for a, b in f.exponents():
        for gx, gy in generators:
            if a * gx + b * gy > 0:
                outside.append((a, b))
                break
    violations = tuple(sorted(outside))
    return BoundednessCertificate(bounded=not violations, violations=violations)


# ---------------------------------------------------------------------------
# sampling


def _strip_y_ceiling(domain: CuspDomain) -> float:
    """Largest y at which the strip section below the cut is nonempty."""
    if domain.cut_m == 0:
        return domain.cut_r
    k, l, m, n, r = domain.k, domain.l, domain.cut_m, domain.cut_n, domain.cut_r
    return (k * n * r - m * math.log(domain.lower)) / (k * n + l * m)


def sample(domain: CuspDomain, count: int, seed: int) -> list[tuple[complex, complex]]:
    """Deterministic domain points, biased toward the cusp.

    Each point independently falls in the deep band log|z2| in [-30, -3]
    with probability CUSP_BIAS, otherwise in [-3, -1e-3]; log|z1| is uniform
    in the (truncated) section and phases are uniform.  Every returned point
    satisfies domain.contains.  Per point the random stream order is: band
    choice, y, x, then two phases.  This makes sample sets for growing counts
    nested, so sampled suprema are monotone in the sample count for a fixed
    seed.
    """
    rng = random.Random(seed)
    if domain.kind == STRIP_OMEGA2:
        ceiling = _strip_y_ceiling(domain) - 1e-9
    else:
        ceiling = math.inf
    pts = []
    for _ in range(count):
        deep = rng.random() < CUSP_BIAS
        lo, hi = (DEEP_BAND_BOTTOM, DEEP_BAND_TOP) if deep else (DEEP_BAND_TOP, SHALLOW_BAND_TOP)
        hi = min(hi, ceiling)
        if hi <= lo:
            lo = hi - (DEEP_BAND_TOP - DEEP_BAND_BOTTOM if deep else SHALLOW_BAND_TOP - DEEP_BAND_TOP)
        y = rng.uniform(lo, hi)
        if domain.kind == HARTOGS_FULL:
            top = y * domain.l / domain.k
            x = top - 1e-9 - rng.random() * SECTION_WIDTH
        else:
            x_lo = (domain.l * y + math.log(domain.lower)) / domain.k
            x_hi = (domain.l * y + math.log(domain.upper)) / domain.k
            if domain.cut_m > 0:
                x_hi = min(x_hi, domain.cut_n * (domain.cut_r - y) / domain.cut_m)
            span = x_hi - x_lo
            x = x_lo + span * (1e-6 + 0.999998 * rng.random())
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = rng.uniform(0.0, 2.0 * math.pi)
        pts.append(
            (
                math.exp(x) * complex(math.cos(t1), math.sin(t1)),
                math.exp(y) * complex(math.cos(t2), math.sin(t2)),
            )
        )
    return pts


# ---------------------------------------------------------------------------
# logarithmic boundary data and the separating line


@record
class LogBoundary:
    """Polyline graph of a convex region's boundary with strict-convexity flags."""

    points: tuple[tuple[float, float], ...]
    strict: tuple[bool, ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        flags = tuple(bool(s) for s in self.strict)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "strict", flags)
        if len(pts) != len(flags):
            raise InputError("one strict flag per boundary point is required")
        if len(pts) < 2:
            raise InputError("boundary needs at least two points")
        for i, (x, y) in enumerate(pts):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError(f"boundary point at index {i} must be finite, got ({x!r}, {y!r})")
        scale = max(max(abs(x), abs(y)) for x, y in pts) or 1.0
        orientation = 0
        for i in range(len(pts) - 1):
            ax, ay = pts[i]
            bx, by = pts[i + 1]
            if (bx - ax) == 0 and (by - ay) == 0:
                raise InputError(f"repeated boundary point at index {i}")
        for i in range(len(pts) - 2):
            ax, ay = pts[i]
            bx, by = pts[i + 1]
            cx, cy = pts[i + 2]
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if abs(cross) <= 1e-12 * scale * scale:
                continue
            turn = 1 if cross > 0 else -1
            if orientation == 0:
                orientation = turn
            elif orientation != turn:
                raise InputError(
                    f"boundary polyline is not convex at vertex {i + 1}"
                )

    @classmethod
    def from_csv(cls, text: str) -> "LogBoundary":
        points = []
        flags = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise InputError(f"boundary CSV line {lineno}: expected x,y,strict")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise InputError(f"boundary CSV line {lineno}: bad number") from exc
            if parts[2].strip() not in ("0", "1"):
                raise InputError(f"boundary CSV line {lineno}: strict must be 0 or 1")
            points.append((x, y))
            flags.append(parts[2].strip() == "1")
        return cls(points=tuple(points), strict=tuple(flags))


@record
class SplitLine:
    """Separating line y = (-m/n) x + r with safety margin delta."""

    m: int
    n: int
    r: float
    delta: float


def slope_candidates(max_sum: int):
    """Slopes -m/n, gcd(m,n)=1, enumerated by increasing m+n then m."""
    for total in range(1, max_sum + 1):
        for m in range(0, total):
            n = total - m
            if gcd(m, n) == 1:
                yield (m, n)


def split_line(
    boundary: LogBoundary,
    cusp_slope: Fraction,
    base_point: tuple[float, float],
    max_slope_sum: int = 64,
) -> SplitLine:
    """Find a line of small rational slope -m/n separating the cusp end.

    The ray from base_point with the cusp slope must hit the polyline exactly
    once, inside a strictly convex vertex window; that hit is the point the
    line must keep strictly above itself while the cusp end stays strictly
    below.  Offsets r are chosen so that every boundary point with offset in
    [r - delta, r] lies on strictly convex segments.  Candidates are tried in
    Stern-Brocot order and the first feasible slope wins.
    """
    pts = boundary.points
    flags = boundary.strict
    px, py = float(base_point[0]), float(base_point[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        raise InputError(f"base point must be finite, got ({px!r}, {py!r})")
    slope = Fraction(cusp_slope)
    try:
        dx, dy = float(slope.denominator), float(slope.numerator)
    except OverflowError as err:
        raise InputError("cusp slope's numerator or denominator is out of the float range") from err

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
        raise InfeasibleSplitError(
            "ray crossing is not inside a strictly convex vertex window"
        )

    # Cusp end: the polyline endpoint deeper toward the third quadrant.
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
        gaps = []
        cursor = rho_end
        for lo, hi in sorted(bad):  # the sweep merges overlaps through cursor
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
        r = lo + 0.75 * width
        delta = 0.5 * width
        return SplitLine(m=m, n=n, r=r, delta=delta)

    raise InfeasibleSplitError(
        f"no separating slope with m + n <= {max_slope_sum} fits the boundary"
    )
