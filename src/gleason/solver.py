"""Top-level solver: write f vanishing at p as f1*(z1-p1) + f2*(z2-p2).

For an interior base point: subtract the correction polynomial built from the
symmetric components' values at the base point, so every component of the
difference vanishes there, split each component against the ratio and cut
monomials, then recombine through the closed-form ratio and cut splits.  A
strip runs the same pipeline with its own cut monomial (the full cusp domain
cuts by z2).  On the z2-axis explicit slice formulas take the place of that
pipeline.  Every branch
stays in Gaussian-rational arithmetic on exact input, for every (k, l).
"""

from __future__ import annotations

import cmath
import math

from ._record import record
from .division import (
    MonomialPair,
    ratio_cut_point,
    split_component,
    split_cut,
    split_polynomial,
    split_ratio,
)
from .domains import STRIP_OMEGA2, CuspDomain, poly_bounded
from .errors import InputError, NonvanishingError, UnboundedError
from .exprio import format_scalar
from .laurent import LaurentPolynomial, divide_univariate, multiply_add
from .scalars import negligible, powi
from .symmetry import correction_polynomial, symmetric_decompose
from .verify import VerificationReport, verify

MODE_INTERIOR = "p1_nonzero"
MODE_AXIS = "p1_zero"
MODE_STRIP = "omega2_local"
_MODES = (MODE_INTERIOR, MODE_AXIS, MODE_STRIP)


@record
class GleasonProblem:
    """Validated problem data: a bounded f on the domain, vanishing at p."""

    domain: CuspDomain
    f: LaurentPolynomial
    p: tuple

    def __post_init__(self):
        p1, p2 = self.p
        if not self.domain.contains(p1, p2):
            raise InputError("base point is not inside the domain")
        cert = poly_bounded(self.domain, self.f)
        if not cert.bounded:
            raise UnboundedError(
                "f has monomials outside the bounded cone", cert
            )
        value = self.f.eval(p1, p2)
        if not negligible(value, self.f.one_norm):
            if isinstance(value, (float, complex)) and not cmath.isfinite(value):
                raise InputError("float overflow: f(p) is out of the float range")
            raise NonvanishingError(
                f"f(p) = {format_scalar(value)} != 0", value
            )


@record
class GleasonSolution:
    problem: GleasonProblem
    f1: LaurentPolynomial
    f2: LaurentPolynomial
    mode: str
    report: VerificationReport


def _axis_parts(f: LaurentPolynomial, l: int, p2):
    """Explicit split at p = (0, p2): f = f1*z1 + f2*(z2 - p2).

    With f0 the z1-free slice of f, take

        f1 = (z2^l / p2^l) * (f - f0) / z1,
        f2 = -(sum_{j<l} z2^j p2^(l-1-j)) * (f - f0) / p2^l + f0 / (z2 - p2).

    The minus sign on the (f - f0) factor is what makes the identity close:
    (z2 - p2) times the sum telescopes to z2^l - p2^l, which cancels the
    z2^l/p2^l prefactor of f1*z1 down to exactly (f - f0).
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
    comb = LaurentPolynomial(
        {(0, j): -(powi(p2, l - 1 - j) * inv) for j in range(l)}
    )
    f2 = comb * rest + divide_univariate(f0, p2)
    size = abs(power)  # 0.0 for an exact p2^l below the float range
    bound_rhs = 2 ** (l + 1) * float(f.one_norm()) / size if size else math.inf
    if not math.isfinite(bound_rhs):
        raise InputError("float overflow: the axis bound 2^(l+1)*|f|_1/|p2|^l is out of the float range")
    return f1, f2, bound_rhs


def _pipeline_parts(f: LaurentPolynomial, p: tuple, pair: MonomialPair):
    """Interior and strip pipeline over the ratio/cut monomial pair."""
    order = pair.order
    P = correction_polynomial(f, p, order)
    if not P.is_exact() and not math.isfinite(P.max_norm()):
        raise InputError("float overflow: the correction polynomial is out of the float range")
    P1, P2 = split_polynomial(P, p)
    R1, R2 = split_ratio(pair.k, pair.l, p)
    V1, V2 = split_cut(pair.m, pair.n, p)

    system = symmetric_decompose(f - P, order)
    uv = ratio_cut_point(pair, p)
    terms1 = []
    terms2 = []
    for (i, j), comp in system.components.items():
        if comp.is_zero:
            continue
        g1, g2 = split_component(i, j, comp, pair, uv)
        terms1 += [(g1, R1), (g2, V1)]
        terms2 += [(g1, R2), (g2, V2)]
    return multiply_add(P1, terms1), multiply_add(P2, terms2)


def solve(
    domain: CuspDomain,
    f: LaurentPolynomial,
    p: tuple,
    *,
    samples: int = 2000,
    seed: int = 42,
    force_branch: str | None = None,
) -> GleasonSolution:
    """Solve the division problem and attach a verification report.

    Dispatch: strip domains take the strip branch; on the full cusp domain a
    base point on the z2-axis takes the explicit axis branch and any other
    base point the interior branch.  Strip and interior run one pipeline over
    domain.pair.  force_branch only checks the dispatch: naming any other
    branch raises InputError.
    """
    if force_branch is not None and force_branch not in _MODES:
        raise InputError(f"unknown branch {force_branch!r}")
    problem = GleasonProblem(domain, f, p)
    p1, p2 = p

    if domain.kind == STRIP_OMEGA2:
        mode = MODE_STRIP
    elif not p1:
        mode = MODE_AXIS
    else:
        mode = MODE_INTERIOR
    if force_branch not in (None, mode):
        raise InputError(
            f"branch {force_branch!r} requested, but the input dispatches to {mode!r}"
        )

    bound_rhs = None
    if f.is_zero:  # f1 = f2 = 0, before a deep p2 takes 1/p2^l past the float range
        f1 = f2 = f
        bound_rhs = 0.0 if mode == MODE_AXIS else None
    elif mode == MODE_AXIS:
        f1, f2, bound_rhs = _axis_parts(f, domain.l, p2)
    else:
        f1, f2 = _pipeline_parts(f, p, domain.pair)
    for name, g in (("f1", f1), ("f2", f2)):
        if not g.is_exact() and not math.isfinite(g.max_norm()):
            raise InputError(f"float overflow: {name} is out of the float range")

    report = verify(domain, f, f1, f2, p, samples=samples, seed=seed, bound_rhs=bound_rhs)
    return GleasonSolution(problem=problem, f1=f1, f2=f2, mode=mode, report=report)
