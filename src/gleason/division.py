"""Division kernels: explicit solutions of f = f1*(z1-p1) + f2*(z2-p2) pieces.

The cusp geometry is governed by two monomials: the ratio u = z1^k z2^(-l),
constant on the curves that foliate the cusp, and the cut v = z1^m z2^n.
Symmetric components (exponents divisible by N = k*n + l*m) rewrite exactly
in the variables (u, v), with (ratio, cut) exponents.  split_component
divides such a (u, v) form by (u - u(p)) and (v - v(p)), held as plain maps
(cut slices of ratio terms, and the fiber projection keyed by the cut
exponent) rather than as LaurentPolynomials, and keys the quotients back in
z-exponents as they are found: the bounded building blocks that the solver
recombines.  split_ratio and split_cut write u - u(p) and v - v(p)
themselves in terms of (z1 - p1) and (z2 - p2).  split_polynomial reads no
remainder: verify's certified residual judges the identity.
"""

from __future__ import annotations

from .domains import MonomialPair
from .errors import EvaluationDomainError, InputError, InternalContractError
from .laurent import (
    LaurentPolynomial,
    _canonical,
    _linear_quotient,
    _one_norm,
    _own_threshold,
    _relabelled,
    divide_univariate,
    shift_divide_z1,
)
from .scalars import VANISH_TOL_REL, negligible, powi


def ratio_cut_point(pair: MonomialPair, p: tuple) -> tuple:
    """(u(p), v(p)): the ratio monomial z1^k z2^(-l) and the cut z1^m z2^n at p."""
    p1, p2 = p
    return powi(p1, pair.k) * powi(p2, -pair.l), powi(p1, pair.m) * powi(p2, pair.n)


def split_ratio(k: int, l: int, p: tuple) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Closed-form pair (R1, R2) with u - u(p) = R1*(z1-p1) + R2*(z2-p2).

    Here u = z1^k z2^(-l).  Both parts are bounded on the cusp domain: their
    exponents sit inside the recession cone by construction.  Requires
    p2 != 0, as at every point a domain contains.
    """
    p1, p2 = p
    power = powi(p2, l)
    if not power:  # a float p2^l that underflowed
        raise InputError("float overflow: 1/p2^l is out of the float range")
    inv = 1 / power
    r1_terms = {(j, 0): powi(p1, k - 1 - j) * inv for j in range(k)}
    r2_terms = {(k, j - l): -powi(p2, l - 1 - j) * inv for j in range(l)}
    return LaurentPolynomial(r1_terms), LaurentPolynomial(r2_terms)


def split_cut(m: int, n: int, p: tuple) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Closed-form pair (V1, V2) with v - v(p) = V1*(z1-p1) + V2*(z2-p2).

    Here v = z1^m z2^n, V1 = z2^n sum_{j<m} p1^(m-1-j) z1^j and
    V2 = p1^m sum_{j<n} p2^(n-1-j) z2^j; the powers are running products
    from p1**0, a 1 of p's kind, built top down as a Horner division would.
    """
    p1, p2 = p
    one = p1**0
    v1_terms: dict = {}
    c = one
    for j in range(m - 1, -1, -1):
        v1_terms[(j, n)] = c
        c = c * p1
    v2_terms: dict = {}
    c = powi(p1, m) if m else one
    for j in range(n - 1, -1, -1):
        v2_terms[(0, j)] = c
        c = c * p2
    return LaurentPolynomial(v1_terms), LaurentPolynomial(v2_terms)


def split_polynomial(
    P: LaurentPolynomial, p: tuple
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Split a polynomial vanishing at p by peeling the z1 dependence first.

    P1 = (P - P|_{z1=p1}) / (z1 - p1) and P2 = (P|_{z1=p1} - P(p)) / (z2 - p2).
    Requires P(p) = 0.  Both remainders are dropped unread: `verify`'s
    certified residual is the one verdict on the identity.
    """
    p1, p2 = p
    return shift_divide_z1(P, p1), divide_univariate(P.substitute_z1(p1), p2)


def split_component(
    i: int,
    j: int,
    comp: LaurentPolynomial,
    pair: MonomialPair,
    uv: tuple,
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Split z1^i z2^j * comp against (u - u(p)) and (v - v(p)).

    uv is (u(p), v(p)) = ratio_cut_point(pair, p), the ratio and cut
    monomials u, v at a base point p off the coordinate axes, so that a
    caller splitting every component at one p forms them once.  comp must be
    a component of symmetric_decompose(h, pair.order): its exponents are
    divisible by the order, and a floating one is pruned at |h| >= |comp|.
    z1^i z2^j * comp must vanish at p.
    Returns (g1, g2) with

        z1^i z2^j comp = g1 * (u - u(p)) + g2 * (v - v(p)).

    One pass over comp's terms rewrites each as c u^alpha v^beta, a term of
    the (u, v) form g, files it in its cut slice and adds c u(p)^alpha to the
    fiber projection g(u(p), v), kept as a map from beta.  A floating g has
    comp's norm; the projection is pruned at |g|.
    Each quotient term is written at once under its z-exponent, u^alpha
    v^beta times z1^i z2^j being z1^(alpha*k + beta*m + i)
    z2^(-alpha*l + beta*n + j); no (u, v) polynomial is built.  The Horner
    walk is picked by kind, comp's for the slices and the projection's for
    the fiber, without reading their coefficients.  Dividing the
    projection by (v - v(p)) must be exact; a residue there means the
    vanishing precondition was violated and raises InternalContractError.
    """
    u_p, v_p = uv
    k, l, m, n = pair.k, pair.l, pair.m, pair.n
    order = pair.order
    # None when exact; an infinite norm raises here
    norm = None if _own_threshold(comp) is None else comp.max_norm()
    slices: dict = {}
    fiber: dict = {}
    powers: dict = {}
    for (a, b), c in comp._terms.items():
        alpha, beta = (a * n - b * m) // order, (a * l + b * k) // order
        slices.setdefault(beta, {})[alpha] = c
        if alpha:
            if not u_p:  # an underflowed u(p): u^alpha vanishes there or has a pole
                if alpha < 0:
                    raise EvaluationDomainError("negative z1-exponent evaluated at z1 = 0")
                continue
            if alpha not in powers:
                powers[alpha] = powi(u_p, alpha)
            c = c * powers[alpha]
        fiber[beta] = fiber.get(beta, 0) + c
    g_norm = comp.max_norm if norm is None else norm
    fiber, fiber_norm = _canonical(fiber, g_norm)
    exact_fiber = fiber_norm is None
    if exact_fiber:
        fiber_norm = lambda: max(map(abs, fiber.values()), default=0.0)

    # Ratio direction: divide (g - g(u(p), v)) by (u - u(p)) slice by slice
    # in the cut exponent.  A slice may hold negative powers of u; the
    # division clears that pole first.
    ratio_terms: dict = {}
    for beta, sl in slices.items():
        if len(sl) == 1 and 0 in sl:  # u^0 alone: the quotient is empty
            continue
        sl[0] = sl.get(0, 0) - fiber.get(beta, 0)
        quotient, _rem = _linear_quotient(sl, u_p, norm is None)
        a0, b0 = beta * m + i, beta * n + j
        for alpha, c in quotient.items():
            ratio_terms[(alpha * k + a0, b0 - alpha * l)] = c

    # Cut direction: divide the fiber projection by (v - v(p)).
    quotient, rem = _linear_quotient(fiber, v_p, exact_fiber)
    # |comp|_inf <= |comp|_1: a floating remainder within tolerance of the
    # carried norm passes without the one-norm loops
    if norm is None or not abs(rem) <= VANISH_TOL_REL * norm:
        if not negligible(rem, lambda: max(_one_norm(fiber.values()), comp.one_norm())):
            raise InternalContractError("fiber projection does not vanish at the base point")
    cut_terms = {(beta * m + i, beta * n + j): c for beta, c in quotient.items()}

    # each built at its (u, v) quotient's scale and relabelled, as those quotients were
    return _relabelled(ratio_terms, g_norm), _relabelled(cut_terms, fiber_norm)

