"""Symmetrization of Laurent polynomials by exponent routing.

For a fixed order N, a Laurent polynomial splits uniquely as

    f = sum_{i,j=0}^{N-1} z1^i z2^j f_ij,

where every exponent of f_ij is divisible by N in both variables.  For
polynomials this is plain exponent routing: the term (a, b) belongs to the
component (a mod N, b mod N).  The discrete-averaging description of the same
components over the N-th roots of unity lives in the test suite
(tests/conftest.py) as an independent numeric oracle.
"""

from __future__ import annotations

from ._record import record
from .errors import InputError
from .laurent import LaurentPolynomial, _exact_values, _own_threshold, _wrap
from .scalars import QComplex, powi


@record
class SymmetricSystem:
    """The nonzero symmetric components of a polynomial, keyed by residue class (i, j)."""

    order: int
    components: dict


def symmetric_decompose(f: LaurentPolynomial, order: int) -> SymmetricSystem:
    """Split f into its root-of-unity symmetric components by exponent routing.

    One bucket per residue class that f occupies, in routing order (sorted
    (i, j)); a floating bucket is pruned at |f|, and one that prunes to
    nothing is left out, so every absent component is zero.
    """
    if order < 1:
        raise InputError("symmetrization order must be a positive integer")
    buckets: dict = {}
    for (a, b), c in f.terms.items():
        i, j = a % order, b % order
        buckets.setdefault((i, j), {})[(a - i, b - j)] = c
    # routing keeps exact canonical terms canonical
    build = _wrap if f.is_exact() else lambda terms: LaurentPolynomial(terms, prune_scale=f.max_norm)
    components = {key: build(terms) for key, terms in sorted(buckets.items())}
    components = {key: comp for key, comp in components.items() if not comp.is_zero}
    return SymmetricSystem(order=order, components=components)


def correction_polynomial(
    f: LaurentPolynomial, p: tuple, order: int
) -> LaurentPolynomial:
    """Correction P = sum_{i,j<N} f_ij(p) z1^i z2^j from the routed components.

    With f = sum z1^i z2^j f_ij routed at order N, each component of f - P is
    f_ij - f_ij(p), so every symmetric component of the difference vanishes
    at p.  Every f_ij is constant on the grid { zeta^s p1 } x { zeta^t p2 } of
    N-th roots of unity zeta, so P is also the tensor interpolant of f on that
    grid, of degree at most N-1 in each variable.  Requires nonzero p1, p2
    and order >= 1, as at a point off the z2-axis that a domain contains.

    Each value is the one f_ij.eval(*p) returns, but no component is built.
    When f, p1 and p2 are exact, the terms are grouped by residue class and
    `_exact_values` sums each group over one common denominator, with one
    pair of power tables for all of them and one reduction per group.
    Otherwise each term c of f, pruned first when floating where the
    component's construction at |f| would prune it, adds c * p1**a * p2**b
    to its component's sum, which starts from 0 as eval's does, with the
    powers taken once per call.
    """
    p1, p2 = p
    threshold = _own_threshold(f)
    if threshold is None and type(p1) is QComplex and type(p2) is QComplex:
        groups: dict = {}
        for (a, b), c in f._terms.items():
            i, j = a % order, b % order
            groups.setdefault((i, j), []).append(((a - i, b - j), c))
        keys = sorted(groups)  # components in routing order
        values = _exact_values([groups[key] for key in keys], p1, p2)
        return LaurentPolynomial(dict(zip(keys, values)))
    pow1: dict = {}
    pow2: dict = {}
    sums: dict = {}
    for (a, b), c in f._terms.items():
        if threshold is not None and (c == 0 or abs(c) <= threshold):
            continue
        i, j = a % order, b % order
        a, b = a - i, b - j
        if a:
            if a not in pow1:
                pow1[a] = powi(p1, a)
            c = c * pow1[a]
        if b:
            if b not in pow2:
                pow2[b] = powi(p2, b)
            c = c * pow2[b]
        sums[(i, j)] = sums.get((i, j), 0) + c
    values = dict(sorted(sums.items()))  # components in routing order
    return LaurentPolynomial(values, prune_scale=lambda: f.max_norm() or 1.0)
