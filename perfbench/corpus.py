"""Seeded instance corpora for the solver benchmark.

The benchmark owns its generator: nothing here imports the test suite, so an
edit to the tests cannot move the benchmark.  Instances are drawn as plain
Python numbers (exponent pairs, Fractions, complex) and checked with the
benchmark's own arithmetic before they are converted to library objects; the
program under test only ever receives the finished instances.

Every corpus is stratified: the (k, l) pairs, branches, base-point radii or
denominators and term counts are laid out on a fixed schedule, and only
exponents, coefficients, phases and base-point positions are random.  Corpora of
different seeds therefore cost about the same to solve.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from gleason import CuspDomain, LaurentPolynomial, QComplex

INTERIOR = "interior"
AXIS = "axis"
STRIP = "strip"

# Log-|z2| bands, the same ones the library's sampler uses for its cusp bias.
DEEP_BAND = (-30.0, -3.0)
SHALLOW_BAND = (-3.0, -1e-3)

STRIP_LOWER = 0.5
STRIP_UPPER = 2.0
STRIP_CUT_R = 0.0


@dataclass(frozen=True)
class Spec:
    """One drawn instance in plain numbers, before conversion."""

    k: int
    l: int
    branch: str
    cut: tuple  # (m, n) of the cut monomial; (0, 1) off the strip branch
    terms: dict  # (a, b) -> complex, or (Fraction, Fraction) when exact
    p: tuple  # (p1, p2) as complex, or as (Fraction, Fraction) pairs
    exact: bool

    @property
    def order(self) -> int:
        m, n = self.cut
        return self.k * n + self.l * m


@dataclass(frozen=True)
class Instance:
    """A ready-to-solve problem plus the facts the benchmark reports about it."""

    spec: Spec
    domain: CuspDomain
    f: LaurentPolynomial
    p: tuple
    samples: int


# ---------------------------------------------------------------------------
# evaluation and membership in the benchmark's own arithmetic


def _cmul(x, y):
    """Product of two complex numbers given as (re, im) pairs or as complex."""
    if isinstance(x, tuple):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
    return x * y


def _cpow(z, e: int):
    if isinstance(z, tuple):
        if e < 0:
            d = z[0] * z[0] + z[1] * z[1]
            z, e = (z[0] / d, -z[1] / d), -e
        out = (Fraction(1), Fraction(0))
        for _ in range(e):
            out = _cmul(out, z)
        return out
    return z**e


def poly_value(terms: dict, p: tuple):
    """f(p) by direct summation; exact for (Fraction, Fraction) data."""
    exact = isinstance(p[0], tuple)
    total = (Fraction(0), Fraction(0)) if exact else 0j
    for (a, b), c in terms.items():
        t = _cmul(c, _cmul(_cpow(p[0], a), _cpow(p[1], b)))
        total = (total[0] + t[0], total[1] + t[1]) if exact else total + t
    return total


def _abs2(z):
    if isinstance(z, tuple):
        return z[0] * z[0] + z[1] * z[1]
    return z.real * z.real + z.imag * z.imag


def in_domain(spec: Spec) -> bool:
    """Strict membership of the base point, written out from the paper's definition."""
    m1, m2 = _abs2(spec.p[0]), _abs2(spec.p[1])
    k, l = spec.k, spec.l
    if spec.branch != STRIP:
        return m1**k < m2**l < 1
    if m1 == 0 or m2 == 0:
        return False
    ratio_num, ratio_den = float(m1) ** k, float(m2) ** l
    if not STRIP_LOWER**2 * ratio_den < ratio_num < STRIP_UPPER**2 * ratio_den:
        return False
    m, n = spec.cut
    x, y = 0.5 * math.log(float(m1)), 0.5 * math.log(float(m2))
    return n * y + m * x <= n * STRIP_CUT_R


def in_cone(k: int, l: int, strip: bool, a: int, b: int) -> bool:
    """Bounded monomial z1^a z2^b: a*l + b*k >= 0, plus a >= 0 off the strips."""
    return a * l + b * k >= 0 and (strip or a >= 0)


# ---------------------------------------------------------------------------
# random draws


def _exact_coeff(rng: random.Random) -> tuple:
    while True:
        c = (
            Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
        )
        if c != (0, 0):
            return c


def _float_coeff(rng: random.Random) -> complex:
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def _polar(r: float, rng: random.Random) -> complex:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def _exponents(rng, k, l, branch, cut, count, max_exp):
    """Distinct exponent pairs the solver's branch accepts.

    Off the strips that is the domain cone.  On a strip it is the strip cone
    together with the ratio cone of the routed exponent,
    (a - a mod N) * n >= (b - b mod N) * m, which the strip pipeline needs.
    """
    m, n = cut
    order = k * n + l * m
    out: list = []
    seen: set = set()
    while len(out) < count:
        a = rng.randint(-max_exp, max_exp)
        b = rng.randint(-max_exp, max_exp)
        if (a, b) in seen or not in_cone(k, l, branch == STRIP, a, b):
            continue
        if branch == STRIP and (a - a % order) * n < (b - b % order) * m:
            continue
        seen.add((a, b))
        out.append((a, b))
    return out


def _vanishing_terms(rng, k, l, branch, cut, p, count, exact, max_exp):
    """g - g(p) for a random g with `count` terms; redrawn if it cancels to zero."""
    while True:
        exps = _exponents(rng, k, l, branch, cut, count, max_exp)
        terms = {e: (_exact_coeff(rng) if exact else _float_coeff(rng)) for e in exps}
        value = poly_value(terms, p)
        c0 = terms.get((0, 0), (Fraction(0), Fraction(0)) if exact else 0j)
        if exact:
            c0 = (c0[0] - value[0], c0[1] - value[1])
            nonzero = c0 != (0, 0)
        else:
            # A constant below 1e-12 of the largest coefficient is noise: the
            # library would prune it, and f(p) = 0 holds to tolerance without it.
            c0 = c0 - value
            nonzero = abs(c0) > 1e-12 * max(abs(c) for c in terms.values())
        if nonzero:
            terms[(0, 0)] = c0
        else:
            terms.pop((0, 0), None)
        if terms:
            return terms


def _exact_interior_point(rng, k, l, den):
    while True:
        p2 = Fraction(rng.randint(1, den - 1), den)
        p1 = Fraction(rng.randint(1, den - 1), den) * p2
        pt = ((p1, Fraction(0)), (p2, Fraction(0)))
        if _abs2(pt[0]) ** k < _abs2(pt[1]) ** l:
            return pt


def _float_interior_point(rng, k, l):
    r2 = rng.uniform(0.2, 0.9)
    r1 = rng.uniform(0.1, 0.9) * r2 ** (l / k)
    return (_polar(r1, rng), _polar(r2, rng))


def _strip_point(rng, k, l, cut, band):
    """Point of the strip with log|z2| uniform in the band, log|z1| in the section."""
    m, n = cut
    while True:
        y = rng.uniform(*band)
        x_lo = (l * y + math.log(STRIP_LOWER)) / k
        x_hi = (l * y + math.log(STRIP_UPPER)) / k
        if m > 0:
            x_hi = min(x_hi, n * (STRIP_CUT_R - y) / m)
        if x_hi <= x_lo:
            continue
        x = x_lo + (x_hi - x_lo) * (1e-6 + 0.999998 * rng.random())
        return (_polar(math.exp(x), rng), _polar(math.exp(y), rng))


# ---------------------------------------------------------------------------
# workloads

EXACT_PAIRS = [(1, 1), (2, 1), (1, 2), (2, 3), (4, 1), (4, 3)]
SAMPLED_PAIRS = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)]
DEEP_PAIRS = [(3, 2), (5, 1), (5, 2), (6, 1)]
DEEP_RADII = [0.5, 0.1, 0.01]
DEEP_TERMS = 15
MAX_TERMS = 30


def _term_count(step: int, rounds: int) -> int:
    """Term counts spread evenly over 1..MAX_TERMS across the rounds."""
    return 1 + (step * MAX_TERMS) // rounds


def _exact_interior(rng: random.Random, rounds: int) -> list:
    """Every exact pair once per round; the term count grows with the round.

    The base-point denominator cycles through 3..9, which spreads the sizes
    of the exact numbers evenly over every corpus.
    """
    specs = []
    for step in range(rounds):
        count = _term_count(step, rounds)
        for j, (k, l) in enumerate(EXACT_PAIRS):
            den = 3 + (step * len(EXACT_PAIRS) + j) % 7
            p = _exact_interior_point(rng, k, l, den)
            terms = _vanishing_terms(rng, k, l, INTERIOR, (0, 1), p, count, True, 12)
            specs.append(Spec(k, l, INTERIOR, (0, 1), terms, p, True))
    return specs


# Branch schedule of float_sampled: 60% interior, 20% axis, 20% strip split
# evenly between the cuts z2 and z1*z2.
_SAMPLED_BRANCHES = [(INTERIOR, (0, 1))] * 6 + [(AXIS, (0, 1))] * 2 + [
    (STRIP, (0, 1)),
    (STRIP, (1, 1)),
]


def _float_sampled(rng: random.Random, rounds: int) -> list:
    """Every (branch, pair) slot once per round; the term count grows with the round."""
    specs = []
    for step in range(rounds):
        count = _term_count(step, rounds)
        for branch, cut in _SAMPLED_BRANCHES:
            for k, l in SAMPLED_PAIRS:
                if branch == INTERIOR:
                    p = _float_interior_point(rng, k, l)
                elif branch == AXIS:
                    p = (0j, _polar(rng.uniform(0.2, 0.9), rng))
                else:
                    p = _strip_point(rng, k, l, cut, SHALLOW_BAND)
                max_exp = 6 if branch == STRIP else 12
                terms = _vanishing_terms(rng, k, l, branch, cut, p, count, False, max_exp)
                specs.append(Spec(k, l, branch, cut, terms, p, False))
    return specs


def _float_deep_cusp(rng: random.Random, rounds: int) -> list:
    """Per round: four interior domains at three depths each, then three deep strips."""
    specs = []
    for _ in range(rounds):
        for k, l in DEEP_PAIRS:
            for r2 in DEEP_RADII:
                p = (_polar(0.5 * r2 ** (l / k), rng), _polar(r2, rng))
                terms = _vanishing_terms(
                    rng, k, l, INTERIOR, (0, 1), p, DEEP_TERMS, False, 12
                )
                specs.append(Spec(k, l, INTERIOR, (0, 1), terms, p, False))
        for _ in range(3):
            p = _strip_point(rng, 2, 1, (1, 1), DEEP_BAND)
            terms = _vanishing_terms(rng, 2, 1, STRIP, (1, 1), p, DEEP_TERMS, False, 6)
            specs.append(Spec(2, 1, STRIP, (1, 1), terms, p, False))
    return specs


# name -> (generator, rounds, samples passed to solve)
WORKLOADS = {
    "exact_interior": (_exact_interior, 34, 0),
    "float_sampled": (_float_sampled, 8, 2000),
    "float_deep_cusp": (_float_deep_cusp, 120, 0),
}


class CorpusError(Exception):
    """A generated instance broke one of the preconditions of the problem."""


def check(spec: Spec) -> None:
    """Instance preconditions: p in the domain, f in the cone, f(p) = 0."""
    if not in_domain(spec):
        raise CorpusError(f"base point outside D({spec.k},{spec.l}) on {spec.branch}")
    for a, b in spec.terms:
        if not in_cone(spec.k, spec.l, spec.branch == STRIP, a, b):
            raise CorpusError(f"monomial ({a}, {b}) outside the bounded cone")
    value = poly_value(spec.terms, spec.p)
    if spec.exact:
        if value != (0, 0):
            raise CorpusError("f(p) is not exactly zero")
    else:
        norm = sum(abs(c) for c in spec.terms.values())
        if abs(value) > 1e-9 * norm:
            raise CorpusError(f"|f(p)| = {abs(value):.3e} exceeds 1e-9 |f|_1")


def _to_scalar(z, exact: bool):
    return QComplex(z[0], z[1]) if exact else z


def to_instance(spec: Spec, samples: int) -> Instance:
    if spec.branch == STRIP:
        m, n = spec.cut
        domain = CuspDomain.strip(
            spec.k, spec.l, STRIP_LOWER, STRIP_UPPER, m, n, STRIP_CUT_R
        )
    else:
        domain = CuspDomain.hartogs(spec.k, spec.l)
    f = LaurentPolynomial(
        {e: _to_scalar(c, spec.exact) for e, c in spec.terms.items()}
    )
    if len(f) != len(spec.terms):
        raise CorpusError("a coefficient was pruned on conversion")
    p = tuple(_to_scalar(z, spec.exact) for z in spec.p)
    return Instance(spec=spec, domain=domain, f=f, p=p, samples=samples)


def build(workload: str, seed: int) -> list:
    """The checked corpus of a workload; the same seed gives the same instances."""
    generate, rounds, samples = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    specs = generate(rng, rounds)
    for spec in specs:
        check(spec)
    order = random.Random(f"{workload}:{seed}:order")
    specs = order.sample(specs, len(specs))
    return [to_instance(spec, samples) for spec in specs]


def mix(corpus: list) -> dict:
    """Branch and symmetrization-order counts of a corpus."""
    branches = Counter(inst.spec.branch for inst in corpus)
    orders = Counter(
        inst.spec.order for inst in corpus if inst.spec.branch != AXIS
    )
    return {
        "branches": dict(sorted(branches.items())),
        "orders": {str(k): v for k, v in sorted(orders.items())},
    }
