"""Shared corpus generators and reference oracles for the test suite.

Random draws always take an explicit random.Random so every test is
reproducible from its own seed.  The oracles (roots of unity, rotation,
root-of-unity averaging of symmetric components, coefficient distance,
sampled suprema) are independent numeric checks that the library itself
does not need.  parse_report is the oracle for machine reports: it reads
emit_report's key=value lines back into typed fields.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from gleason import CuspDomain, InputError, LaurentPolynomial, QComplex, parse_scalar
from gleason.domains import sample
from gleason.errors import InternalContractError
from gleason.scalars import powi
from gleason.verify import _Powers, eval_on_arrays

# Orders whose primitive root of unity is a Gaussian rational.
EXACT_ROOT_ORDERS = (1, 2, 4)


def root_of_unity(order: int):
    """Primitive root exp(2*pi*i/order); exact for orders 1, 2, 4."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        return QComplex(1)
    if order == 2:
        return QComplex(-1)
    if order == 4:
        return QComplex(0, 1)
    return cmath.exp(2j * cmath.pi / order)


def root_table(order: int):
    """All powers zeta^0 .. zeta^(order-1) of the primitive root."""
    if order in EXACT_ROOT_ORDERS:
        zeta = root_of_unity(order)
        powers = [QComplex(1)]
        for _ in range(order - 1):
            powers.append(powers[-1] * zeta)
        return powers
    return [cmath.exp(2j * cmath.pi * m / order) for m in range(order)]


def rotate(f: LaurentPolynomial, s: int, t: int, order: int) -> LaurentPolynomial:
    """Substitution z1 -> zeta^s z1, z2 -> zeta^t z2 for zeta = exp(2*pi*i/order).

    Exact whenever the root of unity is a Gaussian rational (order 1, 2, 4).
    """
    table = root_table(order)
    return LaurentPolynomial(
        {
            (a, b): c * table[(a * s + b * t) % order]
            for (a, b), c in f.terms.items()
        },
        prune_scale=f.max_norm(),
    )


def max_coeff_distance(f: LaurentPolynomial, g: LaurentPolynomial) -> float:
    """Largest modulus among coefficients of f - g; float-friendly comparison."""
    exps = set(f.exponents()) | set(g.exponents())
    best = 0.0
    for e in exps:
        best = max(best, abs(f.coefficient(*e) - g.coefficient(*e)))
    return best


def averaged_component(f: LaurentPolynomial, order: int, i: int, j: int, q1, q2):
    """Numeric oracle for one symmetric component, by root-of-unity averaging.

    Averages f over the rotation group of the given order with the character
    for residue class (i, j), then strips the z1^i z2^j prefactor.  Agrees
    with the exact exponent-routing decomposition wherever both are defined.
    """
    q1 = complex(q1)
    q2 = complex(q2)
    total = 0j
    for s in range(order):
        for t in range(order):
            character = cmath.exp(-2j * math.pi * (i * s + j * t) / order)
            r1 = cmath.exp(2j * math.pi * s / order)
            r2 = cmath.exp(2j * math.pi * t / order)
            total += character * complex(f.eval(r1 * q1, r2 * q2))
    return total / (order**2 * q1**i * q2**j)


def eval_fresh(f: LaurentPolynomial, q1, q2) -> np.ndarray:
    """`eval_on_arrays` on any complex arrays, through power tables made for the call.

    Each table has room for every power the call takes, so the call shares them.
    """
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    return eval_on_arrays(f, q1, q2, (_Powers(q1, [len(f)]), _Powers(q2, [len(f)])))


def averaged_component_on_arrays(
    f: LaurentPolynomial, order: int, i: int, j: int, q1, q2
) -> np.ndarray:
    """Batched form of averaged_component over arrays of sample points."""
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    total = np.zeros(np.broadcast(q1, q2).shape, dtype=complex)
    for s in range(order):
        for t in range(order):
            character = cmath.exp(-2j * math.pi * (i * s + j * t) / order)
            r1 = cmath.exp(2j * math.pi * s / order)
            r2 = cmath.exp(2j * math.pi * t / order)
            total = total + character * eval_fresh(f, r1 * q1, r2 * q2)
    return total / (order**2 * q1**i * q2**j)


def sampled_sup(
    f: LaurentPolynomial,
    domain: CuspDomain,
    count: int,
    seed: int,
) -> float:
    """Max of |f| over the deterministic sample set (a lower bound for the sup)."""
    if count <= 0:
        return 0.0
    pts = sample(domain, count, seed)
    q1 = np.array([a for a, _ in pts], dtype=complex)
    q2 = np.array([b for _, b in pts], dtype=complex)
    return float(np.max(np.abs(eval_fresh(f, q1, q2))))


def rand_fraction(rng: random.Random, span: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_qcomplex(rng: random.Random, nonzero: bool = False) -> QComplex:
    while True:
        q = QComplex(rand_fraction(rng), rand_fraction(rng))
        if not (nonzero and not q):
            return q


def rand_complex(rng: random.Random, scale: float = 2.0, nonzero: bool = False) -> complex:
    while True:
        z = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if not (nonzero and z == 0):
            return z


def rand_laurent(
    rng: random.Random,
    terms: int = 8,
    max_exp: int = 6,
    exact: bool = False,
) -> LaurentPolynomial:
    """Unconstrained random Laurent polynomial (may be unbounded on any domain)."""
    out: dict = {}
    for _ in range(terms):
        e = (rng.randint(-max_exp, max_exp), rng.randint(-max_exp, max_exp))
        out[e] = rand_qcomplex(rng) if exact else rand_complex(rng)
    return LaurentPolynomial(out)


def monomial(a: int, b: int, c=1) -> LaurentPolynomial:
    """The one-term polynomial c * z1^a * z2^b."""
    return LaurentPolynomial({(a, b): c})


def monomial_bounded(domain: CuspDomain, a: int, b: int) -> bool:
    """Recession-cone test of one monomial: a*gx + b*gy <= 0 for every generator."""
    return all(a * gx + b * gy <= 0 for gx, gy in domain.recession_generators)


def cone_exponent(rng: random.Random, domain: CuspDomain, max_exp: int = 12):
    """One exponent pair inside the domain's bounded cone."""
    while True:
        a = rng.randint(-max_exp, max_exp)
        b = rng.randint(-max_exp, max_exp)
        if monomial_bounded(domain, a, b):
            return (a, b)


def rand_bounded_poly(
    rng: random.Random,
    domain: CuspDomain,
    terms: int,
    max_exp: int = 12,
    exact: bool = False,
) -> LaurentPolynomial:
    out: dict = {}
    for _ in range(terms):
        e = cone_exponent(rng, domain, max_exp)
        out[e] = rand_qcomplex(rng) if exact else rand_complex(rng)
    return LaurentPolynomial(out)


def rand_symmetric_component(
    rng: random.Random,
    k: int,
    l: int,
    m: int,
    n: int,
    terms: int,
    max_unit: int = 4,
    exact: bool = False,
) -> LaurentPolynomial:
    """Random component: exponents in (N*Z)^2, inside both the domain cone
    (a*l + b*k >= 0, plus a >= 0 when m = 0) and the ratio cone (a*n >= b*m).

    The solver needs no ratio cone; the filter only keeps the seeded instances
    drawn from here, which tests pin, unchanged."""
    order = k * n + l * m
    out: dict = {}
    drawn = 0
    while drawn < terms:
        au = rng.randint(-max_unit, max_unit)
        bu = rng.randint(-max_unit, max_unit)
        a, b = order * au, order * bu
        if a * n - b * m < 0 or a * l + b * k < 0:
            continue
        if m == 0 and a < 0:
            continue
        out[(a, b)] = rand_qcomplex(rng) if exact else rand_complex(rng)
        drawn += 1
    return LaurentPolynomial(out)


def strip_cone_poly(
    rng: random.Random,
    k: int,
    l: int,
    m: int,
    n: int,
    terms: int,
    max_exp: int = 6,
    exact: bool = False,
) -> LaurentPolynomial:
    """Random polynomial solvable on a strip with cut monomial z1^m z2^n.

    Exponents satisfy the strip cone a*l + b*k >= 0 and, after routing to the
    symmetric component, the ratio cone (a - a mod N)*n >= (b - b mod N)*m.
    Every polynomial in the strip cone is solvable; the ratio-cone filter only
    keeps the seeded instances drawn from here, which tests pin, unchanged.
    tests/test_strip_outside_cone.py draws the ones outside it.
    """
    order = k * n + l * m
    out: dict = {}
    drawn = 0
    while drawn < terms:
        a = rng.randint(-max_exp, max_exp)
        b = rng.randint(-max_exp, max_exp)
        if a * l + b * k < 0:
            continue
        if (a - a % order) * n < (b - b % order) * m:
            continue
        out[(a, b)] = rand_qcomplex(rng) if exact else rand_complex(rng)
        drawn += 1
    return LaurentPolynomial(out)


def rand_interior_point(rng: random.Random, domain: CuspDomain, exact: bool = False):
    """Base point inside the domain, off both axes, with moduli kept moderate."""
    k, l = domain.k, domain.l
    if domain.kind == "hartogs_full":
        while True:
            if exact:
                den = rng.randint(3, 9)
                p2 = QComplex(Fraction(rng.randint(1, den - 1), den))
                p1 = QComplex(Fraction(rng.randint(1, den - 1), den)) * p2
            else:
                r2 = rng.uniform(0.2, 0.9)
                r1 = rng.uniform(0.1, 0.9) * r2 ** (l / k)
                t1, t2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
                p1 = complex(r1 * math.cos(t1), r1 * math.sin(t1))
                p2 = complex(r2 * math.cos(t2), r2 * math.sin(t2))
            if not domain.contains(p1, p2):
                continue
            if exact and (not p1 or not p2):
                continue
            if not exact and (p1 == 0 or p2 == 0):
                continue
            return (p1, p2)
    # strip: pick log coordinates from the sampler's own geometry
    q1, q2 = sample(domain, 1, rng.randint(0, 10**9))[0]
    return (q1, q2)


def recombine(system) -> LaurentPolynomial:
    """sum z1^i z2^j f_ij over the components of a symmetric decomposition of f."""
    total = LaurentPolynomial.zero()
    for (i, j), comp in system.components.items():
        total = total + monomial(i, j) * comp
    return total


def fiber_values(pair, p):
    """u(p) = p1^k p2^(-l) and v(p) = p1^m p2^n: the ratio and cut monomials at p."""
    p1, p2 = p
    return powi(p1, pair.k) * powi(p2, -pair.l), powi(p1, pair.m) * powi(p2, pair.n)


def to_ratio_cut(f: LaurentPolynomial, pair) -> LaurentPolynomial:
    """Rewrite a symmetric polynomial in the ratio and cut monomials.

    The (u, v) form as a LaurentPolynomial whose exponent pairs are (ratio,
    cut) exponents, as split_component forms it term by term: every exponent
    pair of f must be divisible by pair.order in both variables, and either
    exponent may come out negative.  An exact f keeps its terms; a floating
    one is built again at its norm, so its relabel prunes at |f|.
    """
    order = pair.order
    acc: dict = {}
    for (a, b), c in f.terms.items():
        if a % order or b % order:
            raise InternalContractError(
                f"exponent ({a}, {b}) is not divisible by the symmetry order {order}"
            )
        acc[((a * pair.n - b * pair.m) // order, (a * pair.l + b * pair.k) // order)] = c
    return LaurentPolynomial(acc, prune_scale=f.max_norm)


def log_coordinates(points):
    """Arrays of log|q1| and log|q2| over sampled points."""
    pts = np.array(points, dtype=complex)
    return np.log(np.abs(pts[:, 0])), np.log(np.abs(pts[:, 1]))


def subtract_value_at(f: LaurentPolynomial, p) -> LaurentPolynomial:
    """f - f(p), the standard way the corpus meets the vanishing precondition."""
    return f - LaurentPolynomial.constant(f.eval(*p))


def built_or_none(terms: dict, scale) -> LaurentPolynomial | None:
    """LaurentPolynomial(terms, prune_scale=scale), or None where an infinite
    coefficient makes the prune scale infinite, which raises InputError."""
    try:
        return LaurentPolynomial(terms, prune_scale=scale)
    except InputError:
        return None


def state_or_error(compute) -> tuple:
    """Terms in order with their coefficients' reprs and the stored norm of the
    computed polynomial, or the message of the InputError it raised."""
    try:
        f = compute()
    except InputError as err:
        return "InputError", str(err)
    return [(e, repr(c)) for e, c in f.terms.items()], repr(f._norm)


def chain_multiply_add(base: LaurentPolynomial, products, subtract: bool = False) -> dict:
    """Dict-loop reference of base +- sum g*h in scalar arithmetic.

    Each product and each sum is formed coefficient by coefficient with the
    scalars' own * and +, and exact zeros are dropped after every product and
    every sum, as the operator chain f + g*h + ... drops them.  Returns the
    term map in the chain's order.  On exact operands every coefficient is a
    QComplex, since a polynomial holds one coefficient kind, so the map is
    all QComplex too.
    """
    acc = dict(base.terms)
    for g, h in products:
        product: dict = {}
        for (a1, b1), c1 in g.terms.items():
            for (a2, b2), c2 in h.terms.items():
                exp = (a1 + a2, b1 + b2)
                product[exp] = product.get(exp, 0) + c1 * c2
        for exp, c in product.items():
            if not c:
                continue
            total = acc.get(exp, 0) + (-c if subtract else c)
            if total:
                acc[exp] = total
            else:
                del acc[exp]
    return acc


# -- machine report oracle ----------------------------------------------------


_REPORT_FLOAT_KEYS = {
    "residual_max",
    "sup_f_upper",
    "sup_f1_sampled",
    "sup_f2_sampled",
    "bound_rhs",
}
_REPORT_INT_KEYS = {"k", "l"}
_REPORT_BOOL_KEYS = {"bounded_f1", "bounded_f2"}
_REPORT_COMPLEX_KEYS = {"p1", "p2"}


def parse_report(text: str) -> dict:
    """Parse a machine report back into typed fields."""
    out: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"malformed report line {line!r}")
        key, value = line.split("=", 1)
        if key in _REPORT_FLOAT_KEYS:
            out[key] = float(Fraction(value)) if "/" in value else float(value)
        elif key in _REPORT_INT_KEYS:
            out[key] = int(value)
        elif key in _REPORT_BOOL_KEYS:
            out[key] = value == "true"
        elif key in _REPORT_COMPLEX_KEYS:
            out[key] = complex(parse_scalar(value))
        elif key == "residual_argmax":
            a, b = value.split(",")
            out[key] = (complex(parse_scalar(a)), complex(parse_scalar(b)))
        elif key == "cone_violations":
            out[key] = [
                (int(pair.split(":")[0]), int(pair.split(":")[1]))
                for pair in value.split(";")
                if pair
            ]
        else:
            out[key] = value
    return out


# one visible PASS/FAIL line per acceptance check, immune to output capture
_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        _ACCEPTANCE_RESULTS[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance")
    for name in sorted(_ACCEPTANCE_RESULTS):
        label = name.removeprefix("test_").replace("_", " ", 1)
        terminalreporter.write_line(f"[{label}] {_ACCEPTANCE_RESULTS[name]}")
