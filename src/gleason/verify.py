"""Verification of a decomposition: symbolic identity, sampling, boundedness.

Everything here treats the candidate factors as opaque polynomials.  The
residual polynomial f - f1*(z1-p1) - f2*(z2-p2) is formed once; its
coefficients decide the symbolic check by `scalars.negligible`, the one
vanishing rule, and its values over a deterministic cusp-biased sample set
give the numeric residual.  numpy is imported by the functions that
evaluate on sample arrays, so exact and unsampled work never loads it.

The sample set depends only on (domain, count, seed), so its (q1, q2) arrays
are drawn once per key and kept, read-only, in a least-recently-used cache of
32 keys: at most 32 x count x 32 bytes, 2 MB at the default 2000 samples.
The powers q1**a and q2**b depend only on that key and the exponent, so they
are kept too, read-only, in a least-recently-used cache of 1024 powers: at
most 1024 x count x 16 bytes, 32 MB at 2000 samples; a warm key never
recomputes a power.  Within one `verify` call the residual, f1 and f2 share
one table of them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from ._record import record
from .domains import CuspDomain, poly_bounded, sample
from .errors import InputError
from .laurent import LaurentPolynomial, subtract_linear_multiples
from .scalars import VANISH_TOL_REL, negligible

if TYPE_CHECKING:
    import numpy as np


@record
class VerificationReport:
    residual_max: float
    residual_argmax: tuple
    symbolic_residual_zero: bool
    residual_coeff_max: float
    bounded_f1: bool
    bounded_f2: bool
    cone_violations: tuple
    sup_f_upper: float
    sup_f1_sampled: float
    sup_f2_sampled: float
    samples_used: int
    seed: int
    identity_tol: float
    bound_rhs: float | None = None

    @property
    def passed(self) -> bool:
        return (
            self.symbolic_residual_zero
            and self.residual_max <= self.identity_tol
            and self.bounded_f1
            and self.bounded_f2
        )


def eval_on_arrays(f: LaurentPolynomial, q1, q2, powers: tuple | None = None) -> np.ndarray:
    """Vectorized evaluation on complex arrays, with per-exponent power reuse.

    `powers` is a pair of dicts, exponent -> q1**a and exponent -> q2**b, that
    is filled as needed; passing the same pair to several calls on the same
    q1 and q2 shares the powers between them.
    """
    import numpy as np

    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    out = np.zeros(np.broadcast(q1, q2).shape, dtype=complex)
    pow1, pow2 = ({}, {}) if powers is None else powers
    for (a, b), c in f.terms.items():
        if a not in pow1:
            pow1[a] = q1**a
        if b not in pow2:
            pow2[b] = q2**b
        # Keep the scalar on the left.  Complex multiply in numpy's SIMD loops
        # need not be bitwise commutative (numpy 2.4 with AVX-512: c * x and
        # x * c differ in the last bit on about a third of the samples), and
        # `x *= c` computes x * c.  np.multiply(c, x, out=buf) followed by an
        # in-place buf *= q2**b keeps these bits, but was no faster.
        out += complex(c) * pow1[a] * pow2[b]
    return out


@lru_cache(maxsize=32)
def _sample_arrays(domain: CuspDomain, count: int, seed: int) -> tuple:
    """Read-only (q1, q2) complex arrays of `sample(domain, count, seed)`.

    Equal keys draw equal streams (`CuspDomain` is a frozen record, equal and
    hashed over its fields), so the arrays are kept: 32 keys of count x 32
    bytes each.
    """
    import numpy as np

    pts = sample(domain, count, seed)
    q1 = np.array([a for a, _ in pts], dtype=complex)
    q2 = np.array([b for _, b in pts], dtype=complex)
    q1.flags.writeable = False
    q2.flags.writeable = False
    return q1, q2


@lru_cache(maxsize=1024)
def _sample_power(domain: CuspDomain, count: int, seed: int, var: int, exponent: int):
    """Read-only `q**exponent` for q = q1 (var 0) or q2 (var 1) of the sample arrays.

    1024 powers of count x 16 bytes each are kept: 32 MB at 2000 samples.
    """
    power = _sample_arrays(domain, count, seed)[var] ** exponent
    power.flags.writeable = False
    return power


def symbolic_residual(
    f: LaurentPolynomial,
    f1: LaurentPolynomial,
    f2: LaurentPolynomial,
    p: tuple,
) -> LaurentPolynomial:
    """f - f1*(z1-p1) - f2*(z2-p2), zero iff the identity holds on exact operands.

    On floating ones every coefficient is within VANISH_TOL_REL * (1 + |f|_1)
    iff every exact one is (see `subtract_linear_multiples`).
    """
    p1, p2 = p
    tol = VANISH_TOL_REL * (1.0 + f.one_norm())
    return subtract_linear_multiples(f, [(f1, (1, 0), p1), (f2, (0, 1), p2)], tol)


def verify(
    domain: CuspDomain,
    f: LaurentPolynomial,
    f1: LaurentPolynomial,
    f2: LaurentPolynomial,
    p: tuple,
    *,
    samples: int = 2000,
    seed: int = 42,
    bound_rhs: float | None = None,
) -> VerificationReport:
    """Full report: symbolic residual, sampled residual, cone certificates."""
    f_norm = f.one_norm()
    if not math.isfinite(f_norm):
        raise InputError("the coefficient sum of f is out of the float range")
    scale = 1.0 + f_norm
    residual = symbolic_residual(f, f1, f2, p)
    coeff_max = residual.max_norm()
    symbolic_zero = all(negligible(c, lambda: scale) for c in residual.terms.values())

    cert1 = poly_bounded(domain, f1)
    cert2 = poly_bounded(domain, f2)
    violations = tuple(sorted(set(cert1.violations) | set(cert2.violations)))

    if samples > 0:
        import numpy as np

        q1, q2 = _sample_arrays(domain, samples, seed)
        exponents = [{e[var] for g in (residual, f1, f2) for e in g.exponents()} for var in (0, 1)]
        powers = tuple(
            {e: _sample_power(domain, samples, seed, var, e) for e in exponents[var]}
            for var in (0, 1)
        )
        moduli = []
        for name, g in (("the residual", residual), ("f1", f1), ("f2", f2)):
            try:
                moduli.append(np.abs(eval_on_arrays(g, q1, q2, powers)))
            except OverflowError:  # an exact coefficient past the float range
                raise InputError(f"float overflow: the sampled check cannot read {name} as floats") from None
        res, at1, at2 = moduli
        top = int(np.argmax(res))
        residual_max = float(res[top])
        argmax = (complex(q1[top]), complex(q2[top]))
        sup1 = float(np.max(at1))
        sup2 = float(np.max(at2))
    else:
        residual_max = 0.0
        argmax = (complex(p[0]), complex(p[1]))
        sup1 = 0.0
        sup2 = 0.0

    return VerificationReport(
        residual_max=residual_max,
        residual_argmax=argmax,
        symbolic_residual_zero=symbolic_zero,
        residual_coeff_max=float(coeff_max),
        bounded_f1=cert1.bounded,
        bounded_f2=cert2.bounded,
        cone_violations=violations,
        sup_f_upper=float(f_norm),
        sup_f1_sampled=sup1,
        sup_f2_sampled=sup2,
        samples_used=max(samples, 0),
        seed=seed,
        identity_tol=VANISH_TOL_REL * scale,
        bound_rhs=bound_rhs,
    )
