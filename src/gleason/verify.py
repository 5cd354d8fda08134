"""Verification of a decomposition: symbolic identity, sampling, boundedness.

Everything here treats the candidate factors as opaque polynomials.  The
residual polynomial f - f1*(z1-p1) - f2*(z2-p2) is formed once; its
coefficients decide the symbolic check by `scalars.negligible`, the one
vanishing rule, and its values over a deterministic cusp-biased sample set
give the numeric residual.  numpy is imported by the functions that
evaluate on sample arrays, so exact and unsampled work never loads it.

The sample set depends only on (domain, count, seed), and so do the powers
q1**a and q2**b of its points, so a `verify` call reaches the key's read-only
(q1, q2) arrays and their pair of power tables with one lookup in a
least-recently-used cache of 16 keys.  A table computes a power on first use
and keeps it, read-only, while its key holds fewer than 64: with the two
arrays, at most 16 x (64 + 2) x count x 16 bytes, 33.8 MB at 2000 samples,
shared by the residual, f1 and f2.
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
    """What `verify` found.  sup_f_upper is |f|_1, the sum of f's coefficient
    moduli: a bound on sup |f| over hartogs_full, where every bounded monomial
    has supremum 1, but not over a strip, where one may exceed 1."""

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


def eval_on_arrays(f: LaurentPolynomial, q1, q2, powers: tuple) -> np.ndarray:
    """Vectorized evaluation on complex arrays q1 and q2.

    `powers` is a pair of power tables (`_Powers`) over q1 and q2, filled as
    needed; passing the same pair to several calls shares the powers between them.
    """
    import numpy as np

    pow1, pow2 = powers
    out = None
    for (a, b), c in f.terms.items():
        # Keep the scalar on the left: numpy's SIMD complex multiply need not be
        # bitwise commutative (AVX-512: c * x and x * c differ in the last bit).
        # Skipping a product by q**0 = 1+0j moves at most the sign of a zero on
        # finite values (np.abs drops it); a non-finite modulus stays non-finite.
        term = complex(c)
        if a:
            term = term * pow1[a]
        if b:
            term = term * pow2[b]
        if out is None:
            out = term
        else:
            out += term
    shape = np.broadcast(q1, q2).shape
    if out is None or np.shape(out) != shape:  # no term, or none in some variable
        out = np.broadcast_to(0j if out is None else out, shape).copy()
    return out


class _Powers(dict):
    """q**exponent by exponent, computed on first use.

    Two tables share `room`, a one-item list of how many more powers they may
    keep; a kept power is read-only, and one past the room is not kept.
    """

    def __init__(self, q, room: list):
        super().__init__()
        self.q, self.room = q, room

    def __missing__(self, exponent: int):
        power = self.q**exponent
        if self.room[0] > 0:
            self.room[0] -= 1
            power.flags.writeable = False
            self[exponent] = power
        return power


@lru_cache(maxsize=16)
def _sample_powers(domain: CuspDomain, count: int, seed: int) -> tuple:
    """Power tables over the (q1, q2) arrays of `sample(domain, count, seed)`.

    Equal keys draw equal streams (`CuspDomain` is a frozen record, equal and
    hashed over its fields), so the arrays are kept read-only, and the two
    tables keep 64 powers at most.
    """
    import numpy as np

    pts = sample(domain, count, seed)
    room = [64]
    tables = []
    for i in (0, 1):
        q = np.array([point[i] for point in pts], dtype=complex)
        q.flags.writeable = False
        tables.append(_Powers(q, room))
    return tuple(tables)


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

        powers = _sample_powers(domain, samples, seed)
        q1, q2 = powers[0].q, powers[1].q
        maxima = []
        with np.errstate(all="ignore"):  # a non-finite maximum raises below
            for name, g in (("the residual", residual), ("f1", f1), ("f2", f2)):
                if not g.terms:  # the maximum of zeros: 0.0 at sample 0
                    maxima.append((0.0, 0))
                    continue
                try:
                    moduli = np.abs(eval_on_arrays(g, q1, q2, powers))
                except OverflowError:  # an exact coefficient past the float range
                    raise InputError(f"float overflow: the sampled check cannot read {name} as floats") from None
                top = int(np.argmax(moduli))
                if not math.isfinite(moduli[top]):
                    raise InputError(f"float overflow: {name} on the samples is out of the float range")
                maxima.append((float(moduli[top]), top))
        (residual_max, top), (sup1, _), (sup2, _) = maxima
        argmax = (complex(q1[top]), complex(q2[top]))
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
