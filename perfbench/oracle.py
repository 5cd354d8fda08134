"""Independent correctness oracle for one solve.

It recomputes f - f1*(z1-p1) - f2*(z2-p2) with a plain dict loop (not the
library's ``symbolic_residual``) and re-checks every exponent of f1 and f2
against the paper's bounded cone.  Exact mode must give a literally zero
residual with exact coefficients; float mode allows a largest residual
coefficient of 1e-9 * (1 + |f|_1).
"""

from __future__ import annotations

from fractions import Fraction

from corpus import STRIP, in_cone

FLOAT_RESIDUAL_REL = 1e-9


def _parts(c):
    """(re, im) of a coefficient; exact Fractions for exact scalars."""
    re = getattr(c, "re", None)
    if isinstance(re, Fraction):
        return (re, c.im)
    z = complex(c)
    return (z.real, z.imag)


def residual(f, f1, f2, p) -> dict:
    """Coefficients of f - f1*(z1-p1) - f2*(z2-p2), as (re, im) pairs."""
    p1, p2 = _parts(p[0]), _parts(p[1])
    out: dict = {}

    def add(exp, re, im):
        old = out.get(exp, (0, 0))
        out[exp] = (old[0] + re, old[1] + im)

    for exp, c in f.terms.items():
        add(exp, *_parts(c))
    for (a, b), c in f1.terms.items():
        re, im = _parts(c)
        add((a + 1, b), -re, -im)
        add((a, b), re * p1[0] - im * p1[1], re * p1[1] + im * p1[0])
    for (a, b), c in f2.terms.items():
        re, im = _parts(c)
        add((a, b + 1), -re, -im)
        add((a, b), re * p2[0] - im * p2[1], re * p2[1] + im * p2[0])
    return out


def check(instance, f1, f2) -> str | None:
    """None when the solution is right, else the name of the failed check."""
    spec = instance.spec
    strip = spec.branch == STRIP
    for g in (f1, f2):
        for a, b in g.terms:
            if not in_cone(spec.k, spec.l, strip, a, b):
                return "oracle_cone"
    res = residual(instance.f, f1, f2, instance.p)
    if spec.exact:
        for g in (f1, f2):
            for c in g.terms.values():
                if not isinstance(getattr(c, "re", None), Fraction):
                    return "oracle_inexact"
        if any(re or im for re, im in res.values()):
            return "oracle_residual"
        return None
    one_norm = sum(abs(complex(c)) for c in instance.f.terms.values())
    tol = FLOAT_RESIDUAL_REL * (1.0 + one_norm)
    # written as "not <=" so that a NaN coefficient fails as well
    if any(not abs(complex(re, im)) <= tol for re, im in res.values()):
        return "oracle_residual"
    return None
