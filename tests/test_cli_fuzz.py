"""Seeded fuzz of `gleason solve`, in process.

Each call draws, with `random` only, a domain with k, l <= 6 (the full
Hartogs domain or a strip), a base point from the surface of the domain down
deep into the cusp, and f with up to four monomials and coefficients up to
1e308, in float or exact mode.  Every call must end with an exit code in
{0, 1, 2} and no uncaught exception, and on exit 0 the printed f1 and f2,
lifted to the Gaussian rationals they stand for, must leave a residual
f - f1*(z1 - p1) - f2*(z2 - p2) whose every coefficient is at most
1e-9 * (1 + |f|_1).
"""

from __future__ import annotations

import math
import random
import time

import pytest

from gleason import QComplex, cli, format_poly, solve
from gleason.exprio import format_float

CALLS = 1000
SECONDS_PER_CALL = 5.0
STRIP_CUTS = [(0, 1), (1, 1), (1, 2), (2, 1)]


def _coefficient(rng: random.Random) -> str:
    """A real or complex literal of modulus up to 1e308."""
    def part() -> float:
        return rng.choice((-1, 1)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-20, 307)

    if rng.random() < 0.7:
        return format_float(part())
    re, im = part(), part()
    return f"({format_float(re)}{'-' if im < 0 else '+'}{format_float(abs(im))}i)"


def _exponent(rng: random.Random, k: int, l: int, strip: bool) -> tuple:
    """Mostly a monomial of the bounded cone, l*a + k*b >= 0 (and a >= 0 off
    a strip); now and then any exponent, which the solve must reject."""
    a = rng.randint(-4 if strip else 0, 8)
    if rng.random() < 0.1:
        return a, rng.randint(-8, 8)
    return a, -((l * a) // k) + rng.randint(0, 4)


def _polar(rng: random.Random, radius: float) -> str:
    z = radius * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


def _draw(rng: random.Random) -> list:
    """argv of one `gleason solve` call."""
    k, l = rng.randint(1, 6), rng.randint(1, 6)
    exact = rng.random() < 0.25
    strip = rng.random() < 0.3
    argv = ["solve", "--k", str(k), "--l", str(l), "--samples", str(rng.choice((0, 0, 0, 16)))]
    # exact powers of a deep point grow long integers: keep exact points shallower
    depth = rng.uniform(0.05, 8.0 if exact else 40.0)
    if strip:
        lower, upper = rng.choice((0.25, 0.5)), rng.choice((2.0, 4.0))
        m, n = rng.choice(STRIP_CUTS)
        argv += ["--mode", "omega2", "--strip-lower", repr(lower), "--strip-upper", repr(upper),
                 "--cut-m", str(m), "--cut-n", str(n)]
        y = -depth * math.log(10)
        x = (l * y + math.log(rng.uniform(lower, upper))) / k
        p1, p2 = _polar(rng, math.exp(x)), _polar(rng, math.exp(y))
    else:
        r2 = 10.0**-depth
        p2 = _polar(rng, r2)
        p1 = "0" if rng.random() < 0.15 else _polar(rng, rng.uniform(0.05, 0.95) * r2 ** (l / k))
    terms = [_exponent(rng, k, l, strip) for _ in range(rng.randint(1, 4))]
    f = " + ".join(f"{_coefficient(rng)}*z1^{a}*z2^{b}" for a, b in terms).replace("+ -", "- ")
    # name=value: a value may start with a minus sign
    argv += [f"--p1={p1}", f"--p2={p2}", f"--f={f}"]
    if exact:
        argv.append("--exact")
    if rng.random() < 0.85:
        argv.append("--subtract-value")
    return argv


def _lift(c) -> QComplex:
    """The Gaussian rational a float, complex or exact scalar stands for."""
    if isinstance(c, QComplex):
        return c
    c = complex(c)
    return QComplex(c.real, c.imag)


def _residual_within_tolerance(f, p, f1, f2) -> bool:
    residual = {e: _lift(c) for e, c in f.terms.items()}
    for g, (da, db), root in ((f1, (1, 0), _lift(p[0])), (f2, (0, 1), _lift(p[1]))):
        for (a, b), c in g.terms.items():
            c = _lift(c)
            for exp, term in (((a + da, b + db), c), ((a, b), -(c * root))):
                residual[exp] = residual.get(exp, QComplex(0)) - term
    tol = 1e-9 * (1 + f.one_norm())
    if not math.isfinite(tol):
        return True
    return all(r.abs2() <= QComplex(tol).abs2() for r in residual.values())


@pytest.mark.parametrize("seed", range(CALLS))
def test_solve_exits_cleanly_and_verifies(capsys, monkeypatch, seed):
    argv = _draw(random.Random(f"cli-fuzz:{seed}"))
    solved = []  # (f, p, solution) of the solve the command ran
    monkeypatch.setattr(
        cli, "solve", lambda domain, f, p, **kw: solved.append((f, p, solve(domain, f, p, **kw))) or solved[-1][2]
    )
    t0 = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert seconds < SECONDS_PER_CALL, argv
    if code == 2:
        assert out == "" and err.startswith("error: "), argv
        return
    (f, p, solution), = solved
    assert out.splitlines()[:2] == [f"f1 = {format_poly(solution.f1)}", f"f2 = {format_poly(solution.f2)}"]
    if code == 0:
        assert _residual_within_tolerance(f, p, solution.f1, solution.f2), argv
