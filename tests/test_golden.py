"""Golden outputs: fixed solves whose f1, f2 text must not change by one byte.

The instances are drawn from the conftest generators with fixed seeds and
cover exact and float coefficients, the interior, axis and strip branches,
symmetrization orders 1 to 6, float base points deep in the cusp and strips
cut by z1*z2.  Sampling is off, so every recorded byte comes from the
polynomial pipeline.  tests/data/golden_solve.txt holds, per instance, the
input and either f1 and f2 or the class of the exception the solve raised.

Every instance is solved a second time with sampling on.
tests/data/golden_exact_sampled.txt holds the machine reports of the exact
ones: the sampled figures are float sums over the terms of f1, f2 and the
residual in stored order, so this file pins the term order of the exact
kernels.  tests/data/golden_float_sampled.txt holds the machine reports of
the float ones, each with the residual's largest coefficient modulus, so it
pins the float residual polynomial: its coefficients and, through the
sampled residual, their order.

Regenerate the three files with ``PYTHONPATH=src python tests/test_golden.py``
only when an output change is intended.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from pathlib import Path

from gleason import (
    CuspDomain,
    GleasonError,
    QComplex,
    emit_report,
    format_poly,
    format_scalar,
    solve,
)
from gleason.exprio import format_float

from conftest import (
    rand_bounded_poly,
    rand_interior_point,
    strip_cone_poly,
    subtract_value_at,
)

GOLDEN = Path(__file__).parent / "data" / "golden_solve.txt"
GOLDEN_SAMPLED = Path(__file__).parent / "data" / "golden_exact_sampled.txt"
GOLDEN_FLOAT_SAMPLED = Path(__file__).parent / "data" / "golden_float_sampled.txt"
SAMPLES = 200

ORDER_PAIRS = [(1, 1), (2, 1), (3, 2), (4, 1), (5, 1), (6, 1)]
AXIS_PAIRS = [(1, 1), (2, 3), (3, 1)]
DEEP_PAIRS = [(3, 2), (5, 1), (6, 1)]
STRIP_SHAPES = [(2, 1, 0, 1), (2, 1, 1, 1), (1, 1, 2, 1), (1, 1, 0, 3)]


def _exactify(z) -> QComplex:
    z = complex(z)
    return QComplex(
        Fraction(z.real).limit_denominator(1000), Fraction(z.imag).limit_denominator(1000)
    )


def _polar(rng: random.Random, r: float) -> complex:
    return r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def _instances():
    """(label, domain, f, p) for every golden instance, in file order."""
    out = []
    rng = random.Random(2024)
    for exact in (True, False):
        kind = "exact" if exact else "float"
        terms = 6 if exact else 8
        for k, l in ORDER_PAIRS:
            domain = CuspDomain.hartogs(k, l)
            for _ in range(2):
                p = rand_interior_point(rng, domain, exact=exact)
                f = subtract_value_at(rand_bounded_poly(rng, domain, terms, exact=exact), p)
                out.append((f"{kind} interior D({k},{l})", domain, f, p))
        for k, l in AXIS_PAIRS:
            domain = CuspDomain.hartogs(k, l)
            if exact:
                p = (QComplex(0), QComplex(Fraction(rng.randint(1, 8), 9)))
            else:
                p = (0j, _polar(rng, rng.uniform(0.2, 0.9)))
            f = subtract_value_at(rand_bounded_poly(rng, domain, terms, exact=exact), p)
            out.append((f"{kind} axis D({k},{l})", domain, f, p))
        for k, l, m, n in STRIP_SHAPES:
            domain = CuspDomain.strip(k, l, 0.5, 2.0, m, n, 0.0)
            for _ in range(2):
                p = rand_interior_point(rng, domain)
                while exact and not domain.contains(*map(_exactify, p)):
                    p = rand_interior_point(rng, domain)
                if exact:
                    p = (_exactify(p[0]), _exactify(p[1]))
                f = subtract_value_at(strip_cone_poly(rng, k, l, m, n, terms, exact=exact), p)
                out.append((f"{kind} strip D({k},{l}) cut ({m},{n})", domain, f, p))
    # float base points deep in the cusp, |p2| <= 0.01
    for k, l in DEEP_PAIRS:
        domain = CuspDomain.hartogs(k, l)
        for r2 in (0.01, 0.002):
            p = (_polar(rng, 0.5 * r2 ** (l / k)), _polar(rng, r2))
            assert domain.contains(*p)
            f = subtract_value_at(rand_bounded_poly(rng, domain, 12), p)
            out.append((f"float deep D({k},{l}) |p2|={r2}", domain, f, p))
    # deep float strips cut by z1*z2: |p1|^2 / |p2| inside (0.5, 2)
    domain = CuspDomain.strip(2, 1, 0.5, 2.0, 1, 1, 0.0)
    for r2 in (1e-2, 1e-3, 1e-4, 1e-6):
        for _ in range(2):
            p = (_polar(rng, (rng.uniform(0.6, 1.8) * r2) ** 0.5), _polar(rng, r2))
            assert domain.contains(*p)
            f = subtract_value_at(strip_cone_poly(rng, 2, 1, 1, 1, 12), p)
            out.append((f"float deep strip D(2,1) cut (1,1) |p2|={r2}", domain, f, p))
    return out


def _record(index: int, label: str, domain, f, p) -> list[str]:
    lines = [
        f"[{index:02d}] {label}",
        f"f = {format_poly(f)}",
        f"p = ({format_scalar(p[0])}, {format_scalar(p[1])})",
    ]
    try:
        sol = solve(domain, f, p, samples=0)
    except GleasonError as err:
        return lines + [f"raises {type(err).__name__}"]
    return lines + [f"f1 = {format_poly(sol.f1)}", f"f2 = {format_poly(sol.f2)}"]


def _records() -> list[list[str]]:
    return [_record(i, *inst) for i, inst in enumerate(_instances())]


def _sampled_records(kind: str = "exact") -> list[list[str]]:
    """Machine reports of the instances of one kind solved with sampling on.

    A float report also records the symbolic residual's largest coefficient
    modulus, which the machine report leaves out.
    """
    out = []
    for index, (label, domain, f, p) in enumerate(_instances()):
        if not label.startswith(f"{kind} "):
            continue
        lines = [f"[{index:02d}] {label}"]
        try:
            sol = solve(domain, f, p, samples=SAMPLES)
        except GleasonError as err:
            out.append(lines + [f"raises {type(err).__name__}"])
            continue
        if kind == "float":
            lines.append(f"residual_coeff_max={format_float(sol.report.residual_coeff_max)}")
        out.append(lines + emit_report(sol, "machine").split("\n"))
    return out


def _golden_records(path: Path = GOLDEN) -> list[list[str]]:
    blocks = path.read_text(encoding="utf-8").strip("\n").split("\n\n")
    return [block.split("\n") for block in blocks]


def _write(path: Path, records: list[list[str]]) -> None:
    path.write_text("\n\n".join("\n".join(r) for r in records) + "\n", encoding="utf-8")


def test_golden_solve_outputs():
    want = _golden_records()
    got = _records()
    assert len(got) == len(want)
    changed = [g[0] for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} of {len(want)} outputs changed: {changed}"


def test_golden_covers_every_branch_and_outcome():
    text = GOLDEN.read_text(encoding="utf-8")
    for tag in ("exact interior", "float interior", "exact axis", "float axis",
                "exact strip", "float strip", "float deep", "cut (1,1)", "raises "):
        assert tag in text
    for k, _l in ORDER_PAIRS:
        assert f"interior D({k}," in text


def test_golden_exact_sampled_reports():
    want = _golden_records(GOLDEN_SAMPLED)
    got = _sampled_records()
    assert len(got) == len(want)
    changed = [g[0] for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} of {len(want)} reports changed: {changed}"


def test_golden_exact_sampled_covers_every_branch_and_order():
    text = GOLDEN_SAMPLED.read_text(encoding="utf-8")
    for mode in ("mode=p1_nonzero", "mode=p1_zero", "mode=omega2_local"):
        assert mode in text
    for k, _l in ORDER_PAIRS:
        assert f"exact interior D({k}," in text
    # sampled figures are recorded, not the zeros of an unsampled solve
    assert "sup_f1_sampled=0\n" not in text


def test_golden_float_sampled_reports():
    want = _golden_records(GOLDEN_FLOAT_SAMPLED)
    got = _sampled_records("float")
    assert len(got) == len(want)
    changed = [g[0] for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} of {len(want)} reports changed: {changed}"


def test_golden_float_sampled_covers_every_branch():
    text = GOLDEN_FLOAT_SAMPLED.read_text(encoding="utf-8")
    for tag in ("mode=p1_nonzero", "mode=p1_zero", "mode=omega2_local", "float deep D(",
                "float deep strip", "residual_coeff_max="):
        assert tag in text
    assert "sup_f1_sampled=0\n" not in text


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    _write(GOLDEN, _records())
    _write(GOLDEN_SAMPLED, _sampled_records())
    _write(GOLDEN_FLOAT_SAMPLED, _sampled_records("float"))
