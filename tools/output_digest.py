"""One sha256 per benchmark instance over everything a solve prints.

Usage:
    python3 tools/output_digest.py --workload NAME --seed N [--src DIR] [--exact-lift]

The instances are those of ``perfbench/corpus.py`` for the workload and seed,
solved as the benchmark solves them.  Each output line is the instance's index
and the sha256 of ``format_poly(f1)``, ``format_poly(f2)``, the machine and
plain reports and ``report.passed`` (the CLI's exit status), or of the
exception's class and message when the solve raises.
Two source trees give equal lines exactly when their outputs are
byte-identical; ``--src`` names the ``src`` directory of the tree to solve
with (default: this checkout's), while the corpus always comes from this
checkout, so both sides solve the same instances.

``--exact-lift`` solves each instance in exact mode instead: every float of
f and p is lifted to the Gaussian rational it stands for (a float is a
dyadic rational, so nothing is lost), and the constant term of f is then
corrected by the exact f(p), computed with the corpus's own arithmetic, so
the lifted f vanishes at the lifted p.  The exact solve runs at the
instance's sample count, which takes the exact path onto every branch and
order of the float workloads.  Exact instances are left as they are.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(inst) -> str:
    from gleason import emit_report, format_poly, solve

    try:
        sol = solve(inst.domain, inst.f, inst.p, samples=inst.samples)
        text = "\n".join([
            format_poly(sol.f1),
            format_poly(sol.f2),
            emit_report(sol, "machine"),
            emit_report(sol, "plain"),
            f"passed={sol.report.passed}",
        ])
    except Exception as err:  # a raising solve is an output too
        text = f"{type(err).__name__}: {err}"
    return hashlib.sha256(text.encode()).hexdigest()


def _lift(z) -> tuple:
    """(re, im) Fractions of a complex float or an (re, im) pair."""
    if isinstance(z, tuple):
        return z
    return Fraction(z.real), Fraction(z.imag)


def exact_lift(inst):
    """The instance with f and p lifted to dyadic Gaussian rationals and f(p) = 0."""
    import corpus

    spec = inst.spec
    if spec.exact:
        return inst
    terms = {e: _lift(c) for e, c in spec.terms.items()}
    p = tuple(_lift(z) for z in spec.p)
    value = corpus.poly_value(terms, p)
    c0 = terms.get((0, 0), (Fraction(0), Fraction(0)))
    c0 = (c0[0] - value[0], c0[1] - value[1])
    if c0 != (0, 0):
        terms[(0, 0)] = c0
    else:
        terms.pop((0, 0), None)
    lifted = dataclasses.replace(spec, terms=terms, p=p, exact=True)
    return corpus.to_instance(lifted, inst.samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument(
        "--exact-lift", action="store_true", help="solve each instance lifted to exact mode"
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import corpus
    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(corpus.WORKLOADS)}")
    for index, inst in enumerate(corpus.build(args.workload, args.seed)):
        print(index, digest(exact_lift(inst) if args.exact_lift else inst))
    return 0


if __name__ == "__main__":
    sys.exit(main())
