"""One sha256 per benchmark instance over everything a solve prints.

Usage:
    python3 tools/output_digest.py --workload NAME --seed N [--src DIR]

The instances are those of ``perfbench/corpus.py`` for the workload and seed,
solved as the benchmark solves them.  Each output line is the instance's index
and the sha256 of ``format_poly(f1)``, ``format_poly(f2)``, the machine and
plain reports and ``report.passed`` (the CLI's exit status), or of the
exception's class and message when the solve raises.
Two source trees give equal lines exactly when their outputs are
byte-identical; ``--src`` names the ``src`` directory of the tree to solve
with (default: this checkout's), while the corpus always comes from this
checkout, so both sides solve the same instances.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import corpus
    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(corpus.WORKLOADS)}")
    for index, inst in enumerate(corpus.build(args.workload, args.seed)):
        print(index, digest(inst))
    return 0


if __name__ == "__main__":
    sys.exit(main())
