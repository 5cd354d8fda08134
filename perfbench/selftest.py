"""Self-test of the benchmark: seeded corpora and exactly repeating counts.

Usage: python3 perfbench/selftest.py [--seed N]

Checks, for every workload:
  * the same seed builds the same corpus and another seed a different one;
  * two traced runs at the same seed report identical counts, failure
    fraction and coefficient growth, and the same `attempted` and `failed`.
Exits 0 when every check holds and 1 otherwise, listing what differed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Result counts and metrics of a traced run that must repeat exactly at a
# fixed seed.
EXACT_KEYS = (
    "attempted",
    "failed",
    "division.split_component_calls",
    "division.split_component_failed",
    "domains.sample_points",
    "laurent.add_calls",
    "laurent.eval_calls",
    "laurent.max_norm_calls",
    "laurent.mul_calls",
    "laurent.mul_term_pairs",
    "scalars.coeff_bits_max",
    "solver.fail_frac",
    "symmetry.component_yield",
    "verify.eval_term_points",
    "verify.growth_max",
    "verify.residual_terms",
)


def _fingerprint(corp) -> list:
    return [
        (inst.spec.k, inst.spec.l, inst.spec.branch, sorted(inst.spec.terms.items()), inst.spec.p)
        for inst in corp
    ]


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(attempted=result["attempted"], failed=result["failed"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import corpus

    problems = []
    for workload in corpus.WORKLOADS:
        base = _fingerprint(corpus.build(workload, args.seed))
        if base != _fingerprint(corpus.build(workload, args.seed)):
            problems.append(f"{workload}: seed {args.seed} built two different corpora")
        if base == _fingerprint(corpus.build(workload, args.seed + 1)):
            problems.append(f"{workload}: seeds {args.seed} and {args.seed + 1} built the same corpus")
        first, second = _traced(workload, args.seed), _traced(workload, args.seed)
        for key in EXACT_KEYS:
            if first[key] != second[key]:
                problems.append(f"{workload}: {key} read {first[key]!r} then {second[key]!r}")
        print(f"{workload}: " + ", ".join(f"{k}={first[k]:.6g}" for k in EXACT_KEYS))
    for line in problems:
        print("FAIL " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
