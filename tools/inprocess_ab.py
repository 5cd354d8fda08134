"""In-process A/B timing of two source trees on one benchmark workload.

Usage:
    python3 tools/inprocess_ab.py --parent SRC --change SRC --workload NAME --seed N
        --rounds R [--exact-lift] [--limit K]

Each SRC is the ``src`` directory of a tree.  Both trees are imported into
one process, each under its own module set: ``gleason`` with its
submodules, and ``perfbench/corpus.py``, which imports them, so each tree
builds the workload's corpus from its own classes.  ``--exact-lift`` lifts
the float instances to exact mode as ``tools/output_digest.py`` does, and
``--limit K`` keeps the first K instances.

The outputs are compared first, by the digests of ``tools/output_digest.py``;
if any instance differs, the tool prints how many and exits 1 without
timing.  Then each round solves every instance once per tree, the tree that
goes first alternating from instance to instance and from round to round,
and sums each tree's solve times.  The ratio of a round is change/parent; the
tool prints each round's ratio, their median and the rounds in which the
change was faster.  Both trees share one process, so the drift between
separate runs that the end-to-end benchmark averages out cancels within a
round.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import output_digest  # noqa: E402

_OWNED = ("gleason", "corpus")


def _owned(name: str) -> bool:
    return name in _OWNED or name.startswith("gleason.")


class Tree:
    """One source tree's module set, importable and activated by name."""

    def __init__(self, src: Path):
        previous = {name: sys.modules.pop(name) for name in list(sys.modules) if _owned(name)}
        sys.path[:0] = [str(src.resolve()), str(ROOT / "perfbench")]
        try:
            import corpus
            import gleason

            self.corpus, self.solve = corpus, gleason.solve
        finally:
            del sys.path[:2]
            self.modules = {name: sys.modules.pop(name) for name in list(sys.modules) if _owned(name)}
            sys.modules.update(previous)

    def activate(self) -> None:
        """Make this tree's modules the ones a lazy import inside the package finds."""
        for name in [name for name in sys.modules if _owned(name)]:
            del sys.modules[name]
        sys.modules.update(self.modules)

    def instances(self, workload: str, seed: int, lift: bool, limit: int | None) -> list:
        self.activate()
        corpus = self.corpus.build(workload, seed)[:limit]
        return [output_digest.exact_lift(inst) for inst in corpus] if lift else corpus

    def digests(self, corpus: list) -> list:
        self.activate()
        return [output_digest.digest(inst) for inst in corpus]

    def time(self, inst) -> float:
        self.activate()
        t0 = perf_counter()
        try:
            self.solve(inst.domain, inst.f, inst.p, samples=inst.samples)
        except Exception:  # a raising solve is timed as the benchmark times it
            pass
        return perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument(
        "--exact-lift", action="store_true", help="solve each instance lifted to exact mode"
    )
    parser.add_argument("--limit", type=int, help="keep the first K instances")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = [Tree(args.parent), Tree(args.change)]
    if args.workload not in trees[0].corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(trees[0].corpus.WORKLOADS)}")
    corpora = [tree.instances(args.workload, args.seed, args.exact_lift, args.limit) for tree in trees]
    parent, change = (tree.digests(corpus) for tree, corpus in zip(trees, corpora))
    differing = sum(a != b for a, b in zip(parent, change))
    lift = " --exact-lift" if args.exact_lift else ""
    print(f"{args.workload}{lift} seed {args.seed}: {len(parent)} instances, {differing} differing")
    if differing:
        return 1

    ratios = []
    for r in range(args.rounds):
        totals = [0.0, 0.0]
        gc.collect()
        for index, pair in enumerate(zip(*corpora)):
            order = (0, 1) if (index + r) % 2 == 0 else (1, 0)
            for side in order:
                totals[side] += trees[side].time(pair[side])
        ratios.append(totals[1] / totals[0])
        print(f"round {r + 1}: parent {totals[0]:.3f} s, change {totals[1]:.3f} s, ratio {ratios[-1]:.3f}")
    won = sum(ratio < 1 for ratio in ratios)
    print(f"ratio {statistics.median(ratios):.3f} (median of {len(ratios)} rounds), change faster in {won} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
