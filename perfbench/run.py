"""Benchmark of the gleason solver, timed from outside through the public API.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the solver is imported from
``src`` (the package need not be installed).  One caller drives the solver
in a closed loop, one solve at a time, from a single process with no
threads.  The workload's corpus is built from the seed, checked, and solved
pass after pass until the time is up; an independent oracle checks every
solve.  The last line of output is one JSON object with the verdict and the
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics of
an outside-in trace with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Cold CLI calls per run: one untimed warm-up (it leaves the byte-code cache
# behind, as an installed package has one), then the timed ones.
SETUP_CALLS = 11
DETAIL_CALLS = 3
CHILD_TIMEOUT_S = 120
SELF_SUM_TOLERANCE = 0.10

UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "ok_frac": "ratio",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_yield") or name.endswith("growth_max"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one solve, checked


def attempt(solve, inst):
    """Time one solve; returns (start, seconds, solution or None, failure cause or None)."""
    t0 = perf_counter()
    try:
        sol = solve(inst.domain, inst.f, inst.p, samples=inst.samples)
    except Exception as err:  # a raising solve is a measured failure, not a crash
        return t0, perf_counter() - t0, None, type(err).__name__
    dt = perf_counter() - t0
    return t0, dt, sol, oracle.check(inst, sol.f1, sol.f2)


class Passes:
    """Solve times and per-instance outcomes over all passes of a run."""

    def __init__(self, size: int):
        self.spans: list = []  # (start, seconds, verified) of every solve
        self.cause = [None] * size
        self.seen = [False] * size
        self.solves = 0
        self.total_s = 0.0
        self.causes: Counter = Counter()
        self.overclaims = 0
        self.unstable = 0

    def record(self, i: int, t0: float, dt: float, sol, cause) -> None:
        if self.seen[i] and self.cause[i] != cause:
            self.unstable += 1
        if not self.seen[i]:
            self.seen[i] = True
            self.cause[i] = cause
            if cause is not None:
                self.causes[cause] += 1
                if sol is not None and sol.report.passed:
                    self.overclaims += 1
        self.spans.append((t0, dt, cause is None))
        self.solves += 1
        self.total_s += dt

    @property
    def failed(self) -> int:
        """Corpus instances whose solve failed; the same at a fixed seed."""
        return sum(c is not None for c in self.cause)


def run_pass(corpus, solve, passes: Passes, deadline=None, on_solve=None) -> bool:
    """Solve every instance once; stop early at the deadline. True if completed."""
    for i, inst in enumerate(corpus):
        if deadline is not None and perf_counter() >= deadline:
            return False
        t0, dt, sol, cause = attempt(solve, inst)
        passes.record(i, t0, dt, sol, cause)
        if on_solve is not None:
            on_solve(inst, dt, sol)
    return True


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _unscaled(_t0: float, _t1: float) -> float:
    return 1.0


def end_to_end(passes: Passes, calls: list, factor=_unscaled) -> dict:
    """Set-up time, throughput, latency and success share of a run.

    Set-up time is the median of the cold calls; throughput counts verified
    solves over the time of all solves, failed ones included; latency
    percentiles are over verified solves; the success share is over the
    corpus instances.  Each call or solve from t0 to t1 is multiplied by
    `factor(t0, t1)`.
    """
    times = [(dt * factor(t0, t0 + dt), good) for t0, dt, good in passes.spans]
    ok = [dt for dt, good in times if good]
    if not ok:
        raise SystemExit("error: no solve of the corpus was verified")
    return {
        "setup_s": statistics.median(dt * factor(t0, t0 + dt) for t0, dt in calls),
        "solves_per_s": len(ok) / sum(dt for dt, _ in times),
        "solve_p50_ms": 1e3 * statistics.median(ok),
        "solve_p90_ms": 1e3 * _p90(ok),
        "ok_frac": sum(c is None for c in passes.cause) / len(passes.cause),
    }


# ---------------------------------------------------------------------------
# cold CLI calls


def _fmt_float(x: float) -> str:
    return repr(float(x))


def cli_args(inst, text: dict) -> list:
    """`gleason solve` arguments for an instance given as text."""
    spec = inst.spec
    args = ["solve", f"--k={spec.k}", f"--l={spec.l}"]
    dom = inst.domain
    if spec.branch == corpus.STRIP:
        args += [
            "--mode=omega2",
            f"--strip-lower={_fmt_float(dom.lower)}",
            f"--strip-upper={_fmt_float(dom.upper)}",
            f"--cut-m={dom.cut_m}",
            f"--cut-n={dom.cut_n}",
            f"--cut-r={_fmt_float(dom.cut_r)}",
        ]
    args += [f"--p1={text['p1']}", f"--p2={text['p2']}", f"--f={text['f']}"]
    if spec.exact:
        args.append("--exact")
    return args + [f"--samples={inst.samples}", "--seed=42"]


def expected_cli(inst):
    """Text form of an instance and the CLI's expected (exit code, stdout).

    The text must parse back to exactly the instance; the expected output is
    what the library gives in-process for the parsed instance.
    """
    from gleason import (
        GleasonError, emit_report, format_poly, format_scalar, parse_poly, parse_scalar,
    )
    from gleason.solver import MODE_STRIP, solve

    exact = inst.spec.exact
    text = {
        "f": format_poly(inst.f),
        "p1": format_scalar(inst.p[0]),
        "p2": format_scalar(inst.p[1]),
    }
    f = parse_poly(text["f"], exact)
    p = (parse_scalar(text["p1"], exact), parse_scalar(text["p2"], exact))
    if f != inst.f or p != inst.p:
        raise SystemExit("error: instance text does not round-trip exactly")
    branch = MODE_STRIP if inst.spec.branch == corpus.STRIP else None
    try:
        sol = solve(inst.domain, f, p, samples=inst.samples, seed=42, force_branch=branch)
    except (GleasonError, OSError, ValueError):  # the CLI prints "error: ..." and exits 2
        return text, 2, ""
    except Exception:  # anything else ends the CLI with a traceback and exit code 1
        return text, 1, ""
    out = f"f1 = {format_poly(sol.f1)}\nf2 = {format_poly(sol.f2)}\n"
    out += emit_report(sol, "machine") + "\n"
    return text, (0 if sol.report.passed else 1), out


class ColdCall:
    """The CLI on one instance, run in a fresh interpreter per call."""

    def __init__(self, inst, detail: bool):
        text, self.code, self.out = expected_cli(inst)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        if detail:
            self.cmd = [sys.executable, str(HERE / "coldcall.py")]
        else:
            self.cmd = [sys.executable, "-m", "gleason.cli"]
        self.cmd += cli_args(inst, text)
        self.matched = True

    def __call__(self):
        """Run one call to its end; returns (start, wall seconds, stderr)."""
        t0 = perf_counter()
        proc = subprocess.run(
            self.cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        dt = perf_counter() - t0
        self.matched &= proc.returncode == self.code and proc.stdout == self.out
        return t0, dt, proc.stderr


def detail_calls(inst, count: int):
    """Child timings of `count` instrumented cold calls, and whether outputs matched."""
    call = ColdCall(inst, detail=True)
    details = []
    for _ in range(count):
        _, _, stderr = call()
        lines = [ln for ln in stderr.splitlines() if ln.startswith("PERFBENCH ")]
        if not lines:
            raise SystemExit(f"error: cold call printed no timings: {stderr}")
        details.append(json.loads(lines[-1].split(" ", 1)[1]))
    return details, call.matched


# ---------------------------------------------------------------------------
# runs


def timed_run(corp, seconds: float):
    """Untraced run: solve passes until time is up, the cold calls of the
    set-up time spread evenly between the solves.

    Spreading the calls over the run lets them meet the same host states as
    the solves.  Returns the passes, the host-adjusted metrics and, in
    `extra`, the raw ones with the median host factors.
    """
    from gleason import solve

    cold_call = ColdCall(corp[0], detail=False)
    cold_call()
    host = HostSpeed()
    passes = Passes(len(corp))
    calls = []
    start = perf_counter()
    deadline = start + seconds
    due = [start + seconds * (j + 0.5) / SETUP_CALLS for j in range(SETUP_CALLS)]

    def between_solves(_inst, _dt, _sol):
        host.tick()
        if due and perf_counter() >= due[0]:
            due.pop(0)
            calls.append(cold_call()[:2])

    run_pass(corp, solve, passes, on_solve=between_solves)
    pass_count = 1
    while perf_counter() < deadline:
        pass_count += run_pass(corp, solve, passes, deadline, on_solve=between_solves)
    for _ in due:  # a short run can end before the last calls fall due
        calls.append(cold_call()[:2])
        host.sample()
    metrics = end_to_end(passes, calls, host.factor)
    raw = end_to_end(passes, calls)
    extra = {
        "cli_output_matched": cold_call.matched,
        "passes": pass_count,
        "host_factor_median": {
            "setup": statistics.median(host.factor(t0, t0 + dt) for t0, dt in calls),
            "solves": statistics.median(host.factor(t0, t0 + dt) for t0, dt, _ in passes.spans),
        },
        "raw": {name: round(value, 6) for name, value in raw.items()},
    }
    return passes, metrics, extra


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.terms.values():
        for part in (getattr(c, "re", None), getattr(c, "im", None)):
            if isinstance(part, Fraction):
                bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return bits


def _one_norm(poly) -> float:
    return sum(abs(complex(c)) for c in poly.terms.values())


def traced_run(corp, seconds: float):
    """Traced run: alternate untraced and traced passes until time is up.

    Counts come from the first traced pass, so they repeat exactly at a fixed
    seed; self times are averaged over all traced passes.
    """
    from layertrace import Tracer

    details, matched = detail_calls(corp[0], DETAIL_CALLS)
    tracer = Tracer()
    plain, traced = Passes(len(corp)), Passes(len(corp))
    growth = [0.0]
    bits = [0]

    def observe(inst, _dt, sol):
        if sol is not None:
            ratio = max(_one_norm(sol.f1), _one_norm(sol.f2)) / _one_norm(inst.f)
            if math.isfinite(ratio):  # a non-finite output already failed the oracle
                growth[0] = max(growth[0], ratio)
            bits[0] = max(bits[0], _coeff_bits(sol.f1), _coeff_bits(sol.f2))

    deadline = perf_counter() + seconds
    first = None
    while first is None or perf_counter() < deadline:
        run_pass(corp, tracer.solve, plain)
        tracer.install()
        try:
            run_pass(corp, tracer.solve, traced, on_solve=observe if first is None else None)
        finally:
            tracer.uninstall()
        if first is None:
            first = (Counter(tracer.calls), Counter(tracer.counts), Counter(tracer.failures))
    calls, counts, failures = first
    size = len(corp)
    metrics = tracer.layer_ms(traced.solves)
    metrics["solver.recombine_ms"] = 1e3 * tracer.recombine_s / traced.solves
    for name in ("laurent.eval", "laurent.mul", "laurent.add", "laurent.max_norm",
                 "division.split_component"):
        metrics[f"{name}_calls"] = calls[name] / size
    for name in ("laurent.mul_term_pairs", "verify.residual_terms",
                 "verify.eval_term_points", "domains.sample_points"):
        metrics[name] = counts[name] / size
    metrics["symmetry.component_yield"] = (
        counts["symmetry.components_nonempty"] / counts["symmetry.components_all"]
        if counts["symmetry.components_all"] else 0.0
    )
    split_failures = {cls: n for (name, cls), n in failures.items()
                      if name == "division.split_component"}
    metrics["division.split_component_failed"] = sum(split_failures.values()) / size
    metrics["solver.fail_frac"] = sum(c is not None for c in traced.cause) / size
    metrics["scalars.coeff_bits_max"] = bits[0]
    metrics["verify.growth_max"] = growth[0]
    for key in details[0]:
        metrics[key] = statistics.median(d[key] for d in details)
    metrics["trace.solve_ms"] = 1e3 * traced.total_s / traced.solves
    metrics["trace.self_sum_frac"] = sum(tracer.self_s.values()) / traced.total_s
    metrics["trace.overhead_frac"] = (
        (traced.total_s / traced.solves) / (plain.total_s / plain.solves) - 1.0
    )
    extra = {
        "cli_output_matched": matched,
        "self_sum_ok": abs(metrics["trace.self_sum_frac"] - 1.0) <= SELF_SUM_TOLERANCE,
        "split_component_failed_by_class": split_failures,
    }
    return plain, traced, metrics, extra


# ---------------------------------------------------------------------------
# report


def _show(name, value) -> str:
    return f"  {name:34s} {value:.6g} {_unit(name)}"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gleason" / "__init__.py").is_file():
        print(f"error: solver sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global corpus, oracle, HostSpeed
    import corpus
    import oracle
    from hostspeed import HostSpeed

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    corp = corpus.build(args.workload, args.seed)
    build_s = perf_counter() - t0
    exact = corp[0].spec.exact

    if args.trace:
        plain, traced, metrics, extra = traced_run(corp, args.seconds)
        first = traced
        solves = plain.solves + traced.solves
        unstable = plain.unstable + traced.unstable + sum(
            a != b for a, b in zip(plain.cause, traced.cause)
        )
        correct = extra["self_sum_ok"]
    else:
        first, metrics, extra = timed_run(corp, args.seconds)
        solves, unstable = first.solves, first.unstable
        correct = True
    # Exact mode has no tolerance to hide behind: every exact solve must verify.
    correct &= extra["cli_output_matched"] and unstable == 0
    # `attempted` and `failed` count corpus instances, each solved and checked
    # on every pass; outcomes may not change between passes, so both counts
    # depend on the seed alone, not on how many passes fit in the time.
    attempted, failed = len(corp), first.failed
    correct &= not (exact and failed)
    if not correct:
        print(
            f"error: benchmark checks failed (cli output matched:"
            f" {extra['cli_output_matched']}, outcome changes between passes:"
            f" {unstable}, exact failures: {failed if exact else 0},"
            f" self-time sum ok: {extra.get('self_sum_ok', True)})",
            file=sys.stderr,
        )

    mix = corpus.mix(corp)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  corpus: {len(corp)} instances built and checked in {build_s:.2f} s;"
          f" branches {mix['branches']}; orders {mix['orders']}")
    print("  closed loop, one caller, no threads;"
          f" {solves} solves of {attempted} instances, {failed} instances failed")
    fail_frac = failed / attempted
    print(f"  fail_frac {fail_frac:.4f} of the corpus; causes {dict(first.causes)};"
          f" report claimed a pass the oracle rejected: {first.overclaims}")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for name in sorted(metrics):
        print(_show(name, metrics[name]))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
