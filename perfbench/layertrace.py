"""Outside-in layer trace of the solver.

The library is not edited: the tracer rebinds public functions in the
namespaces that call them and wraps ``LaurentPolynomial`` methods on the
class.  The solver imports names with ``from .x import y``, so a function is
rebound in every module that imported it (``gleason.solver``,
``gleason.division``, the verify module).  The verify module is taken from
``sys.modules`` because the package attribute ``gleason.verify`` is the
re-exported function, which shadows the submodule.

Each wrapper records a span on a stack; a span's self time is its duration
minus the durations of the spans it encloses, so the self times of one solve
add up to the solve's own span.  Counts are recorded at the same boundaries.
Install the tracer only for traced passes: uninstalled, it costs nothing.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import gleason.division
import gleason.laurent
import gleason.solver

ROOT = "solve"
_ARITH = ("laurent.mul", "laurent.add")


def _len(x) -> int:
    return len(x) if isinstance(x, gleason.laurent.LaurentPolynomial) else 1


def _count_mul(args, _result):
    return {"laurent.mul_term_pairs": _len(args[0]) * _len(args[1])}


def _count_residual(_args, result):
    return {"verify.residual_terms": len(result)}


def _count_eval_points(args, _result):
    return {"verify.eval_term_points": len(args[0]) * len(args[1])}


def _count_sample(args, _result):
    return {"domains.sample_points": args[1]}


def _count_components(_args, result):
    nonempty = sum(1 for comp in result.components.values() if not comp.is_zero)
    return {"symmetry.components_nonempty": nonempty, "symmetry.components_all": result.order**2}


class Tracer:
    """Span stack plus per-layer self time, call and work counters."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self.recombine_s = 0.0
        self._stack: list = []
        self._saved: list = []
        self._targets = self._plan()

    def _plan(self) -> list:
        verify_mod = sys.modules["gleason.verify"]
        solver = gleason.solver
        division = gleason.division
        poly = gleason.laurent.LaurentPolynomial
        plan = [(solver, "solve", ROOT, None)]
        plan += [
            (solver, "correction_polynomial", "symmetry.correction", None),
            (solver, "symmetric_decompose", "symmetry.decompose", _count_components),
            (solver, "split_polynomial", "division.split_polynomial", None),
            (solver, "split_ratio", "division.split_ratio", None),
            (solver, "split_component", "division.split_component", None),
            (solver, "divide_univariate", "laurent.divide", None),
            (solver, "poly_bounded", "domains.poly_bounded", None),
            (solver, "verify", "verify.verify", None),
            (solver.GleasonProblem, "__post_init__", "solver.validate", None),
            (division, "divide_univariate", "laurent.divide", None),
            (division, "shift_divide_z1", "laurent.divide", None),
            (verify_mod, "symbolic_residual", "verify.symbolic_residual", _count_residual),
            (verify_mod, "eval_on_arrays", "verify.eval_on_arrays", _count_eval_points),
            (verify_mod, "sample", "domains.sample", _count_sample),
            (verify_mod, "poly_bounded", "domains.poly_bounded", None),
            (poly, "eval", "laurent.eval", None),
            (poly, "max_norm", "laurent.max_norm", None),
        ]
        for attr in ("__mul__", "__rmul__"):
            plan.append((poly, attr, "laurent.mul", _count_mul))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
            plan.append((poly, attr, "laurent.add", None))
        return plan

    def _wrap(self, name: str, fn, count):
        stack = self._stack
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer.failures[(name, type(err).__name__)] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.self_s[name] += dt - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
                if parent == ROOT and name in _ARITH:
                    tracer.recombine_s += dt
            if count is not None:
                tracer.counts.update(count(args, result))
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers: dict = {}
        for owner, attr, name, count in self._targets:
            original = owner.__dict__[attr]
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self._wrap(name, original, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def solve(self):
        """The solver entry point as currently bound (wrapped while installed)."""
        return gleason.solver.solve

    def layer_ms(self, solves: int) -> dict:
        """Per-solve self time of every layer, keyed by metric name."""
        names = sorted(set(self.self_s) | {name for _, _, name, _ in self._targets})
        out = {}
        for name in names:
            metric = "solver.self_ms" if name == ROOT else f"{name}_ms"
            out[metric] = 1e3 * self.self_s[name] / solves
        return out
