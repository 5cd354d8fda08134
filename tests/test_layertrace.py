"""The benchmark must find every solver name it imports or wraps.

perfbench/layertrace.py rebinds functions by name in the solver modules, and
the other perfbench scripts import names from the package; a renamed or
moved function would otherwise surface only as a KeyError or ImportError in
a benchmark run.
"""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import gleason.cli
import gleason.solver
from gleason import CuspDomain, QComplex, parse_poly

from conftest import subtract_value_at

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_trace_wraps_an_interior_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    original = gleason.solver.solve
    domain = CuspDomain.hartogs(2, 1)
    p = (QComplex(Fraction(1, 4)), QComplex(Fraction(1, 2)))
    f = subtract_value_at(parse_poly("z1^3*z2 + z1*z2^2 + 3z2", exact=True), p)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        sol = tracer.solve(domain, f, p, samples=0)
    finally:
        tracer.uninstall()
    assert sol.mode == "p1_nonzero"
    assert gleason.solver.solve is original
    assert tracer.calls[layertrace.ROOT] == 1
    assert tracer.calls["symmetry.correction"] == 1
    assert tracer.calls["symmetry.decompose"] >= 1


def _perfbench_trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_benchmark_imports_resolve():
    checked = 0
    for name, tree in _perfbench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("gleason", "gleason.solver"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{name}: {node.module}.{alias.name}"
                    checked += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("gleason"):
                        importlib.import_module(alias.name)
                        checked += 1
    assert checked > 0


def test_coldcall_spans_name_cli_attributes():
    tree = ast.parse((PERFBENCH / "coldcall.py").read_text(encoding="utf-8"))
    spans = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_SPANS"
    )
    assert spans
    for attr in spans:
        assert callable(getattr(gleason.cli, attr, None)), attr
