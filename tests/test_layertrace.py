"""The benchmark's layer trace must find every solver name it wraps.

perfbench/layertrace.py rebinds functions by name in the solver modules; a
renamed or moved function would otherwise surface only as a KeyError in a
traced benchmark run.
"""

import importlib
from fractions import Fraction
from pathlib import Path

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
