"""The inputs the solver hands its helpers, held to each helper's precondition.

Several helpers on the solve path state a precondition in their docstring
instead of checking it at run time, because the solver never hands them
anything else: correction_polynomial, split_ratio, split_polynomial,
split_component, shift_divide_z1 and divide_univariate.  split_polynomial
and divide_univariate read no remainder, so in exact mode their spies also
hold the input to vanishing exactly at the base point.  This test holds the
solver to those preconditions.  It rebinds each helper in the namespace the
solver calls it from, as perfbench/layertrace.py does, with a spy that
asserts the precondition before the helper runs, and then solves the golden
instances and a few hundred drawn `gleason solve` calls through the spies.
Together they cover exact and float mode, the axis, interior and strip
branches, orders 1 to 6, base points deep in the cusp and strips cut by
z1*z2.
"""

import random
from collections import Counter

import pytest

import gleason.division
import gleason.solver
from gleason import GleasonError, LaurentPolynomial, cli
from gleason.laurent import PRUNE_REL
from gleason.scalars import is_exact

from test_cli_fuzz import _draw
from test_golden import _instances

FUZZ_CALLS = 300


def _correction_polynomial(f, p, order):
    assert p[0] and p[1], "the correction polynomial is formed off the axes"
    assert order >= 1


def _split_ratio(k, l, p):
    assert k >= 1 and l >= 1 and p[1]


def _split_polynomial(P, p):
    assert not P.is_exact() or P.eval(*p) == 0, "an exact P vanishes at p"


def _split_component(i, j, comp, pair, uv):
    k, l, m, n = pair.k, pair.l, pair.m, pair.n
    assert k >= 1 and l >= 1 and n >= 1 and m >= 0, "a pair of a valid domain"
    order = pair.order
    assert all(not a % order and not b % order for a, b in comp.exponents()), "a symmetric component"
    if not comp.is_exact():  # already pruned at a norm of at least its own
        floor = PRUNE_REL * comp.max_norm()
        assert all(c and not abs(c) <= floor for c in comp.terms.values()), "a term that prunes at |comp|"


def _shift_divide_z1(f, p1):
    assert p1 and all(a >= 0 for a, _ in f.exponents()), "P off the axis, with no z1 pole"


def _divide_univariate(f, root):
    assert root and all(not a and b >= 0 for a, b in f.exponents()), "a z2 polynomial, with no pole"
    assert not f.is_exact() or f.eval(root, root) == 0, "an exact f vanishes at root"


SPIES = [
    (gleason.solver, "correction_polynomial", _correction_polynomial),
    (gleason.solver, "split_ratio", _split_ratio),
    (gleason.solver, "split_polynomial", _split_polynomial),
    (gleason.solver, "split_component", _split_component),
    (gleason.solver, "divide_univariate", _divide_univariate),
    (gleason.division, "shift_divide_z1", _shift_divide_z1),
    (gleason.division, "divide_univariate", _divide_univariate),
]


@pytest.fixture
def spied(monkeypatch):
    """Install the spies; the Counter they return tallies the calls by (helper,
    exact?), and the components split by ("order", N) and ("cut", (m, n))."""
    seen = Counter()

    def spy(name, check, helper):
        def checked(*args):
            check(*args)
            seen[name, _exact(args)] += 1
            if name == "split_component":
                pair = args[3]
                seen["order", pair.order] += 1
                seen["cut", (pair.m, pair.n)] += 1
            return helper(*args)

        return checked

    for module, name, check in SPIES:
        monkeypatch.setattr(module, name, spy(name, check, getattr(module, name)))
    return seen


def _exact(args) -> bool:
    """Whether a helper's first polynomial or scalar argument is exact."""
    first = next(arg for arg in args if not isinstance(arg, int))
    if isinstance(first, tuple):  # a base point: p1 may be an int 0 on the axis
        first = first[1]
    return first.is_exact() if isinstance(first, LaurentPolynomial) else is_exact(first)


def test_the_solver_hands_its_helpers_only_their_preconditions(spied, capsys):
    for _label, domain, f, p in _instances():
        try:
            gleason.solver.solve(domain, f, p, samples=0)
        except GleasonError:
            pass
    for seed in range(FUZZ_CALLS):
        assert cli.main(_draw(random.Random(f"cli-fuzz:{seed}"))) in (0, 1, 2)
    capsys.readouterr()
    for _module, name, _check in SPIES:
        assert spied[name, True] and spied[name, False], name
    assert all(spied["order", order] for order in range(1, 7))
    assert spied["cut", (0, 1)] and spied["cut", (1, 1)]
