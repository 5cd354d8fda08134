"""The nine frozen records: construction, equality, hashing, immutability, pickling, repr."""

import pickle

import pytest

from gleason import (
    BoundednessCertificate,
    CuspDomain,
    GleasonProblem,
    GleasonSolution,
    LaurentPolynomial,
    LogBoundary,
    SplitLine,
    SymmetricSystem,
    VerificationReport,
)
from gleason.division import MonomialPair

F = LaurentPolynomial({(2, -1): 1.0, (0, 0): -0.5})
F_TEXT = "LaurentPolynomial({(0, 0): (-0.5+0j), (2, -1): (1+0j)})"
DOMAIN_TEXT = (
    "CuspDomain(k=2, l=1, kind='hartogs_full', lower=0.0, upper=0.0, cut_m=0, cut_n=1, cut_r=0.0)"
)
PROBLEM = GleasonProblem(CuspDomain(2, 1), F, (0.5, 0.5))
PROBLEM_TEXT = f"GleasonProblem(domain={DOMAIN_TEXT}, f={F_TEXT}, p=(0.5, 0.5))"
REPORT_FIELDS = {
    "residual_max": 0.0,
    "residual_argmax": (0.5, 0.5),
    "symbolic_residual_zero": True,
    "residual_coeff_max": 0.0,
    "bounded_f1": True,
    "bounded_f2": True,
    "cone_violations": (),
    "sup_f_upper": 1.5,
    "sup_f1_sampled": 0.0,
    "sup_f2_sampled": 0.0,
    "samples_used": 0,
    "seed": 1,
    "identity_tol": 1e-09,
    "bound_rhs": None,
}
REPORT_TEXT = (
    "VerificationReport(residual_max=0.0, residual_argmax=(0.5, 0.5), symbolic_residual_zero=True, "
    "residual_coeff_max=0.0, bounded_f1=True, bounded_f2=True, cone_violations=(), sup_f_upper=1.5, "
    "sup_f1_sampled=0.0, sup_f2_sampled=0.0, samples_used=0, seed=1, identity_tol=1e-09, bound_rhs=None)"
)

# (class, every field in order, the fields that have defaults, whether the
# record is hashable, its repr); the reprs are those of the dataclasses the
# records replaced
CASES = [
    (
        CuspDomain,
        {"k": 2, "l": 1, "kind": "hartogs_full", "lower": 0.0, "upper": 0.0,
         "cut_m": 0, "cut_n": 1, "cut_r": 0.0},
        ("kind", "lower", "upper", "cut_m", "cut_n", "cut_r"),
        True,
        DOMAIN_TEXT,
    ),
    (
        BoundednessCertificate,
        {"bounded": False, "violations": ((1, 0),)},
        (),
        True,
        "BoundednessCertificate(bounded=False, violations=((1, 0),))",
    ),
    (
        LogBoundary,
        {"points": ((0.0, 0.0), (1.0, 1.0)), "strict": (True, False)},
        (),
        True,
        "LogBoundary(points=((0.0, 0.0), (1.0, 1.0)), strict=(True, False))",
    ),
    (
        SplitLine,
        {"m": 1, "n": 2, "r": 0.5, "delta": 0.1},
        (),
        True,
        "SplitLine(m=1, n=2, r=0.5, delta=0.1)",
    ),
    (
        MonomialPair,
        {"k": 2, "l": 3, "m": 0, "n": 1},
        ("m", "n"),
        True,
        "MonomialPair(k=2, l=3, m=0, n=1)",
    ),
    (
        SymmetricSystem,
        {"order": 1, "components": {(0, 0): F}},
        (),
        False,
        f"SymmetricSystem(order=1, components={{(0, 0): {F_TEXT}}})",
    ),
    (
        GleasonProblem,
        {"domain": CuspDomain(2, 1), "f": F, "p": (0.5, 0.5)},
        (),
        False,
        PROBLEM_TEXT,
    ),
    (
        GleasonSolution,
        {"problem": PROBLEM, "f1": F, "f2": -F, "mode": "p1_nonzero",
         "report": VerificationReport(**REPORT_FIELDS)},
        (),
        False,
        f"GleasonSolution(problem={PROBLEM_TEXT}, f1={F_TEXT}, "
        "f2=LaurentPolynomial({(0, 0): (0.5-0j), (2, -1): (-1-0j)}), mode='p1_nonzero', "
        f"report={REPORT_TEXT})",
    ),
    (
        VerificationReport,
        REPORT_FIELDS,
        ("bound_rhs",),
        True,
        REPORT_TEXT,
    ),
]


@pytest.mark.parametrize(
    "cls, fields, optional, hashable, text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_semantics(cls, fields, optional, hashable, text):
    record = cls(*fields.values())
    assert repr(record) == text
    assert cls(**fields) == record
    required = {name: value for name, value in fields.items() if name not in optional}
    assert cls(*required.values()) == record == cls(**required)
    assert record != text and not record == text

    if hashable:
        assert hash(cls(**fields)) == hash(record)
    else:  # a dict or a polynomial among the fields, as with the dataclasses
        with pytest.raises(TypeError):
            hash(record)

    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text

    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again == record and repr(again) == text


def test_records_compare_their_fields():
    assert CuspDomain(2, 1) != CuspDomain(2, 1, cut_n=2)
    assert hash(MonomialPair(2, 3)) == hash(MonomialPair(k=2, l=3, m=0, n=1))
    assert MonomialPair(2, 3) != MonomialPair(3, 2)
    assert VerificationReport(**REPORT_FIELDS) != VerificationReport(**dict(REPORT_FIELDS, seed=2))
