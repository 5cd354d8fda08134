"""Exact two-generator division on Reinhardt domains with a cusp.

Given a bounded Laurent polynomial f vanishing at a point p of the domain
|z1|^k < |z2|^l < 1 (or of a ratio strip near its cusp), produce bounded f1,
f2 with f = f1*(z1-p1) + f2*(z2-p2), certify boundedness through the
recession cone of the logarithmic image, and verify the identity both
symbolically and on cusp-biased samples.
"""

from .domains import (
    BoundednessCertificate,
    CuspDomain,
    LogBoundary,
    SplitLine,
    poly_bounded,
    split_line,
)
from .errors import (
    EvaluationDomainError,
    ExponentOverflowError,
    GleasonError,
    InfeasibleSplitError,
    InputError,
    InternalContractError,
    NonvanishingError,
    PolySyntaxError,
    UnboundedError,
)
from .exprio import (
    emit_report,
    format_poly,
    format_scalar,
    parse_poly,
    parse_scalar,
)
from .laurent import LaurentPolynomial
from .scalars import QComplex
from .solver import GleasonProblem, GleasonSolution, solve
from .symmetry import SymmetricSystem, symmetric_decompose
from .verify import VerificationReport, verify

__version__ = "0.1.0"

__all__ = [
    "BoundednessCertificate",
    "CuspDomain",
    "EvaluationDomainError",
    "ExponentOverflowError",
    "GleasonError",
    "GleasonProblem",
    "GleasonSolution",
    "InfeasibleSplitError",
    "InputError",
    "InternalContractError",
    "LaurentPolynomial",
    "LogBoundary",
    "NonvanishingError",
    "PolySyntaxError",
    "QComplex",
    "SplitLine",
    "SymmetricSystem",
    "UnboundedError",
    "VerificationReport",
    "emit_report",
    "format_poly",
    "format_scalar",
    "parse_poly",
    "parse_scalar",
    "poly_bounded",
    "solve",
    "split_line",
    "symmetric_decompose",
    "verify",
    "__version__",
]
