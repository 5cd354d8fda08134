"""Exact two-generator division on Reinhardt domains with a cusp.

Given a bounded Laurent polynomial f vanishing at a point p of the domain
|z1|^k < |z2|^l < 1 (or of a ratio strip near its cusp), produce bounded f1,
f2 with f = f1*(z1-p1) + f2*(z2-p2), certify boundedness through the
recession cone of the logarithmic image, and verify the identity both
symbolically and on cusp-biased samples.
"""

from .division import (
    FiberData,
    MonomialPair,
    from_ratio_cut,
    split_component,
    split_polynomial,
    split_ratio,
    to_ratio_cut,
)
from .domains import (
    BoundednessCertificate,
    CuspDomain,
    LogBoundary,
    SplitLine,
    log_image,
    poly_bounded,
    sample,
    sample_log,
    slope_candidates,
    split_line,
)
from .errors import (
    ConeError,
    EvaluationDomainError,
    ExponentOverflowError,
    GleasonError,
    InfeasibleSplitError,
    InputError,
    InternalContractError,
    NonvanishingError,
    NotDivisibleError,
    PolySyntaxError,
    UnboundedError,
)
from .exprio import (
    emit_report,
    format_poly,
    format_scalar,
    parse_poly,
    parse_report,
    parse_scalar,
)
from .laurent import LaurentPolynomial, divide_univariate, shift_divide_z1
from .scalars import QComplex
from .solver import GleasonProblem, GleasonSolution, solve
from .symmetry import SymmetricSystem, correction_polynomial, symmetric_decompose
from .verify import (
    VerificationReport,
    sampled_sup,
    symbolic_residual,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BoundednessCertificate",
    "ConeError",
    "CuspDomain",
    "EvaluationDomainError",
    "ExponentOverflowError",
    "FiberData",
    "GleasonError",
    "GleasonProblem",
    "GleasonSolution",
    "InfeasibleSplitError",
    "InputError",
    "InternalContractError",
    "LaurentPolynomial",
    "LogBoundary",
    "MonomialPair",
    "NonvanishingError",
    "NotDivisibleError",
    "PolySyntaxError",
    "QComplex",
    "SplitLine",
    "SymmetricSystem",
    "UnboundedError",
    "VerificationReport",
    "correction_polynomial",
    "divide_univariate",
    "emit_report",
    "format_poly",
    "format_scalar",
    "from_ratio_cut",
    "log_image",
    "parse_poly",
    "parse_report",
    "parse_scalar",
    "poly_bounded",
    "sample",
    "sample_log",
    "sampled_sup",
    "shift_divide_z1",
    "slope_candidates",
    "solve",
    "split_component",
    "split_line",
    "split_polynomial",
    "split_ratio",
    "symbolic_residual",
    "symmetric_decompose",
    "to_ratio_cut",
    "verify",
    "__version__",
]
