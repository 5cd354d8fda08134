"""Command-line front end.

Subcommands:
    solve       write f as f1*(z1-p1) + f2*(z2-p2) and verify the result
    decompose   print the N^2 rotation-symmetric components of f, zero ones too
    verify      check a user-supplied decomposition
    info        print domain parameters and the bounded-monomial cone
    split-line  pick a separating rational-slope line on a log boundary

Exit codes: 0 solved and verified, 1 solved but verification failed (the
report is still printed), 2 input error with a one-line diagnostic on stderr,
141 (128 + SIGPIPE) stdout closed early, as by `| head`, with nothing on stderr.
Complex literals use the form a+bi with no spaces, e.g. "0.5-0.25i".
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .domains import CuspDomain, LogBoundary, STRIP_OMEGA2, split_line
from .errors import GleasonError, InputError, NonvanishingError
from .exprio import _report_text, emit_report, format_float, format_poly, parse_poly, parse_scalar
from .laurent import LaurentPolynomial
from .solver import MODE_AXIS, MODE_INTERIOR, MODE_STRIP, solve
from .symmetry import symmetric_decompose
from .verify import verify

_FORCE_BRANCH = {
    "auto": None,
    "p1zero": MODE_AXIS,
    "generic": MODE_INTERIOR,
    "omega2": MODE_STRIP,
}


def _add_domain_args(sub):
    sub.add_argument("--k", type=int, required=True, help="ratio exponent of z1")
    sub.add_argument("--l", type=int, required=True, help="ratio exponent of z2")
    sub.add_argument(
        "--mode",
        choices=sorted(_FORCE_BRANCH),
        default="auto",
        help="branch selection; omega2 switches to a strip domain",
    )
    sub.add_argument("--strip-lower", type=float, help="strip lower ratio bound")
    sub.add_argument("--strip-upper", type=float, help="strip upper ratio bound")
    sub.add_argument("--cut-m", type=int, default=0, help="cut monomial z1-exponent")
    sub.add_argument("--cut-n", type=int, default=1, help="cut monomial z2-exponent")
    sub.add_argument("--cut-r", type=float, default=0.0, help="cut offset in log coordinates")


def _add_poly_arg(sub, name: str):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--{name}", metavar="EXPR", help=f"{name} as an inline expression")
    group.add_argument(
        f"--{name}-file", metavar="PATH", help=f"file holding {name}, one polynomial"
    )


def _add_point_args(sub):
    sub.add_argument("--p1", required=True, help="base point z1-coordinate")
    sub.add_argument("--p2", required=True, help="base point z2-coordinate")


def _add_verify_args(sub):
    sub.add_argument("--samples", type=int, default=2000, help="verification sample count")
    sub.add_argument("--seed", type=int, default=42, help="sampling seed")
    sub.add_argument(
        "--tol",
        type=float,
        default=None,
        help="accept the identity when the sampled residual is at most this"
        " (default: every residual coefficient, certified against its rounding error,"
        " and the sampled residual at most 1e-9 * (1 + |f|_1); exact coefficients must be zero)",
    )
    sub.add_argument(
        "--output", choices=("machine", "plain"), default="machine", help="report format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gleason",
        description="Divide out the coordinate functions at a base point of a cusped Reinhardt domain.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="solve and verify the two-generator division")
    _add_domain_args(s)
    _add_point_args(s)
    _add_poly_arg(s, "f")
    s.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    s.add_argument(
        "--subtract-value",
        action="store_true",
        help="solve for f - f(p) instead of rejecting a nonvanishing f",
    )
    _add_verify_args(s)

    d = subs.add_parser("decompose", help="print the rotation-symmetric components")
    _add_domain_args(d)
    _add_poly_arg(d, "f")
    d.add_argument("--exact", action="store_true", help="exact rational arithmetic")

    v = subs.add_parser("verify", help="verify a given decomposition")
    _add_domain_args(v)
    _add_point_args(v)
    _add_poly_arg(v, "f")
    _add_poly_arg(v, "f1")
    _add_poly_arg(v, "f2")
    v.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    _add_verify_args(v)

    i = subs.add_parser("info", help="print domain parameters and the bounded cone")
    _add_domain_args(i)

    sl = subs.add_parser("split-line", help="separating line for a log boundary CSV")
    sl.add_argument("--boundary", required=True, help="CSV file of x,y,strict rows")
    sl.add_argument("--cusp-slope", required=True, help="rational cusp direction, e.g. 2/3")
    sl.add_argument("--base", required=True, help="ray base point, e.g. --base=-1.5,-2.0")
    sl.add_argument("--max-slope-sum", type=int, default=64, help="slope search cutoff")
    return parser


def _domain_from(args) -> CuspDomain:
    if args.mode == "omega2":
        if args.strip_lower is None or args.strip_upper is None:
            raise InputError("omega2 mode needs --strip-lower and --strip-upper")
        return CuspDomain.strip(
            args.k, args.l, args.strip_lower, args.strip_upper,
            args.cut_m, args.cut_n, args.cut_r,
        )
    return CuspDomain.hartogs(args.k, args.l)


def _read_poly(args, name: str, exact: bool) -> LaurentPolynomial:
    inline = getattr(args, name)
    if inline is not None:
        return parse_poly(inline, exact)
    path = getattr(args, f"{name}_file")
    with open(path, encoding="utf-8") as handle:
        return parse_poly(handle.read(), exact)


def _passed(report, tol: float | None) -> bool:
    if tol is None:
        return report.passed
    return report.bounded_f1 and report.bounded_f2 and report.residual_max <= tol


def _cmd_solve(args) -> int:
    domain = _domain_from(args)
    p1 = parse_scalar(args.p1, args.exact)
    p2 = parse_scalar(args.p2, args.exact)
    f = _read_poly(args, "f", args.exact)
    if args.subtract_value:
        # f - f(p) changing only the constant term, pruned at f's own norm so
        # that no monomial of f is dropped however large f(p) is; a float
        # f(p) past the float range raises where the constant is built
        terms = dict(f.terms)
        for exp, c in (-LaurentPolynomial.constant(f.eval(p1, p2))).terms.items():
            terms[exp] = terms.get(exp, 0) + c
        f = LaurentPolynomial(terms, prune_scale=f.max_norm)
    try:
        solution = solve(
            domain,
            f,
            (p1, p2),
            samples=args.samples,
            seed=args.seed,
            force_branch=_FORCE_BRANCH[args.mode],
        )
    except NonvanishingError as err:
        if args.subtract_value:
            raise InputError(str(err)) from err
        raise InputError(f"{err} (pass --subtract-value to solve f - f(p))") from err
    # one print of the whole rendered text: an error while rendering prints nothing
    text = f"f1 = {format_poly(solution.f1)}\nf2 = {format_poly(solution.f2)}\n"
    print(text + emit_report(solution, args.output))
    return 0 if _passed(solution.report, args.tol) else 1


def _cmd_decompose(args) -> int:
    domain = _domain_from(args)
    f = _read_poly(args, "f", args.exact)
    order = domain.pair.order
    components = symmetric_decompose(f, order).components
    for i in range(order):
        for j in range(order):  # an absent component is zero
            print(f"f[{i},{j}] = {format_poly(components.get((i, j), LaurentPolynomial.zero()))}")
    return 0


def _cmd_verify(args) -> int:
    domain = _domain_from(args)
    p1 = parse_scalar(args.p1, args.exact)
    p2 = parse_scalar(args.p2, args.exact)
    f = _read_poly(args, "f", args.exact)
    f1 = _read_poly(args, "f1", args.exact)
    f2 = _read_poly(args, "f2", args.exact)
    report = verify(
        domain, f, f1, f2, (p1, p2), samples=args.samples, seed=args.seed
    )
    print(_report_text(report, domain, (p1, p2), "verify", args.output))
    return 0 if _passed(report, args.tol) else 1


def _cmd_info(args) -> int:
    domain = _domain_from(args)
    print(f"kind: {domain.kind}")
    print(f"k: {domain.k}")
    print(f"l: {domain.l}")
    if domain.kind == STRIP_OMEGA2:
        print(f"strip: {format_float(domain.lower)} < |z1^k/z2^l| < {format_float(domain.upper)}")
        print(f"cut: {domain.cut_n}y + {domain.cut_m}x <= {domain.cut_n}*{format_float(domain.cut_r)}")
        print(f"cone: {domain.l}a + {domain.k}b >= 0")
    else:
        print(f"cone: a >= 0 and {domain.l}a + {domain.k}b >= 0")
    return 0


def _cmd_split_line(args) -> int:
    with open(args.boundary, encoding="utf-8") as handle:
        boundary = LogBoundary.from_csv(handle.read())
    try:
        slope = Fraction(args.cusp_slope)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad --cusp-slope: {err}") from err
    try:
        bx, by = (float(part) for part in args.base.split(","))
    except ValueError as err:
        raise InputError(f"bad --base, expected x,y: {err}") from err
    line = split_line(boundary, slope, (bx, by), max_slope_sum=args.max_slope_sum)
    print(f"{line.m} {line.n} {format_float(line.r)} {format_float(line.delta)}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "info": _cmd_info,
    "split-line": _cmd_split_line,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # --tol bounds the sampled residual; with no samples it would accept anything
        if getattr(args, "tol", None) is not None and args.samples <= 0:
            raise InputError("--tol needs --samples > 0")
        code = _COMMANDS[args.command](args)
        if sys.stdout is not None:  # None when fd 1 was closed at start: nothing is printed
            sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        return code
    except BrokenPipeError:  # quiet the exit flush too: point fd 1 at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (GleasonError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
