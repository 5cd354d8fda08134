"""Text grammar for polynomials, complex literals, and machine reports.

Polynomial grammar (whitespace ignored everywhere):

    poly   := sign? term (sign term)*
    term   := (coeff | factor) ('*'? factor)*
    factor := ('z1' | 'z2') ('^' sign? digits)?
    coeff  := number | '(' sign? number (sign number 'i')? ')'
    number := decimal ('/' decimal)?
    decimal := digits ('.' digits)?
    sign   := '+' | '-'

Decimal literals map to exact rationals by construction; scientific notation
is not part of the grammar, so floating coefficients are always printed as
plain (possibly long) decimals that parse back bit-identically.  The '/'
form exists because exact arithmetic produces rationals with non-terminating
decimal expansions; parse and format stay inverse to each other either way.
Exponents are capped at |e| <= 10^6.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import ExponentOverflowError, InputError, PolySyntaxError
from .laurent import LaurentPolynomial
from .scalars import QComplex

EXPONENT_CAP = 10**6

# ---------------------------------------------------------------------------
# tokenizer


_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()/":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch == "z":
            if i + 1 < n and text[i + 1] in "12":
                tokens.append(_Token("var", text[i : i + 2], i))
                i += 2
                continue
            raise PolySyntaxError("expected z1 or z2", i)
        if ch == "i":
            tokens.append(_Token("imag", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise PolySyntaxError("expected digits after decimal point", i)
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(_Token("num", text[start:i], start))
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser


def _float_complex(re: Fraction, im: Fraction, literal: str) -> complex:
    try:
        value = complex(float(re), float(im))
    except OverflowError as exc:
        raise InputError(f"numeric literal {literal!r} is out of the float range") from exc
    if (re and not value.real) or (im and not value.imag):
        raise InputError(f"numeric literal {literal!r} underflows to zero as a float")
    return value


class _Parser:
    def __init__(self, text: str, exact: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.exact = exact

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise PolySyntaxError(f"expected {what}", tok.pos)
        return self.advance()

    # number := decimal ('/' decimal)?
    def number(self) -> Fraction:
        tok = self.expect("num", "a number")
        value = Fraction(tok.text)
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("num", "a denominator")
            den = Fraction(den_tok.text)
            if den == 0:
                raise PolySyntaxError("zero denominator", den_tok.pos)
            value /= den
        return value

    # sign := '+' | '-', read where the grammar allows one: -1 after '-', else 1
    def sign(self) -> int:
        if self.peek().kind in "+-":
            return -1 if self.advance().kind == "-" else 1
        return 1

    # coeff := number | '(' sign? number (sign number 'i')? ')'
    def coefficient(self):
        tok = self.peek()
        im = Fraction(0)
        if tok.kind == "num":
            re = self.number()
        elif tok.kind == "(":
            self.advance()
            re = self.sign() * self.number()
            if self.peek().kind in "+-":
                im = self.sign() * self.number()
                self.expect("imag", "'i'")
            self.expect(")", "')'")
        else:  # a term starts with a coefficient or a factor
            raise PolySyntaxError("expected a term", tok.pos)
        if self.exact:
            return QComplex(re, im)
        return _float_complex(re, im, self.text[tok.pos : self.peek().pos].rstrip())

    def exponent(self) -> int:
        sign = self.sign()
        tok = self.expect("num", "an integer exponent")
        if "." in tok.text:
            raise PolySyntaxError("exponent must be an integer", tok.pos)
        value = int(tok.text)
        if value > EXPONENT_CAP:
            raise ExponentOverflowError(
                f"exponent magnitude {value} exceeds {EXPONENT_CAP}", tok.pos
            )
        return sign * value

    # factor := var ('^' exponent)?
    def factor(self) -> tuple[int, int]:
        tok = self.expect("var", "z1 or z2")
        e = 1
        if self.peek().kind == "^":
            self.advance()
            e = self.exponent()
        return (e, 0) if tok.text == "z1" else (0, e)

    def term(self):
        if self.peek().kind == "var":
            coeff = QComplex(1) if self.exact else complex(1.0)
        else:
            coeff = self.coefficient()
        a = b = 0
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                da, db = self.factor()
            elif tok.kind == "var":
                da, db = self.factor()
            else:
                break
            a += da
            b += db
        return (a, b), coeff

    def poly(self) -> LaurentPolynomial:
        acc: dict = {}
        sign = self.sign()
        while True:
            exp, coeff = self.term()
            acc[exp] = acc.get(exp, 0) + sign * coeff
            tok = self.peek()
            if tok.kind == "end":
                break
            if tok.kind not in "+-":
                raise PolySyntaxError("expected '+', '-' or end of input", tok.pos)
            sign = self.sign()
        try:
            poly = LaurentPolynomial(acc)
            if math.isfinite(poly.max_norm()):  # past the float range: inf, or abs() raises
                return poly
        except (OverflowError, InputError):  # InputError: an infinite prune scale
            pass
        raise InputError("a coefficient's modulus is out of the float range")


def parse_poly(text: str, exact: bool = False) -> LaurentPolynomial:
    """Parse polynomial text; exact=True yields QComplex coefficients."""
    if not text.strip():
        raise PolySyntaxError("empty input", 0)
    return _Parser(text, exact).poly()


# ---------------------------------------------------------------------------
# number and scalar formatting


def _ratio_text(num: int, den: int) -> str:
    """num/den for num >= 0, den > 0: an exact decimal when the reduced
    denominator is 2- and 5-smooth, else the reduced num/den."""
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    shift = max(twos, fives)
    digits = str(num * (10**shift // den)).rjust(shift + 1, "0")
    if shift == 0:
        return digits
    whole, frac = digits[:-shift], digits[-shift:].rstrip("0")
    return whole + ("." + frac if frac else "")


def format_float(x: float) -> str:
    """Decimal rendering that parses back to the identical float."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value cannot be rendered in the grammar")
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    s = repr(x)
    if "e" in s:  # a float is a dyadic rational: its exact decimal expansion is finite
        s = ("-" if x < 0 else "") + _ratio_text(*abs(x).as_integer_ratio())
    return s


def _signed_parts(c) -> tuple:
    """(re < 0, |re| text, im < 0, |im| text) of a coefficient; the |im| text
    is None for a real value.  A QComplex is read as ints once."""
    if isinstance(c, QComplex):
        x, y, d = c.as_ints()
        return x < 0, _ratio_text(abs(x), d), y < 0, _ratio_text(abs(y), d) if y else None
    z = complex(c)
    re, im = z.real, z.imag
    return re < 0, format_float(abs(re)), im < 0, format_float(abs(im)) if im else None


def _complex_text(re_neg, re_text, im_neg, im_text) -> str:
    text = ("-" if re_neg else "") + re_text
    if im_text is None:
        return text
    return f"{text}{'-' if im_neg else '+'}{im_text}i"


def format_scalar(c) -> str:
    """Compact complex literal: re, re+imi, or re-imi."""
    return _complex_text(*_signed_parts(c))


def parse_scalar(text: str, exact: bool = False):
    """Parse a complex literal in the format emitted by format_scalar."""
    s = text.strip()
    if not s:
        raise InputError("empty complex literal")

    def number(part: str) -> Fraction:
        try:
            if "/" in part:
                num, den = part.split("/", 1)
                return Fraction(num) / Fraction(den)
            return Fraction(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad numeric literal {part!r}") from exc

    re_text, im_text = s, None
    if s.endswith("i"):
        body = s[:-1]
        split = -1
        for idx in range(1, len(body)):
            # a sign after '+', '-', '/' or an exponent marker is not the split
            if body[idx] in "+-" and body[idx - 1] not in "+-/eE":
                split = idx
        if split < 0:
            raise InputError(f"bad complex literal {text!r}: missing real part")
        re_text, im_text = body[:split], body[split:]
    re = number(re_text)
    im = number(im_text) if im_text is not None else Fraction(0)
    if exact:
        return QComplex(re, im)
    return _float_complex(re, im, s)


# ---------------------------------------------------------------------------
# polynomial formatting


def _monomial_text(a: int, b: int) -> str:
    parts = []
    if a:
        parts.append("z1" + (f"^{a}" if a != 1 else ""))
    if b:
        parts.append("z2" + (f"^{b}" if b != 1 else ""))
    return "*".join(parts)


def format_poly(f: LaurentPolynomial) -> str:
    """Canonical text form; terms in descending lexicographic exponent order."""
    if f.is_zero:
        return "0"
    pieces = []
    for (a, b) in sorted(f.exponents(), reverse=True):
        parts = _signed_parts(f.coefficient(a, b))
        mono = _monomial_text(a, b)
        re_neg, body, _, im_text = parts
        if im_text is None:
            sign = "-" if re_neg else "+"
            if mono:
                body = mono if body == "1" else f"{body}{mono}"
        else:
            sign = "+"
            body = f"({_complex_text(*parts)}){mono}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# machine report


def _format_bool(v: bool) -> str:
    return "true" if v else "false"


def _format_violations(violations) -> str:
    return ";".join(f"{a}:{b}" for a, b in violations)


def emit_report(solution, fmt: str = "machine") -> str:
    """Render a solved problem's verification report.

    Machine format is one key=value per line; plain format is a
    human-readable summary of the same fields.
    """
    prob = solution.problem
    return _report_text(solution.report, prob.domain, prob.p, solution.mode, fmt)


def _report_text(rep, domain, p, mode: str, fmt: str) -> str:
    """The report of emit_report from its parts: `gleason verify` has no solution."""
    p1, p2 = p
    if fmt == "machine":
        lines = [
            f"residual_max={format_float(rep.residual_max)}",
            "residual_argmax="
            + format_scalar(rep.residual_argmax[0])
            + ","
            + format_scalar(rep.residual_argmax[1]),
            f"bounded_f1={_format_bool(rep.bounded_f1)}",
            f"bounded_f2={_format_bool(rep.bounded_f2)}",
            f"cone_violations={_format_violations(rep.cone_violations)}",
            f"sup_f_upper={format_float(rep.sup_f_upper)}",
            f"sup_f1_sampled={format_float(rep.sup_f1_sampled)}",
            f"sup_f2_sampled={format_float(rep.sup_f2_sampled)}",
        ]
        if rep.bound_rhs is not None:
            lines.append(f"bound_rhs={format_float(rep.bound_rhs)}")
        lines += [
            f"mode={mode}",
            f"k={domain.k}",
            f"l={domain.l}",
            f"p1={format_scalar(p1)}",
            f"p2={format_scalar(p2)}",
        ]
        return "\n".join(lines)
    if fmt == "plain":
        q1, q2 = rep.residual_argmax
        lines = [
            f"mode            : {mode}",
            f"domain          : {domain.kind} k={domain.k} l={domain.l}",
            f"base point      : ({format_scalar(p1)}, {format_scalar(p2)})",
            f"residual max    : {format_float(rep.residual_max)}"
            f" at ({format_scalar(q1)}, {format_scalar(q2)})",
            f"symbolic zero   : {_format_bool(rep.symbolic_residual_zero)}",
            f"bounded f1, f2  : {_format_bool(rep.bounded_f1)}, {_format_bool(rep.bounded_f2)}",
            f"cone violations : {_format_violations(rep.cone_violations) or 'none'}",
            f"sup bounds      : f<={format_float(rep.sup_f_upper)}"
            f" f1~{format_float(rep.sup_f1_sampled)}"
            f" f2~{format_float(rep.sup_f2_sampled)}",
        ]
        if rep.bound_rhs is not None:
            lines.append(f"axis sup bound  : {format_float(rep.bound_rhs)}")
        lines.append(f"samples, seed   : {rep.samples_used}, {rep.seed}")
        return "\n".join(lines)
    raise InputError(f"unknown report format {fmt!r}")
