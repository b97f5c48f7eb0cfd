"""Tiny expression grammars for CLI flags.

Integer mode accepts decimal literals with ^ + - * and parentheses, all in
exact arbitrary-precision arithmetic ("2^32", "10^8+1", "(69068)^6"); no literal
or result may have more digits than Python's int-to-str limit (for a result,
`errors._too_many_digits` decides it), so each prints.  Values are plain ints.

Endpoint mode additionally accepts '/', decimal fractions and the constants
pi and e, for interval bounds like "1/pi^2" or "1-1/e".  A value stays an int
until '/', a negative exponent, a decimal literal or pi/e makes it a Fraction.
Decimal literals are read as IEEE-754 doubles, then handled exactly; this
reproduces published interval counts whose endpoints were binary floats (0.2
reads as the double just above 1/5).  Expressions involving pi or e are
rounded to SYMBOLIC_DIGITS (12) decimal digits before exact comparison.
Every binary + - * / is one checked step: its validity, then its size, then
its work are decided before it runs.  A step on a Fraction is charged the gcd
work it will do, an integer product or power the bits of its operands less
their trailing zeros, and every integer step at least a sixteenth of its
result's bits; an expression past either allowance raises BudgetExceeded.
An expression nests at most _MAX_DEPTH levels deep, counting itself and each
parenthesis or exponent in it.  A refusal quotes the expression through
`errors.shown`.

The scanner reads the text left to right, by hand, after spelling `−` as
`-`, `×` and `⋅` as `*`, and `**` as `^`.  A run of decimal digits
(`str.isdecimal`, so any script's, as int() reads them) is an integer, or
with a `.` and any digits after it a decimal literal, as is a `.` followed by
digits; `pi` and `e` are names; `( ) + * / ^ -` are operators; whitespace
(`str.isspace`) separates tokens; any other character is refused.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded, ExpressionError, _max_str_digits, _too_many_digits, shown

# The most bits of any result.  The integer products and powers of one
# expression may form at most as many in all, counted without trailing zeros
# (but at least 1/_LINEAR_SHARE of all their bits), since powers of two
# multiply cheaply: (2^1000)^3000 formed in 0.02 s,
# (3^1000)^1200 in 0.11-0.18 s, and the product of that and (5^1000)^800 in
# 0.29 s (Python 3.11, x86-64).
_MAX_RESULT_BITS = 4_000_000
# Each integer step is charged at least 1/_LINEAR_SHARE of its result's bits:
# forming a value takes time linear in its size however few odd bits it has.
# 5,000 sums of (((2^100)^100)^100)^3 once ran 56 s, and 20,000 steps of +1 on
# (3^1000)^1200 1.6 s.
_LINEAR_SHARE = 16
# Work allowed for the rational + - * / of one expression, counted in bit
# products: a gcd of x and y takes about bits(x) * bits(y) steps.  One bit
# product took about 2e-12 s (Python 3.11, x86-64), so 2^36 is well under a
# second, while one sum of two 400,000-bit denominators is already over it.
_MAX_RATIONAL_WORK = 2**36

# Nesting levels allowed: each parenthesis or exponent is a few frames of
# recursion, so a deep one would otherwise end in a RecursionError.
_MAX_DEPTH = 100

SYMBOLIC_DIGITS = 12
# pi and e as Fractions, made by the first expression that names one
_CONSTANTS: dict[str, Fraction] = {}


def _run_end(text: str, i: int, test) -> int:
    """The end of the run of characters of `text` that starts at i and that
    `test` (`str.isdecimal` or `str.isspace`) accepts."""
    while i < len(text) and test(text[i]):
        i += 1
    return i


def _tokenize(text: str) -> list[tuple[str, str]]:
    text = text.replace("−", "-").replace("×", "*").replace("⋅", "*")
    text = text.replace("**", "^")
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isdecimal() or (ch == "." and text[i + 1:i + 2].isdecimal()):
            end = _run_end(text, i, str.isdecimal)
            if end < len(text) and text[end] == ".":
                end = _run_end(text, end + 1, str.isdecimal)
                tokens.append(("dec", text[i:end]))
            else:
                tokens.append(("int", text[i:end]))
            i = end
        elif ch == "e":
            tokens.append(("name", "e"))
            i += 1
        elif text.startswith("pi", i):
            tokens.append(("name", "pi"))
            i += 2
        elif ch in "()+*/^-":
            tokens.append(("op", ch))
            i += 1
        elif ch.isspace():
            i = _run_end(text, i, str.isspace)
        else:
            raise ExpressionError(f"unexpected character {shown(ch)} in {shown(text)}")
    if not tokens:
        raise ExpressionError("empty expression")
    return tokens


def _part_bits(v: int | Fraction) -> tuple[int, int]:
    """Bit lengths of the numerator and the denominator (1 for an int)."""
    if type(v) is int:
        return v.bit_length(), 1
    return v.numerator.bit_length(), v.denominator.bit_length()


def _odd_bits(v: int | Fraction) -> int:
    """Bit length of an int, or of both parts of a Fraction, without trailing
    zeros: what a product or power with v is charged, since a power of two
    multiplies cheaply."""
    if type(v) is not int:
        return _odd_bits(v.numerator) + _odd_bits(v.denominator)
    return (v >> ((v & -v).bit_length() - 1)).bit_length() if v else 0


_OPS = {"+": lambda v, w: v + w, "-": lambda v, w: v - w, "*": lambda v, w: v * w}


class _Parser:
    """Recursive descent; values are (int or Fraction, symbolic_taint)."""

    def __init__(self, text: str, allow_rational: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_rational = allow_rational
        # the Fraction type, loaded by endpoint mode alone: integer mode
        # refuses every rational step before it runs
        self.fraction = None
        if allow_rational:
            import fractions
            self.fraction = fractions.Fraction
        self.work = 0
        self.bits = 0
        self.depth = 0

    def peek_op(self) -> str | None:
        if self.pos < len(self.tokens) and self.tokens[self.pos][0] == "op":
            return self.tokens[self.pos][1]
        return None

    def take(self) -> tuple[str, str]:
        if self.pos >= len(self.tokens):
            raise ExpressionError(f"unexpected end of expression in {shown(self.text)}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def charge(self, work: int = 0, bits: int = 0, size: int = 0) -> None:
        """Count a step's gcd work, in bit products, and the odd bits of the
        integers it forms, but at least 1/_LINEAR_SHARE of the `size` bits of
        its result, against their allowances, before it runs."""
        self.work += work
        self.bits += max(bits, size // _LINEAR_SHARE)
        if self.work > _MAX_RATIONAL_WORK or self.bits > _MAX_RESULT_BITS:
            kind = "endpoint" if self.allow_rational else "integer"
            raise BudgetExceeded(
                f"{kind} arithmetic in {shown(self.text)} exceeds its work budget")

    def apply(self, op: str, v, w):
        """v op w for a binary + - * /, refused before it runs when it is
        invalid, then when its result may be too large, then when its work
        passes the budget."""
        if op == "/" and not self.allow_rational:
            raise ExpressionError("'/' is not valid in an integer expression")
        ints = type(v) is int and type(w) is int
        na, da = _part_bits(v)
        nb, db = _part_bits(w)
        if ints and op in "+-":  # one bit more than the larger, in linear time
            self.charge(size=max(na, nb) + 1)
            return _OPS[op](v, w)
        # a product or quotient has at most the bits of both operands, a sum
        # of rationals one more
        if max(na, da) + max(nb, db) + (op in "+-") > _MAX_RESULT_BITS:
            raise ExpressionError("expression result too large")
        if op == "/" and w == 0:
            raise ExpressionError("division by zero")
        # An integer product is charged the bits it multiplies, a rational
        # step its gcds: with v = na/da and w = nb/db, Fraction takes
        # gcd(na, db) and gcd(nb, da) for *, gcd(na, nb) and gcd(da, db) for
        # /, and for + and - gcd(da, db) and at most one more, of the new
        # numerator and a divisor of both denominators.
        if ints and op == "*":
            self.charge(bits=_odd_bits(v) + _odd_bits(w), size=na + nb)
        elif op == "*":
            self.charge(work=na * db + nb * da)
        elif op == "/":
            self.charge(work=na * nb + da * db)
        else:
            self.charge(work=(na + da) * (nb + db))
        if op == "/":
            # takes the two gcds charged; Fraction(v, w) would take one of the
            # cross products, charged or not
            return self.fraction(v) / w
        return _OPS[op](v, w)

    def parse(self) -> tuple[int | Fraction, bool]:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionError(f"trailing input in {shown(self.text)}")
        return value

    def expr(self):
        v, t = self.term()
        while self.peek_op() in ("+", "-"):
            op = self.take()[1]
            w, wt = self.term()
            v, t = self.apply(op, v, w), t or wt
        return v, t

    def term(self):
        v, t = self.unary()
        while self.peek_op() in ("*", "/"):
            op = self.take()[1]
            w, wt = self.unary()
            v, t = self.apply(op, v, w), t or wt
        return v, t

    def unary(self):
        # every nesting, by a parenthesis or an exponent, passes through here
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExpressionError(f"expression nests more than {_MAX_DEPTH} levels deep")
        sign = 1
        while self.peek_op() in ("+", "-"):
            if self.take()[1] == "-":
                sign = -sign
        v, t = self.power()
        self.depth -= 1
        return sign * v, t

    def power(self):
        v, t = self.atom()
        if self.peek_op() == "^":
            self.take()
            e, et = self.unary()
            if et or e.denominator != 1:
                raise ExpressionError("exponent must be an integer")
            e = e.numerator
            if e < 0 and not self.allow_rational:
                raise ExpressionError("negative exponent in an integer expression")
            if abs(e) > 10_000:
                raise ExpressionError(f"exponent {shown(e)} too large")
            size = max(_part_bits(v)) * abs(e)
            if size > _MAX_RESULT_BITS:
                raise ExpressionError("expression result too large")
            if v == 0 and e < 0:
                raise ExpressionError("division by zero")
            self.charge(bits=_odd_bits(v) * abs(e), size=size)
            v = self.fraction(v) ** e if e < 0 else v**e
        return v, t

    def atom(self):
        kind, text = self.take()
        if kind == "int":
            if (limit := _max_str_digits()) and len(text) > limit:
                raise ExpressionError(f"integer literal has more than {limit} digits")
            return int(text), False
        if kind == "dec":
            if not self.allow_rational:
                raise ExpressionError("decimal literal in an integer expression")
            return self.fraction(float(text)), False
        if kind == "name":
            if not self.allow_rational:
                raise ExpressionError(f"{shown(text)} is not valid in an integer expression")
            if not _CONSTANTS:
                _CONSTANTS.update(pi=self.fraction(math.pi), e=self.fraction(math.e))
            return _CONSTANTS[text], True
        if kind == "op" and text == "(":
            v = self.expr()
            nk, nt = self.take()
            if (nk, nt) != ("op", ")"):
                raise ExpressionError(f"expected ')' in {shown(self.text)}")
            return v
        raise ExpressionError(f"unexpected token {shown(text)} in {shown(self.text)}")


def parse_int_expr(text: str) -> int:
    """Exact integer value of a flag expression like "2^32" or "10^8+1"."""
    # a plain literal within the digit limit: int() takes the \d digits, to the same value
    if text.isdecimal() and len(text) <= (_max_str_digits() or len(text)):
        return int(text)
    n, _ = _Parser(text, allow_rational=False).parse()
    if limit := _too_many_digits(n):
        raise ExpressionError(f"expression result has more than {limit} digits")
    return n


def parse_endpoint(text: str) -> Fraction:
    """Exact rational for an interval endpoint expression."""
    parser = _Parser(text, allow_rational=True)
    value, tainted = parser.parse()
    if tainted:
        scale = 10**SYMBOLIC_DIGITS
        return parser.fraction(round(value * scale), scale)
    return parser.fraction(value) if type(value) is int else value
