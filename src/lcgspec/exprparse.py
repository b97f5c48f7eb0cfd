"""Tiny expression grammars for CLI flags.

Integer mode accepts decimal literals with ^ + - * and parentheses, all in
exact arbitrary-precision arithmetic ("2^32", "10^8+1", "(69068)^6"); no literal
or result may have more digits than Python's int-to-str limit, so each prints.
Its values are plain ints throughout.

Endpoint mode additionally accepts '/', decimal fractions and the constants
pi and e, for interval bounds like "1/pi^2" or "1-1/e".  A value stays an int
until '/', a negative exponent, a decimal literal or pi/e makes it a Fraction.
Decimal literals are read as IEEE-754 doubles, then handled exactly; this
reproduces published interval counts whose endpoints were binary floats (0.2
reads as the double just above 1/5).  Expressions involving pi or e are
rounded to SYMBOLIC_DIGITS (12) decimal digits before exact comparison.
Each + - * / on a Fraction is charged the gcd work it will do before it runs,
and an expression past its work budget raises BudgetExceeded.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import BudgetExceeded, ExpressionError

_TOKEN = re.compile(r"(\d+\.\d*|\.\d+)|(\d+)|(pi|e)|([()+*/^-])|(\S)")
_MAX_RESULT_BITS = 4_000_000
# Work allowed for the rational + - * / of one expression, counted in bit
# products: a gcd of x and y takes about bits(x) * bits(y) steps.  One bit
# product took about 2e-12 s (Python 3.11, x86-64), so 2^36 is well under a
# second, while one sum of two 400,000-bit denominators is already over it.
_MAX_RATIONAL_WORK = 2**36

SYMBOLIC_DIGITS = 12
_CONSTANTS = {"pi": Fraction(math.pi), "e": Fraction(math.e)}
# Python's limit on digits converted between int and str (0: none; absent before 3.10.7)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _digit_limit_exceeded(n: int) -> int:
    """Python's int-to-str digit limit when n has more digits than it, else 0."""
    limit = _max_str_digits()
    # |n| < 2^(3 * limit) < 10^limit needs no power of ten
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit:
        return limit
    return 0


def _tokenize(text: str) -> list[tuple[str, str]]:
    text = text.replace("−", "-").replace("×", "*").replace("⋅", "*")
    text = text.replace("**", "^")
    tokens = []
    for m in _TOKEN.finditer(text):
        dec, num, name, op, junk = m.groups()
        if junk:
            raise ExpressionError(f"unexpected character {junk!r} in {text!r}")
        if dec:
            tokens.append(("dec", dec))
        elif num:
            tokens.append(("int", num))
        elif name:
            tokens.append(("name", name))
        else:
            tokens.append(("op", op))
    if not tokens:
        raise ExpressionError("empty expression")
    return tokens


def _bits(v: int | Fraction) -> int:
    """Bit length of an int, or of the larger part of a Fraction."""
    if type(v) is int:
        return v.bit_length()
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _part_bits(v: int | Fraction) -> tuple[int, int]:
    """Bit lengths of the numerator and the denominator (1 for an int)."""
    if type(v) is int:
        return v.bit_length(), 1
    return v.numerator.bit_length(), v.denominator.bit_length()


class _Parser:
    """Recursive descent; values are (int or Fraction, symbolic_taint)."""

    def __init__(self, text: str, allow_rational: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_rational = allow_rational
        self.work = 0

    def peek_op(self) -> str | None:
        if self.pos < len(self.tokens) and self.tokens[self.pos][0] == "op":
            return self.tokens[self.pos][1]
        return None

    def take(self) -> tuple[str, str]:
        if self.pos >= len(self.tokens):
            raise ExpressionError(f"unexpected end of expression in {self.text!r}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def charge(self, op: str, v, w) -> None:
        """Count the gcds of the rational `v op w` against the work budget,
        before it runs.  With v = na/da and w = nb/db, Fraction takes
        gcd(na, db) and gcd(nb, da) for *, gcd(na, nb) and gcd(da, db) for /,
        and for + and - gcd(da, db) and at most one more, of the new
        numerator and a divisor of both denominators."""
        na, da = _part_bits(v)
        nb, db = _part_bits(w)
        if op == "*":
            self.work += na * db + nb * da
        elif op == "/":
            self.work += na * nb + da * db
        else:
            self.work += (na + da) * (nb + db)
        if self.work > _MAX_RATIONAL_WORK:
            raise BudgetExceeded(f"endpoint arithmetic in {self.text!r} exceeds its work budget")

    def parse(self) -> tuple[int | Fraction, bool]:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionError(f"trailing input in {self.text!r}")
        return value

    def expr(self):
        v, t = self.term()
        while self.peek_op() in ("+", "-"):
            op = self.take()[1]
            w, wt = self.term()
            # a sum of rationals has at most the bits of both operands and one
            # more; a sum of ints has one more than the larger
            if type(v) is not int or type(w) is not int:
                if _bits(v) + _bits(w) + 1 > _MAX_RESULT_BITS:
                    raise ExpressionError("expression result too large")
                self.charge(op, v, w)
            v = v + w if op == "+" else v - w
            t = t or wt
        return v, t

    def term(self):
        v, t = self.unary()
        while self.peek_op() in ("*", "/"):
            op = self.take()[1]
            w, wt = self.unary()
            if op == "/" and not self.allow_rational:
                raise ExpressionError("'/' is not valid in an integer expression")
            # a product or quotient has at most the bits of both operands
            if _bits(v) + _bits(w) > _MAX_RESULT_BITS:
                raise ExpressionError("expression result too large")
            if op == "/":
                if w == 0:
                    raise ExpressionError("division by zero")
                self.charge(op, v, w)
                # the division takes the two gcds charged; Fraction(v, w)
                # would take one of the cross products, charged or not
                v = Fraction(v) / w
            else:
                if type(v) is not int or type(w) is not int:
                    self.charge(op, v, w)
                v = v * w
            t = t or wt
        return v, t

    def unary(self):
        sign = 1
        while self.peek_op() in ("+", "-"):
            if self.take()[1] == "-":
                sign = -sign
        v, t = self.power()
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
                raise ExpressionError(f"exponent {e} too large")
            if _bits(v) * abs(e) > _MAX_RESULT_BITS:
                raise ExpressionError("expression result too large")
            if v == 0 and e < 0:
                raise ExpressionError("division by zero")
            v = Fraction(v) ** e if e < 0 else v**e
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
            return Fraction(float(text)), False
        if kind == "name":
            if not self.allow_rational:
                raise ExpressionError(f"{text!r} is not valid in an integer expression")
            return _CONSTANTS[text], True
        if kind == "op" and text == "(":
            v = self.expr()
            nk, nt = self.take()
            if (nk, nt) != ("op", ")"):
                raise ExpressionError(f"expected ')' in {self.text!r}")
            return v
        raise ExpressionError(f"unexpected token {text!r} in {self.text!r}")


def parse_int_expr(text: str) -> int:
    """Exact integer value of a flag expression like "2^32" or "10^8+1"."""
    n, _ = _Parser(text, allow_rational=False).parse()
    if limit := _digit_limit_exceeded(n):
        raise ExpressionError(f"expression result has more than {limit} digits")
    return n


def parse_endpoint(text: str) -> Fraction:
    """Exact rational for an interval endpoint expression."""
    value, tainted = _Parser(text, allow_rational=True).parse()
    if tainted:
        scale = 10**SYMBOLIC_DIGITS
        return Fraction(round(value * scale), scale)
    return Fraction(value) if type(value) is int else value
