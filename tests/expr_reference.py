"""Fraction reference for the flag expression grammar, kept as a test oracle.

Random expression trees are rendered as text for `lcgspec.exprparse` and
evaluated here directly from the tree, every value a `Fraction`, as the
parser once did: decimal literals are the exact rationals of their doubles,
pi and e those of `math.pi` and `math.e`, and an endpoint that touches pi or
e is rounded to `digits` decimal digits at the end.  Evaluation raises
`ZeroDivisionError` where the parser must refuse a division by zero.

A tree is a tuple: ("int", text), ("dec", text), ("name", "pi" | "e"),
("neg", x), ("pow", base, n) with an int n, or (op, x, y) for op in + - * /.

`tokenize` is the scanner the parser once used: one regular expression,
whose digit and whitespace classes are Unicode's.  The parser's hand
scanner must give the same tokens and the same refusal on every text.
"""

import math
import re
from fractions import Fraction

from lcgspec.errors import ExpressionError, shown

_TOKEN = re.compile(r"(\d+\.\d*|\.\d+)|(\d+)|(pi|e)|([()+*/^-])|(\S)")


def tokenize(text: str) -> list[tuple[str, str]]:
    """The tokens of `text`, or the ExpressionError the scanner raised."""
    text = text.replace("−", "-").replace("×", "*").replace("⋅", "*")
    text = text.replace("**", "^")
    tokens = []
    for m in _TOKEN.finditer(text):
        dec, num, name, op, junk = m.groups()
        if junk:
            raise ExpressionError(f"unexpected character {shown(junk)} in {shown(text)}")
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


def random_tree(rng, rational: bool, depth: int = 3):
    """A random tree; `rational` allows '/', decimals, pi, e and n < 0."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(["int", "int", "dec", "name"] if rational else ["int"])
        if kind == "int":
            return ("int", str(rng.choice([0, 1, 2, 3, 7, 10, 12, 625, 69069, rng.randrange(10**6)])))
        if kind == "dec":
            return ("dec", rng.choice(["0.2", "0.5", "1.25", ".75", "3.", "0.580815", "10.125"]))
        return ("name", rng.choice(["pi", "e"]))
    shape = rng.random()
    if shape < 0.15:
        return ("neg", random_tree(rng, rational, depth - 1))
    if shape < 0.3:
        n = rng.randrange(-3 if rational else 0, 4)
        return ("pow", random_tree(rng, rational, depth - 1), n)
    op = rng.choice("+-*/" if rational else "+-*")
    return (op, random_tree(rng, rational, depth - 1), random_tree(rng, rational, depth - 1))


def render(tree, rng) -> str:
    """Text for the parser; composites are parenthesized, spacing varies."""
    kind = tree[0]
    if kind in ("int", "dec", "name"):
        return tree[1]
    if kind == "neg":
        return f"-({render(tree[1], rng)})"
    if kind == "pow":
        n = tree[2]
        exponent = str(n) if n >= 0 and rng.random() < 0.5 else f"({n})"
        return f"({render(tree[1], rng)})^{exponent}"
    space = rng.choice(["", " "])
    return f"({render(tree[1], rng)}{space}{kind}{space}{render(tree[2], rng)})"


def evaluate(tree) -> tuple[Fraction, bool]:
    """(exact value, touched pi or e)."""
    kind = tree[0]
    if kind == "int":
        return Fraction(int(tree[1])), False
    if kind == "dec":
        return Fraction(float(tree[1])), False
    if kind == "name":
        return Fraction(math.pi if tree[1] == "pi" else math.e), True
    if kind == "neg":
        v, t = evaluate(tree[1])
        return -v, t
    if kind == "pow":
        v, t = evaluate(tree[1])
        return v ** tree[2], t  # ZeroDivisionError for 0 ** -n
    (v, t), (w, u) = evaluate(tree[1]), evaluate(tree[2])
    if kind == "+":
        return v + w, t or u
    if kind == "-":
        return v - w, t or u
    if kind == "*":
        return v * w, t or u
    return v / w, t or u  # ZeroDivisionError for w == 0


def endpoint(tree, digits: int = 12) -> Fraction:
    value, tainted = evaluate(tree)
    if tainted:
        scale = 10**digits
        return Fraction(round(value * scale), scale)
    return value
