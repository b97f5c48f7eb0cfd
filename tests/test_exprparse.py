import io
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest

import expr_reference
from lcgspec import errors, exprparse
from lcgspec.cli import main
from lcgspec.errors import BudgetExceeded, ExpressionError
from lcgspec.exprparse import parse_endpoint, parse_int_expr


@pytest.mark.parametrize(
    "text,expected",
    [
        ("69069", 69069),
        ("2^32", 2**32),
        ("2^35", 2**35),
        ("10^10", 10**10),
        ("10^8+1", 10**8 + 1),
        ("(69068)^2", 69068**2),
        ("(69068)^6", 69068**6),
        ("(2+3)*4", 20),
        ("2*3^2", 18),  # power binds tighter than *
        ("2^3^2", 512),  # right-associative
        ("-5+8", 3),
        ("--7", 7),
        ("2**10", 1024),  # ** alias
        ("3 × 4", 12),  # unicode multiplication sign
        ("7 − 9", -2),  # unicode minus
    ],
)
def test_parse_int_expr(text, expected):
    assert parse_int_expr(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "", "()", "2^", "2^^3", "1/2", "0.5", "pi", "2 3", "x^2",
        "2^(1+1", "4!",
    ],
)
def test_parse_int_expr_rejects(text):
    with pytest.raises(ExpressionError):
        parse_int_expr(text)


def test_parse_int_expr_guards_blowup():
    with pytest.raises(ExpressionError):
        parse_int_expr("2^100000")  # exponent above the sanity limit
    with pytest.raises(ExpressionError):
        parse_int_expr("(10^1000)^100000")
    with pytest.raises(ExpressionError):
        parse_int_expr("2^(10^7)")


# each refusal of an exponent, by the parser and by a command that reads the
# value: an integer flag or a `uniformity` endpoint
@pytest.mark.parametrize("parse, text, message", [
    (parse_endpoint, "2^(1/2)", "exponent must be an integer"),
    (parse_endpoint, "2^pi", "exponent must be an integer"),
    (parse_int_expr, "2^-1", "negative exponent in an integer expression"),
    (parse_int_expr, "(2^500)^10000", "expression result too large"),
], ids=["rational", "constant", "negative", "result-bits"])
def test_exponent_refusals(capsys, parse, text, message):
    with pytest.raises(ExpressionError) as refusal:
        parse(text)
    assert str(refusal.value) == message
    if parse is parse_endpoint:
        argv = ["uniformity", "--a", "26", "--N", "625", "--interval", f"{text}:1"]
    else:
        argv = ["analyze", "--a", text, "--N", "625"]
    out = io.StringIO()
    assert main(argv, out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_products_are_bounded_before_they_are_made():
    # three factors of 2^1999801 each: the third * would make ~6M bits
    part = "(2^9999)^200"
    with pytest.raises(ExpressionError, match="expression result too large"):
        parse_int_expr(f"{part}*{part}*{part}")
    with pytest.raises(ExpressionError, match="expression result too large"):
        parse_endpoint(f"1/{part}/{part}/{part}")
    # a quotient's bits are bounded the same way as a product's
    with pytest.raises(ExpressionError, match="expression result too large"):
        parse_endpoint(f"{part}*{part}/({part})")


def test_rational_sums_are_bounded_before_they_are_made():
    # coprime denominators of ~2.1M and ~2.06M bits: the sum's denominator
    # would be their product, above the 4M-bit result limit
    big = "1/(2^1000)^2100"
    other = "1/(3^1000)^1300"
    for text in (f"{big}+{other}", f"{big}-{other}", f"{other}-{big}"):
        with pytest.raises(ExpressionError, match="expression result too large"):
            parse_endpoint(text)
    # within the limit a rational sum is exact
    assert parse_endpoint("1/(2^1000)^100-1/(3^1000)^60") == (
        Fraction(1, 2**100000) - Fraction(1, 3**60000))
    # a sum of ints grows by at most one bit and is not refused
    assert parse_endpoint("(2^1000)^3000+(2^1000)^3000") == 2**3000001


# eight reciprocals of coprime powers of about 400,000 bits each: under the
# result limit, but their sums once took over 10 s, nearly all in Fraction's gcds
COPRIME_SUM = ("1/(3^1000)^250+1/(5^1000)^180+1/(7^1000)^150+1/(11^1000)^120"
               "+1/(13^1000)^110+1/(17^1000)^100+1/(19^1000)^95+1/(23^1000)^90")


def test_rational_work_is_bounded_before_it_is_done():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="exceeds its work budget"):
        parse_endpoint(COPRIME_SUM)
    # a quotient of coprime powers of about 300,000 bits: one gcd of both
    with pytest.raises(BudgetExceeded):
        parse_endpoint("(2^1000)^300/(3^1000)^200")
    # the work of every step counts: twenty sums, each under the budget alone
    with pytest.raises(BudgetExceeded):
        parse_endpoint("+".join(f"1/({p}^1000)^8" for p in
                                (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                                 59, 61, 67, 71, 73, 79)))
    assert time.perf_counter() - start < 1
    # cheap steps on large values are not charged as large: a reciprocal
    # divided again, and a rational times a small integer
    assert parse_endpoint("1/(2^9999)^200/(2^9999)^200") == Fraction(1, 2**3999600)
    assert parse_endpoint("3*(1/(3^1000)^250)") == Fraction(1, 3**249999)


# twenty differences of two products of coprime powers of about 1.9M bits:
# each term once took over a second of integer products
PRODUCT_SUM = "+".join(["((3^1000)^1200*(5^1000)^800-(3^1000)^1200*(5^1000)^800)"] * 20)
POWER_SUM = "+".join(["(3^1000)^1200"] * 20)
# a product chain of a large power and small factors once took 1.5 s
PRODUCT_CHAIN = "((3^1000)^1200" + "*3" * 20000 + ")*0"
# linear work on few odd bits: a sum of 3M-bit powers of two once took 56 s,
# and 20,000 increments of a 1.9M-bit power 1.6 s
TWOS_SUM = "+".join(["(((2^100)^100)^100)^3"] * 5000)
INCREMENTS = "(3^1000)^1200" + "+1" * 20000


# a refusal quotes up to 2,000 characters of the expression whole, and a
# longer one by the repr of its first 2,000 and its length
@pytest.mark.parametrize("text, quoted", [
    (PRODUCT_SUM, repr(PRODUCT_SUM)),
    (POWER_SUM, repr(POWER_SUM)),
    (PRODUCT_CHAIN, f"{PRODUCT_CHAIN[:2000]!r}... (40017 characters)"),
    (TWOS_SUM, f"{TWOS_SUM[:2000]!r}... (109999 characters)"),
    (INCREMENTS, f"{INCREMENTS[:2000]!r}... (40013 characters)"),
], ids=["products", "powers", "chain", "twos", "increments"])
def test_integer_work_is_bounded_before_it_is_done(text, quoted):
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as refusal:
        parse_int_expr(text)
    assert time.perf_counter() - start < 1
    assert str(refusal.value) == f"integer arithmetic in {quoted} exceeds its work budget"


@pytest.mark.parametrize("head, tail, message", [
    ("", "1)", "trailing input in {}"),
    ("", "1+", "unexpected end of expression in {}"),
    ("(", "1 1", "expected ')' in {}"),
    ("", "1$", "unexpected character '$' in {}"),
    (")", "1", "unexpected token ')' in {}"),
], ids=["trailing", "end", "paren", "character", "token"])
def test_refusals_quote_a_long_expression_by_a_prefix(head, tail, message):
    # every refusal that names the expression quotes it the same way
    for size in (2000, 2002):
        text = head + "1+" * ((size - len(head) - len(tail)) // 2) + tail
        assert len(text) == size
        quoted = repr(text) if size == 2000 else f"{text[:2000]!r}... (2002 characters)"
        with pytest.raises(ExpressionError) as refusal:
            parse_int_expr(text)
        assert str(refusal.value) == message.format(quoted)


def test_integer_work_counts_bits_without_trailing_zeros():
    # powers of two are cheap and charged so: one bit per factor
    assert parse_int_expr("(2^1000)^3000*(2^1000)^900-(2^1000)^3900") == 0
    # two powers of about 1.9M bits each fit the allowance together
    assert parse_int_expr("(3^1000)^1200-(3^1000)^1200") == 0
    # an endpoint's integer steps are charged the same way
    with pytest.raises(BudgetExceeded, match="^endpoint arithmetic in "):
        parse_endpoint(PRODUCT_CHAIN)


@pytest.mark.parametrize("parse", [parse_int_expr, parse_endpoint], ids=["int", "endpoint"])
def test_nesting_is_bounded(parse):
    # the whole expression and 99 parentheses or exponents in it make 100
    # levels and parse; one more is refused, and 3,000 once ended in a
    # RecursionError
    assert parse("(" * 99 + "16" + ")" * 99) == 16
    assert parse("1" + "^1" * 99) == 1
    for text in ("(" * 100 + "16" + ")" * 100, "1" + "^1" * 100,
                 "(" * 3000 + "16" + ")" * 3000, "-(" * 3000 + "16" + ")" * 3000):
        with pytest.raises(ExpressionError, match="^expression nests more than 100 levels deep$"):
            parse(text)


@pytest.mark.parametrize("rational", [False, True], ids=["int", "endpoint"])
def test_matches_fraction_reference(rational):
    rng = random.Random(f"exprparse:{rational}")
    parse = parse_endpoint if rational else parse_int_expr
    checked = refused = 0
    for _ in range(1500):
        tree = expr_reference.random_tree(rng, rational)
        text = expr_reference.render(tree, rng)
        try:
            want = expr_reference.endpoint(tree) if rational else expr_reference.evaluate(tree)[0]
        except ZeroDivisionError:
            with pytest.raises(ExpressionError, match="division by zero"):
                parse(text)
            refused += 1
            continue
        got = parse(text)
        assert got == want, text
        assert type(got) is (Fraction if rational else int), text
        checked += 1
    assert checked + refused == 1500 and checked >= 1200


def test_reference_covers_every_rational_path():
    rng = random.Random("exprparse:True")
    kinds = set()

    def walk(tree):
        kinds.add(tree[0] if tree[0] != "pow" or tree[2] >= 0 else "pow<0")
        for sub in tree[1:]:
            if isinstance(sub, tuple):
                walk(sub)

    for _ in range(200):
        walk(expr_reference.random_tree(rng, True))
    assert {"int", "dec", "name", "neg", "pow", "pow<0", "+", "-", "*", "/"} <= kinds


def test_values_stay_integers_until_a_rational_step():
    assert type(parse_endpoint("2^3-7")) is Fraction  # the result type is fixed
    for text in ("1/2", "2^-1", "0.5", "pi", "e"):
        assert type(parse_endpoint(text)) is Fraction
    assert parse_endpoint("2^(4/2)") == 4  # an integral rational is a valid exponent
    assert parse_endpoint("(6/3)^-1") == Fraction(1, 2)


def test_parse_int_expr_refuses_integers_too_long_to_print():
    limit = sys.get_int_max_str_digits()  # 4300 unless the interpreter was told otherwise
    assert parse_int_expr("9" * limit) == 10**limit - 1
    assert parse_int_expr(f"10^{limit}-1") == 10**limit - 1
    assert parse_int_expr(f"-(10^{limit}-1)") == 1 - 10**limit
    assert parse_int_expr("0" * limit) == 0
    half = f"2^{limit * 2}"  # about 0.6 * limit digits
    for text in ("1" + "0" * limit, "0" * (limit + 1), f"10^{limit}", f"-10^{limit}",
                 f"{half}*{half}", f"{half}*{half}+{half}"):
        with pytest.raises(ExpressionError, match=f"more than {limit} digits"):
            parse_int_expr(text)
    with pytest.raises(ExpressionError, match="integer literal"):
        parse_endpoint("1/" + "3" * (limit + 1))


def test_digit_limit_follows_the_interpreter(monkeypatch):
    # literals are measured in `exprparse`, results by the rule in `errors`
    for module in (exprparse, errors):
        monkeypatch.setattr(module, "_max_str_digits", lambda: 0)  # no limit
    assert parse_int_expr("10^4300") == 10**4300
    for module in (exprparse, errors):
        monkeypatch.setattr(module, "_max_str_digits", lambda: 5)
    assert parse_int_expr("99999") == 99999
    with pytest.raises(ExpressionError, match="integer literal has more than 5 digits"):
        parse_int_expr("100000")
    with pytest.raises(ExpressionError, match="expression result has more than 5 digits"):
        parse_int_expr("10^5")


def _outcome(text):
    try:
        return parse_int_expr(text)
    except ExpressionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("limit", [sys.get_int_max_str_digits(), 640, 0],
                         ids=["default", "640", "none"])
def test_a_plain_literal_reads_as_the_grammar_reads_it(limit):
    # a text of decimal digits is read by int(); in parentheses the same text
    # goes through the grammar, which gives the same value or the same refusal
    default, width = sys.get_int_max_str_digits(), limit or sys.get_int_max_str_digits()
    digits = "0123456789" "\u0660\u0663\u0669" "\uff10\uff11\uff19" "\u0966\u096f"
    rng = random.Random(33)
    texts = ["007", "\u0663", "\uff11\uff12\uff13", "0" * width, "9" * width,
             "0" * (width + 1), "9" * (width + 1)]
    texts += ["".join(rng.choice(digits) for _ in range(rng.choice([1, 3, 40, width, width + 1])))
              for _ in range(60)]
    sys.set_int_max_str_digits(limit)
    try:
        outcomes = [(_outcome(text), _outcome(f"({text})")) for text in texts]
    finally:
        sys.set_int_max_str_digits(default)
    assert all(fast == full for fast, full in outcomes)
    assert outcomes[0][0] == 7 and outcomes[1][0] == outcomes[2][0] // 41 == 3
    refused = sum(type(fast) is tuple for fast, _ in outcomes)
    assert refused >= 2 if limit else refused == 0


def test_a_plain_literal_skips_the_grammar(monkeypatch):
    monkeypatch.setattr(exprparse, "_Parser", None)
    assert parse_int_expr("69069") == parse_int_expr("\uff16\uff19\uff10\uff16\uff19") == 69069


def test_decimal_endpoints_are_binary_doubles():
    # literal decimals mean the IEEE-754 double a file of published
    # figures would have carried, compared exactly afterwards
    assert parse_endpoint("0.2") == Fraction(float("0.2"))
    assert parse_endpoint("0.2") != Fraction(1, 5)
    assert parse_endpoint("0.2") > Fraction(1, 5)
    assert parse_endpoint("0.5") == Fraction(1, 2)  # exactly representable
    assert parse_endpoint("0.580815") == Fraction(float("0.580815"))


def test_integer_endpoints_are_exact():
    assert parse_endpoint("0") == 0
    assert parse_endpoint("1") == 1
    assert parse_endpoint("1/2") == Fraction(1, 2)
    assert parse_endpoint("3/4") == Fraction(3, 4)


def test_symbolic_endpoints_round_to_twelve_digits():
    got = parse_endpoint("1/pi^2")
    assert got.denominator <= 10**12
    assert abs(got - Fraction(1 / math.pi**2)) < Fraction(1, 10**12)
    assert got == Fraction(round(Fraction(1 / math.pi**2) * 10**12), 10**12)

    got = parse_endpoint("1-1/e")
    assert got == Fraction(round(Fraction(1 - 1 / math.e) * 10**12), 10**12)


def test_symbolic_mixed_with_decimal_is_tainted():
    # any expression touching pi/e is rounded, even if a decimal appears
    got = parse_endpoint("0.5*pi")
    assert got == Fraction(round(Fraction(0.5 * math.pi) * 10**12), 10**12)


def test_pure_decimal_arithmetic_stays_exact_on_doubles():
    # 0.2 + 0.3 on exact rationals of the doubles, not float addition
    got = parse_endpoint("0.2 + 0.3")
    assert got == Fraction(float("0.2")) + Fraction(float("0.3"))


def test_parse_endpoint_rejects():
    for text in ("", "0.2:0.9", "two", "1//2", "e^"):
        with pytest.raises(ExpressionError):
            parse_endpoint(text)


def _scan(tokenize, text):
    """The tokens `tokenize` gives `text`, or the message it refuses it with."""
    try:
        return tokenize(text)
    except ExpressionError as exc:
        return str(exc)


# what the seeded texts are drawn from, with weights: ASCII and other scripts'
# digits, ASCII and Unicode whitespace, the spellings the scanner rewrites,
# names, operators, and characters it must refuse (`²` and `½` are digits to
# `str.isdigit` but not decimal)
PIECES = [
    ("0", 3), ("7", 3), ("42", 2), ("٣", 1), ("１", 1), ("߂", 1), (" ", 3), ("\t", 1), ("\n", 1),
    ("　", 1), ("\xa0", 1), ("\x1c", 1), ("−", 1), ("×", 1), ("⋅", 1), ("**", 1), ("*", 1),
    ("pi", 2), ("p", 1), ("i", 1), ("e", 2), (".", 3), ("+", 2), ("-", 2), ("/", 1), ("^", 2),
    ("(", 1), (")", 1), ("x", 1), ("²", 1), ("½", 1), (",", 1), ("_", 1), ("\U0001d7d8", 1),
]


def test_scanner_matches_the_regular_expression_it_replaced():
    rng = random.Random(50)
    pieces, weights = zip(*PIECES)
    for _ in range(100_000):
        text = "".join(rng.choices(pieces, weights, k=rng.randrange(9)))
        assert _scan(exprparse._tokenize, text) == _scan(expr_reference.tokenize, text), text


@pytest.mark.parametrize("text", ["٣", "pie", "1.5e3", "..5", "5.5.5", "3.", ".5", "", "  ",
                                  "2 ** 3", "1½", "e.e", "π"])
def test_scanner_matches_on_edge_cases(text):
    assert _scan(exprparse._tokenize, text) == _scan(expr_reference.tokenize, text)


def test_decimal_and_space_are_the_regular_expression_classes():
    # over every code point, lone surrogates included
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert [c for c in text if c.isdecimal()] == re.findall(r"\d", text)
    assert [c for c in text if c.isspace()] == re.findall(r"\s", text)
