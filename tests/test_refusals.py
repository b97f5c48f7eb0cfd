"""How a refusal quotes the value it refuses: `errors.shown`, one rule for
every message, so no refusal fails inside its own message or runs to
kilobytes, whatever the interpreter's int-to-str limit; and how an answer
too long to print is refused by the one digit rule of `errors`."""

import io
import math
import sys
import time
from fractions import Fraction

import pytest

import lcgspec.cli as cli
from lcgspec.builder import MultiplierRecipe, build_range
from lcgspec.empirical import dump_sequence, frequency_test
from lcgspec.errors import (
    InvalidParams,
    LambdaInvalid,
    LcgspecError,
    NoPotential,
    PeriodViolation,
    TooSmall,
    shown,
)
from lcgspec.lattice import LatticeBasis, brute_force_shortest, dual_basis, shortest_vector
from lcgspec.lcg import LcgParams, PotentialProfile, compute_potential
from lcgspec.spectral import spectral_profile, spectral_test, theorem_bounds

DEFAULT_LIMIT = sys.get_int_max_str_digits()  # 4300 unless the interpreter was told otherwise
HUGE = 10**5000 - 1  # 5,000 digits, 16,610 bits
LONGEST_LINE = 2100


@pytest.fixture(params=[DEFAULT_LIMIT, 640, 0], ids=["default", "640", "none"])
def digit_limit(request):
    """Python's int-to-str limit set to each of its default, its least
    allowed value and 0 (no limit), then restored."""
    sys.set_int_max_str_digits(request.param)
    try:
        yield request.param
    finally:
        sys.set_int_max_str_digits(DEFAULT_LIMIT)


class TestShown:
    def test_text_is_quoted_by_at_most_2000_characters(self):
        assert shown("") == "''"
        assert shown("x" * 2000) == repr("x" * 2000)
        assert shown("x" * 2001) == f"{'x' * 2000!r}... (2001 characters)"
        assert shown("a:b", verbatim=True) == "a:b"
        assert shown("x" * 2000, verbatim=True) == "x" * 2000
        assert shown("x" * 2001, verbatim=True) == f"{'x' * 2000!r}... (2001 characters)"

    def test_integers_up_to_2000_digits_in_decimal(self):
        for n in (0, 7, -7, 10**1999, 10**2000 - 1, 1 - 10**2000, True):
            assert shown(n) == str(n)
        assert shown(10**2000) == f"<{(10**2000).bit_length()}-bit integer>"
        assert shown(-HUGE) == "-<16610-bit integer>"

    def test_fractions_in_lowest_terms_or_by_their_bit_lengths(self):
        assert shown(Fraction(-3, 4)) == "-3/4"
        assert shown(Fraction(6)) == "6"
        assert shown(Fraction(1, HUGE)) == "<1-bit numerator / 16610-bit denominator>"
        assert shown(Fraction(-HUGE, 7)) == "-<16610-bit numerator / 3-bit denominator>"

    def test_any_other_value_by_its_repr(self):
        assert shown(range(2, 5)) == "range(2, 5)"
        assert shown([2, 1000000000]) == "[2, 1000000000]"
        assert shown(1.5) == "1.5"
        long = list(range(1000))
        assert shown(long) == f"{repr(long)[:2000]!r}... ({len(repr(long))} characters)"

    def test_never_converts_what_the_interpreter_refuses(self, digit_limit):
        quoted = min(digit_limit or 2000, 2000)
        assert shown(10**quoted - 1) == "9" * quoted
        assert shown(10**quoted) == f"<{(10**quoted).bit_length()}-bit integer>"
        text = shown(range(HUGE, HUGE + 1))  # its repr, when the interpreter allows it
        assert text == "<range>" if digit_limit else text.endswith("... (10010 characters)")


# each library entry point, refusing a 5,000-digit value, and its error kind
REFUSALS = {
    "dual_basis": (InvalidParams, lambda: dual_basis(HUGE, 7, 2)),
    "LcgParams": (InvalidParams, lambda: LcgParams(HUGE, 1, 16)),
    "compute_potential": (NoPotential, lambda: compute_potential(3, 5 * HUGE)),
    "spectral_profile": (InvalidParams, lambda: spectral_profile(HUGE, 7, range(2, 3))),
    "spectral_profile-dims": (InvalidParams, lambda: spectral_profile(5, 16, range(HUGE, 1))),
    "brute_force_shortest": (InvalidParams, lambda: brute_force_shortest(5, 16, 2, box=-HUGE)),
    "build_range": (LambdaInvalid, lambda: build_range(2, 0, HUGE, MultiplierRecipe(26))),
    "build_range-min_accuracy": (TooSmall, lambda: build_range(2, 0, 1, MultiplierRecipe(26),
                                                               min_accuracy=HUGE)),
    "MultiplierRecipe": (InvalidParams, lambda: MultiplierRecipe(-HUGE)),
    "theorem_bounds": (InvalidParams, lambda: theorem_bounds(26, PotentialProfile(2, HUGE), 2)),
    "dump_sequence": (InvalidParams, lambda: dump_sequence(LcgParams(5, 1, 16), io.StringIO(),
                                                           count=HUGE)),
    "dump_sequence-period": (PeriodViolation, lambda: dump_sequence(
        LcgParams(2, 1, 3 * 10**5000), io.StringIO(), count=3 * 10**5000, digits=1,
        budget=10**5001)),
    "frequency_test": (InvalidParams, lambda: frequency_test(LcgParams(5, 1, 16),
                                                             Fraction(HUGE, 3), 1)),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_library_refusals_of_huge_values_stay_short(digit_limit, name):
    kind, call = REFUSALS[name]
    with pytest.raises(LcgspecError) as exc:
        call()
    assert type(exc.value) is kind
    assert len(str(exc.value)) <= LONGEST_LINE


def run(argv):
    out = io.StringIO()
    return cli.main(argv, out=out), out.getvalue()


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--a", "3*10^4000", "--N", "10^4000+1"], 2),
    (["build", "--tau", "2", "--a", "26", "--min-accuracy", "10^4000"], 2),
    (["build", "--tau", "2", "--a", "26", "--l", "1", "--lambda", "7" * 4000], 3),
    (["dump", "--a", "5", "--N", "16", "--count", "10^4000"], 2),
    (["uniformity", "--a", "5", "--N", "3^8000", "--interval", "0:1"], 3),
], ids=["analyze-a", "build-min-accuracy", "build-lambda", "dump-count", "uniformity-N"])
def test_cli_refusals_of_huge_values_are_one_short_line(capsys, argv, code):
    assert run(argv) == (code, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) <= LONGEST_LINE and "-bit integer>" in err


@pytest.mark.parametrize("digit_limit", [DEFAULT_LIMIT, 640], ids=["default", "640"],
                         indirect=True)
@pytest.mark.parametrize("primes", ["2:99999999999", "2:10^11", "3,2^61-1:10^9"])
def test_build_refuses_a_kernel_too_long_to_print_unformed(capsys, digit_limit, primes):
    # 2^99999999999 alone would take longer than any test
    assert run(["build", "--tau", "2", "--primes", primes]) == (2, "")
    assert capsys.readouterr().err == (
        f"error: every modulus built on this prime kernel has more than {digit_limit} digits\n")


KERNEL_TOO_LONG = "every modulus built on this prime kernel"
MODULUS_TOO_LONG = "modulus N = (a-1)^2/lambda"


@pytest.mark.parametrize("argv, name", [
    ("--primes 2^9689-1:2", KERNEL_TOO_LONG),
    ("--primes 2^9689-1", KERNEL_TOO_LONG),
    ("--primes 2^9689-1 --min-accuracy 2^10000*2^4000", KERNEL_TOO_LONG),
    ("--primes 3:5000 --min-accuracy 2^10000*2^4000", MODULUS_TOO_LONG),
    ("--primes 3:2000 --min-accuracy 2^10000", MODULUS_TOO_LONG),
], ids=["mersenne-squared", "mersenne", "mersenne-min-accuracy", "3^5000-min-accuracy",
        "3^2000-min-accuracy"])
def test_build_refuses_a_modulus_too_long_to_print_at_once(monkeypatch, capsys, argv, name):
    # refused from bit lengths: no long prime is tested (Miller-Rabin on
    # 2^9689 - 1 takes over 20 s) and no power is formed far past the answer
    from lcgspec import builder

    real = builder.is_probable_prime

    def short_only(n):
        assert n.bit_length() <= 64, "a long prime was tested"
        return real(n)

    monkeypatch.setattr(builder, "is_probable_prime", short_only)
    start = time.perf_counter()
    assert run(["build", "--s", "2", *argv.split()]) == (2, "")
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {name} has more than {DEFAULT_LIMIT} digits\n"


def test_build_min_accuracy_past_the_digit_limit_names_the_modulus(capsys):
    # the least 2^j + 1 clearing 10^4200 is 2^13953 + 1, found at once; its
    # modulus (a-1)^2 is what has too many digits
    assert run(["build", "--s", "2", "--primes", "2:1", "--min-accuracy", "10^4200"]) == (2, "")
    assert capsys.readouterr().err == (
        f"error: modulus N = (a-1)^2/lambda has more than {DEFAULT_LIMIT} digits\n")


class TestArgparseChoices:
    """argparse's `invalid choice` text, with the value quoted by `shown`."""

    def test_a_short_value_reads_as_argparse_writes_it(self, capsys):
        assert run(["analyze", "--a", "5", "--N", "16", "--format", "xml"]) == (2, "")
        assert capsys.readouterr().err.splitlines()[-1] == (
            "lcgspec analyze: error: argument --format: invalid choice: 'xml' "
            "(choose from 'text', 'json', 'csv')")

    @pytest.mark.parametrize("argv, flag", [
        ([], "command"), (["analyze", "--a", "5", "--N", "16", "--format"], "--format"),
    ], ids=["command", "format"])
    def test_a_long_value_is_quoted_in_part(self, capsys, argv, flag):
        # the usage line above still lists the choices
        assert run(argv + ["7" * 5000]) == (2, "")
        usage, *_, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: lcgspec") and len(error) <= LONGEST_LINE
        assert error.endswith(f"argument {flag}: invalid choice: "
                              f"{'7' * 2000!r}... (5000 characters)")


def hexagonal_pair(limit):
    """(a, N), N < 10^limit, whose dual lattice in dimension 2 is nearly
    hexagonal, so v_2^2 is about 1.15 * 10^limit: one digit more than the
    limit.  The lattice is spanned by (u, v) = (u, 1), u^2 about
    1.15 * 10^limit, and (u', v'), that row turned by 60 degrees and rounded:
    N = u*v' - v*u' is their determinant and a = -u * v^-1 mod N = -u mod N
    puts both in it.  With v = 1, LLL takes a few steps at any size."""
    u = math.isqrt(115 * 10 ** (limit - 2))
    turned_u, turned_v = u // 2, math.isqrt(3 * u * u) // 2
    N = u * turned_v - turned_u
    return N - u, N


SQUARED_NORM = "the shortest vector's squared norm has more than {} digits"


@pytest.mark.parametrize("digit_limit", [DEFAULT_LIMIT, 640], ids=["default", "640"],
                         indirect=True)
class TestAnswerTooLongToPrint:
    """An answer that the digit rule calls too long is refused with exit 2,
    before anything is written; one that prints never is."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_analyze(self, capsys, digit_limit, fmt):
        a, N = hexagonal_pair(digit_limit)
        assert len(str(N)) == digit_limit
        argv = ["analyze", "--a", str(a), "--N", str(N), "--s", "2", "--format", fmt]
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {SQUARED_NORM.format(digit_limit)}\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_svp(self, capsys, digit_limit, fmt):
        a, N = hexagonal_pair(digit_limit)
        assert run(["svp", "--a", str(a), "--N", str(N), "--s", "2", "--format", fmt]) == (2, "")
        assert capsys.readouterr().err == f"error: {SQUARED_NORM.format(digit_limit)}\n"

    def test_an_answer_that_prints_is_kept(self, digit_limit):
        # x^2 has exactly limit digits, (x + 1)^2 one more
        x = math.isqrt(10**digit_limit - 1)
        assert shortest_vector(LatticeBasis(((x, 0), (0, x + 1)))).norm_sq == x * x
        with pytest.raises(InvalidParams) as exc:
            shortest_vector(LatticeBasis(((x + 1, 0), (0, x + 2))))
        assert str(exc.value) == SQUARED_NORM.format(digit_limit)


class TestTheoremBoundTooLongToPrint:
    """A theorem bound too long to print is refused with exit 2, before
    anything is written.  a = 10^3000 + 1, N = 10^4000 is theorem 3's
    s = tau = 2 with lambda = 10^2000: its lower bound (1 + (a-2)^2)/lambda^2
    has a numerator of 6,000 digits, though v_2^2 prints."""

    A, N = 10**3000 + 1, 10**4000
    REFUSAL = "theorem 3's lower bound on v_2^2 has more than {} digits"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_analyze(self, capsys, fmt):
        argv = ["analyze", "--a", "10^3000+1", "--N", "10^4000", "--s", "2", "--format", fmt]
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {self.REFUSAL.format(DEFAULT_LIMIT)}\n"

    # at a limit of 640 digits, lambda = 10^2000 is refused first
    @pytest.mark.parametrize("digit_limit", [DEFAULT_LIMIT, 0], ids=["default", "none"],
                             indirect=True)
    def test_library(self, digit_limit):
        profile = compute_potential(self.A, self.N)
        assert profile == PotentialProfile(2, 10**2000)
        if digit_limit:
            with pytest.raises(InvalidParams) as exc:
                theorem_bounds(self.A, profile, 2)
            assert str(exc.value) == self.REFUSAL.format(digit_limit)
        else:
            tb = theorem_bounds(self.A, profile, 2)
            assert tb.lower_sq == Fraction(1 + (self.A - 2) ** 2, 10**4000)
            assert tb.upper_sq == 2 * 10**2000


@pytest.mark.parametrize("digit_limit", [0], ids=["none"], indirect=True)
def test_without_a_limit_the_long_answer_is_returned(digit_limit):
    a, N = hexagonal_pair(640)
    v_sq = spectral_test(a, N, 2).v_sq
    assert N < 10**640 <= v_sq < 2 * 10**640


def test_dump_default_digits_at_the_limit(digit_limit):
    # N = 10^limit: every value x < N prints and the default is limit
    # digits; N = 10^limit + 1 defaults to limit + 2.  The dump's limit is
    # 4300 when the interpreter has none.
    limit = digit_limit or 4300
    out = io.StringIO()
    dump_sequence(LcgParams(11, 1, 10**limit), out, count=2)
    assert out.getvalue() == f"n,x,u\n1,1,0.{'0' * (limit - 1)}1\n2,12,0.{'0' * (limit - 2)}12\n"
    with pytest.raises(InvalidParams, match=f"^the default digit count for this N exceeds "
                                            f"{limit}; give digits <= {limit}$"):
        dump_sequence(LcgParams(11, 1, 10**limit + 1), io.StringIO(), count=2)


class TestFlagsThatNeedAnother:
    """A flag that only another flag gives a meaning is refused without it,
    before any work."""

    def test_enum_cap_needs_validate(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_range", _boom)
        assert run(["build", "--tau", "2", "--a", "26", "--enum-cap", "3"]) == (2, "")
        assert capsys.readouterr().err == "error: --enum-cap needs --validate\n"

    def test_enum_cap_with_validate(self, capsys):
        argv = ["build", "--tau", "2", "--a", "26", "--validate", "3"]
        code, out = run(argv)
        assert (code, capsys.readouterr().err) == (0, "")
        assert run(argv + ["--enum-cap", "3"]) == (0, out)
        assert run(argv + ["--enum-cap", "2"]) == (4, "")  # the cap still bounds the solver
        assert capsys.readouterr().err == "error: dimension 3 exceeds enumeration cap 2\n"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_per_line_needs_format_table(self, monkeypatch, capsys, tmp_path, to_file):
        monkeypatch.setattr(cli, "dump_sequence", _boom)
        path = tmp_path / "absent.txt"
        argv = ["dump", "--a", "26", "--N", "625", "--count", "3", "--per-line", "2"]
        assert run(argv + (["-o", str(path)] if to_file else [])) == (2, "")
        assert capsys.readouterr().err == "error: --per-line needs --format table\n"
        assert not path.exists()

    def test_per_line_with_format_table(self):
        argv = ["dump", "--a", "26", "--N", "625", "--count", "3", "--format", "table"]
        assert run(argv + ["--per-line", "2"]) == (0, "0.0016; 0.0432\n0.1248\n")
        assert run(argv) == (0, "0.0016; 0.0432; 0.1248\n")  # 10 a row by default


def _boom(*args, **kwargs):
    raise AssertionError("called after a refusal")
