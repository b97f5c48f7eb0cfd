"""Tests for the frequency test and sequence dumps."""

import io
import math
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from lcgspec import (
    BudgetExceeded,
    InvalidParams,
    LcgParams,
    PeriodViolation,
)
from lcgspec import _chunks, cli, empirical
from lcgspec._chunks import _CHUNK
from lcgspec.empirical import dump_sequence, frequency_test
from lcgspec.lcg import default_digits
from lcgspec.numtheory import factorize

P625 = LcgParams(26, 1, 625, 0)


class TestFormatFraction:
    """`cli._render_ratio`, which renders every figure of a uniformity row."""

    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (Fraction(1, 3), 12, "0.333333333333"),
            (Fraction(7, 10), 12, "0.7"),
            (Fraction(0), 12, "0"),
            (Fraction(5), 12, "5"),
            (Fraction(1, 4), 12, "0.25"),
            (Fraction(1, 3), 4, "0.3333"),
            (Fraction(2, 3), 3, "0.666"),  # truncated, not rounded
            (Fraction(168, 625), 12, "0.2688"),
            (3, 12, "3"),
        ],
    )
    def test_rendering(self, value, digits, expected):
        value = Fraction(value)
        assert cli._render_ratio(value.numerator, value.denominator, digits) == expected
        # the pair need not be reduced
        assert cli._render_ratio(7 * value.numerator, 7 * value.denominator, digits) == expected


class TestFrequencyTest:
    def test_decimal_endpoints(self):
        r = frequency_test(P625, Fraction(0.580815), Fraction(0.850411))
        assert r.m == 168
        assert cli._uniformity_row(r)["m_over_N"] == "0.2688"
        assert float(r.delta) == pytest.approx(0.000796, abs=5e-7)

    def test_symbolic_endpoints_rounded(self):
        # 1/pi^2 and 1 - 1/e quantized to 12 decimal digits
        al = Fraction(round(Fraction(1 / math.pi**2) * 10**12), 10**12)
        be = Fraction(round(Fraction(1 - 1 / math.e) * 10**12), 10**12)
        r = frequency_test(P625, al, be)
        assert r.m == 332
        assert float(r.delta) == pytest.approx(0.0004, abs=1e-6)

    def test_double_vs_exact_endpoints(self):
        # the IEEE value of 0.2 sits just above 1/5, pushing ceil(alpha*N)
        # from 125 to 126 and excluding one orbit value
        doubles = frequency_test(P625, Fraction(0.2), Fraction(0.9))
        exact = frequency_test(P625, Fraction(1, 5), Fraction(9, 10))
        assert doubles.m == 437
        assert exact.m == 438
        assert float(doubles.delta) == pytest.approx(0.0008, abs=1e-6)

    def test_whole_interval(self):
        r = frequency_test(P625, 0, 1)
        assert r.m == 625
        assert cli._uniformity_row(r)["width"] == "1"
        assert r.delta == 0

    def test_closed_decile_overlap(self):
        # closed deciles double-count attained endpoints: 125, 250, 375, 500
        total = sum(
            frequency_test(P625, Fraction(k, 10), Fraction(k + 1, 10)).m
            for k in range(10)
        )
        assert total == 625 + 4 == 629

    def test_interval_with_no_representable_value(self):
        r = frequency_test(P625, Fraction(1, 1000), Fraction(1, 999))
        assert r.m == 0
        assert r.delta == Fraction(1, 999) - Fraction(1, 1000)

    def test_requires_max_period(self):
        with pytest.raises(PeriodViolation, match=r"^primes of 9 divide N but not a-1$"):
            frequency_test(LcgParams(3, 1, 9, 0), 0, 1)

    def test_closed_form_matches_orbit_walk(self):
        rng = random.Random(4)
        cases = 0
        for _ in range(150):
            params = _random_max_period(rng)
            N = params.N
            x = rng.randrange(N)
            intervals = [
                (Fraction(0), Fraction(1)),
                (Fraction(0), _random_endpoint(rng, N)),
                (_random_endpoint(rng, N), Fraction(1)),
                # strictly between two residues: no representable value
                (Fraction(3 * x + 1, 3 * N), Fraction(3 * x + 2, 3 * N)),
                tuple(sorted(_random_endpoint(rng, N) for _ in range(2))),
            ]
            for alpha, beta in intervals:
                if alpha >= beta:
                    continue
                assert frequency_test(params, alpha, beta).m == _walk_count(params, alpha, beta)
                cases += 1
        assert cases >= 500

    @pytest.mark.parametrize(
        "alpha,beta",
        [(Fraction(1, 2), Fraction(1, 2)), (-1, 1), (0, 2), (Fraction(3, 4), Fraction(1, 4))],
    )
    def test_rejects_bad_interval(self, alpha, beta):
        with pytest.raises(InvalidParams, match="need 0 <= alpha < beta <= 1"):
            frequency_test(P625, alpha, beta)

    def test_refuses_unprintable_endpoints_by_their_bit_lengths(self):
        # 10^5000 has more digits than Python converts to str by default
        big = 10**5000
        with pytest.raises(InvalidParams) as exc:
            frequency_test(LcgParams(5, 1, 16, 0), Fraction(big), big * 10)
        assert str(exc.value) == (
            f"need 0 <= alpha < beta <= 1, got <{big.bit_length()}-bit numerator / "
            f"1-bit denominator>, <{(big * 10).bit_length()}-bit numerator / 1-bit denominator>")
        with pytest.raises(InvalidParams, match=r"^need 0 <= alpha < beta <= 1, got "
                                                 r"1/2, -<16610-bit numerator / 1-bit denominator>$"):
            frequency_test(LcgParams(5, 1, 16, 0), Fraction(1, 2), -big)


def _random_max_period(rng):
    """LcgParams satisfying Hull-Dobell, read off an explicit prime list."""
    while True:
        N = rng.randrange(3, 3000)
        step = math.prod(factorize(N))
        if N % 4 == 0:
            step = math.lcm(step, 4)
        if step + 1 < N:
            break
    a = 1 + step * rng.randrange(1, (N - 2) // step + 1)
    c = rng.choice([c for c in range(1, min(N, 50)) if math.gcd(c, N) == 1])
    return LcgParams(a, c, N, rng.randrange(N))


def _random_endpoint(rng, N):
    # on a residue boundary, near one, or anywhere in [0, 1]
    return rng.choice([
        Fraction(rng.randrange(N + 1), N),
        Fraction(rng.randrange(N * 7 + 1), N * 7),
        Fraction(rng.randrange(10**6 + 1), 10**6),
    ])


def _max_period_from_primes(rng):
    """A maximum-period generator whose N is 2^i 5^j (x/N terminates) or has
    another prime too; a - 1 is a multiple of every prime of N, and of 4
    when 4 divides N."""
    primes = [2, 5] if rng.random() < 0.5 else rng.sample([2, 3, 5, 7, 11, 13, 10007], 2)
    exps = [rng.randrange(1, 12) for _ in primes]
    N = math.prod(p**e for p, e in zip(primes, exps))
    step = math.lcm(math.prod(primes), 4 if N % 4 == 0 else 1)
    if step + 1 >= N:
        return _max_period_from_primes(rng)
    a = 1 + step * rng.randrange(1, (N - 2) // step + 1)
    return LcgParams(a, 1, N, rng.randrange(N))


def _reference_endpoint(rng, N):
    # a residue boundary, a small rational, a double, or 1/pi rounded to 12 digits
    return rng.choice([
        Fraction(rng.randrange(N + 1), N),
        Fraction(rng.randrange(N + 1) * 3 + 1, 3 * N + 3),
        Fraction(rng.randrange(61), 60),
        Fraction(rng.random()),
        Fraction(round(Fraction(1 / math.pi) * 10**12), 10**12),
    ])


def _reference_decimal(value, digits):
    """A value >= 0 in decimal: truncate toward zero, trim zeros."""
    ip = math.floor(value)
    tail = str(math.floor((value - ip) * 10**digits)).zfill(digits).rstrip("0")
    return str(ip) + (f".{tail}" if tail else "")


def _walk_count(params, alpha, beta):
    """The frequency count by walking the whole period from x0."""
    a, c, N, x = params.a, params.c, params.N, params.x0
    # alpha <= x/N <= beta, cross-multiplied
    lo_num, lo_den = alpha.numerator * N, alpha.denominator
    hi_num, hi_den = beta.numerator * N, beta.denominator
    m = 0
    for _ in range(N):
        if lo_num <= x * lo_den and x * hi_den <= hi_num:
            m += 1
        x = (a * x + c) % N
    return m


class TestFrequencyReport:
    def test_row_and_labels(self):
        r = frequency_test(P625, Fraction(1, 5), Fraction(9, 10), alpha_label="1/5")
        row = cli._uniformity_row(r)
        assert row["alpha"] == "1/5"  # label wins over rendering
        assert row["beta"] == "0.9"
        assert row["m"] == "438"
        assert list(row) == ["alpha", "beta", "m", "m_over_N", "width", "delta"]

    def test_json_dict(self):
        # `uniformity` JSON writes the row as is and N once above the rows
        assert not hasattr(empirical.FrequencyReport, "to_json_dict")
        d = cli._uniformity_row(frequency_test(P625, 0, 1))
        assert d["m"] == "625" and "N" not in d
        assert d["delta"] == "0"
        assert frequency_test(P625, 0, 1)._fields == (
            "params", "alpha", "beta", "alpha_label", "beta_label", "m")

    def test_count_and_row_match_fraction_reference(self):
        rng = random.Random(12)
        cases = terminating = 0
        while cases < 1000:
            params = _max_period_from_primes(rng)
            N = params.N
            alpha, beta = sorted(_reference_endpoint(rng, N) for _ in range(2))
            if alpha == beta:
                continue
            digits = rng.choice([12, 12, rng.randrange(1, 25)])
            r = frequency_test(params, alpha, beta)
            m = max(0, min(math.floor(beta * N), N - 1) - math.ceil(alpha * N) + 1)
            assert r.m == m, (N, alpha, beta)
            width = beta - alpha
            assert r.delta == abs(Fraction(m, N) - width)
            want = {
                "alpha": _reference_decimal(alpha, digits),
                "beta": _reference_decimal(beta, digits),
                "m": str(m),
                "m_over_N": _reference_decimal(Fraction(m, N), digits),
                "width": _reference_decimal(width, digits),
                "delta": _reference_decimal(abs(Fraction(m, N) - width), digits),
            }
            # the row renders each ratio at 12 digits; other counts go
            # through the same renderer
            assert {field: cli._render_ratio(p, q, digits)
                    for field, (p, q) in r._ratios().items()} == want, (N, alpha, beta, digits)
            if digits == 12:
                assert cli._uniformity_row(r) == want, (N, alpha, beta)
            cases += 1
            terminating += 10**40 % N == 0
        assert 300 <= terminating <= 700

    def test_csv(self):
        # `uniformity --format csv` writes the row's keys, then its values
        r = frequency_test(
            P625,
            Fraction(0.580815),
            Fraction(0.850411),
            alpha_label="0.580815",
            beta_label="0.850411",
        )
        row = cli._uniformity_row(r)
        assert ",".join(row) == "alpha,beta,m,m_over_N,width,delta"
        assert ",".join(row.values()) == "0.580815,0.850411,168,0.2688,0.269596,0.000796"


class TestDumpSequence:
    def test_csv_prefix(self):
        buf = io.StringIO()
        dump_sequence(P625, buf, count=5)
        assert buf.getvalue() == (
            "n,x,u\n"
            "1,1,0.0016\n"
            "2,27,0.0432\n"
            "3,78,0.1248\n"
            "4,154,0.2464\n"
            "5,255,0.408\n"
        )

    def test_full_period_ends_at_zero(self):
        buf = io.StringIO()
        dump_sequence(P625, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 626
        assert lines[0] == "n,x,u"
        assert lines[1] == "1,1,0.0016"
        assert lines[-1] == "625,0,0"
        xs = [int(line.split(",")[1]) for line in lines[1:]]
        assert sorted(xs) == list(range(625))  # visits every residue
        assert xs[-2:] == [24, 0]

    def test_table_format(self):
        buf = io.StringIO()
        dump_sequence(P625, buf, fmt="table", count=5, per_line=3)
        assert buf.getvalue() == "0.0016; 0.0432; 0.1248\n0.2464; 0.408\n"

    def test_digits_override_truncates(self):
        buf = io.StringIO()
        dump_sequence(P625, buf, fmt="table", count=5, per_line=3, digits=3)
        assert buf.getvalue() == "0.001; 0.043; 0.124\n0.246; 0.408\n"

    def test_count_zero(self):
        buf = io.StringIO()
        dump_sequence(P625, buf, count=0)
        assert buf.getvalue() == "n,x,u\n"

    def test_partial_dump_skips_period_check(self):
        buf = io.StringIO()
        dump_sequence(LcgParams(3, 1, 9, 0), buf, count=2)
        assert buf.getvalue() == "n,x,u\n1,1,0.11\n2,4,0.44\n"

    def test_full_dump_requires_max_period(self):
        with pytest.raises(PeriodViolation):
            dump_sequence(LcgParams(3, 1, 9, 0), io.StringIO())
        # period 6 < 15: 0, 1, 5, 6, 10, 11, then back to 0
        with pytest.raises(PeriodViolation, match=r"^primes of 5 divide N but not a-1$"):
            dump_sequence(LcgParams(4, 1, 15, 0), io.StringIO())

    def test_rejects(self):
        with pytest.raises(InvalidParams):
            dump_sequence(P625, io.StringIO(), count=626)
        with pytest.raises(InvalidParams):
            dump_sequence(P625, io.StringIO(), count=-1)
        with pytest.raises(InvalidParams):
            dump_sequence(P625, io.StringIO(), fmt="yaml")
        with pytest.raises(BudgetExceeded):
            dump_sequence(P625, io.StringIO(), count=5, budget=3)

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("kwargs", [{"digits": 0}, {"digits": -2},
                                        {"per_line": 0}, {"per_line": -3}])
    def test_rejects_before_writing(self, fmt, kwargs):
        buf = io.StringIO()
        with pytest.raises(InvalidParams, match="must be >= 1"):
            dump_sequence(P625, buf, fmt=fmt, count=5, **kwargs)
        assert buf.getvalue() == ""


def naive_dump(params, fmt="csv", count=None, digits=None, per_line=10):
    """The dump stepped one term at a time, each Fraction(x, N) truncated to
    `digits` digits: the reference for the chunked, jump-ahead dump."""
    a, c, N, x = params
    count = N if count is None else count
    d = default_digits(N) if digits is None else digits
    us, lines = [], ["n,x,u"]
    for n in range(1, count + 1):
        x = (a * x + c) % N
        q = math.floor(Fraction(x, N) * 10**d)
        frac = str(q).zfill(d).rstrip("0")
        us.append("0." + frac if frac else "0")
        lines.append(f"{n},{x},{us[-1]}")
    if fmt == "table":
        lines = ["; ".join(us[i:i + per_line]) for i in range(0, count, per_line)]
    return "".join(line + "\n" for line in lines)


def assert_same_text(got, want, case):
    """got == want, reported by the first line that differs (a plain assert
    would diff whole dumps)."""
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, pair in enumerate(zip(g, w)) if pair[0] != pair[1]),
                 min(len(g), len(w)))
        pytest.fail(f"{case}: line {i + 1} is {g[i:i + 1]}, want {w[i:i + 1]} "
                    f"({len(g)} lines, want {len(w)})")


def chunk_terms(fmt, per_line):
    """Terms per chunk of a dump: _CHUNK, cut to whole table rows."""
    return _CHUNK if fmt == "csv" else max(1, _CHUNK // per_line) * per_line


class TestDumpMatchesNaiveStepping:
    """Every chunk after the first is jumped ahead from the one before; the
    output must equal stepping one term at a time, at every chunk edge."""

    GENERATORS = [
        LcgParams(5, 1, 2**13, 0),  # maximum period, exact digits
        LcgParams(4, 7, 3**8, 5),  # maximum period, digits that never end
        LcgParams(7, 1, 2000, 0),  # period 20: x = 0 recurs inside a chunk
    ]

    @pytest.mark.parametrize("params", GENERATORS, ids=["2^13", "3^8", "short-period"])
    @pytest.mark.parametrize("fmt, per_line", [("csv", 10), ("table", 10), ("table", 7),
                                               ("table", 3), ("table", 600), ("table", 1000)])
    def test_counts_around_chunk_edges(self, params, fmt, per_line):
        L = chunk_terms(fmt, per_line)
        counts = {0, 1, L - 1, L, L + 1, 2 * L + 1, 3 * L + per_line // 2}
        if params.N > 2000:  # a short period forbids the whole-period dump
            counts.add(params.N)
        for count in sorted(k for k in counts if k <= params.N):
            buf = io.StringIO()
            dump_sequence(params, buf, fmt=fmt, count=count, per_line=per_line)
            assert_same_text(buf.getvalue(), naive_dump(params, fmt, count, per_line=per_line),
                             f"count {count}")

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_one_digit_renders_many_zeros(self, fmt):
        # at one digit every x < N/10 renders as "0", so most table rows mix
        # "0" with "0.d" values
        params = self.GENERATORS[0]
        buf = io.StringIO()
        dump_sequence(params, buf, fmt=fmt, digits=1, per_line=7)
        text = buf.getvalue()
        assert_same_text(text, naive_dump(params, fmt, digits=1, per_line=7), "full period")
        assert text.count(",0\n" if fmt == "csv" else "; 0;") > 100

    def test_random_generators(self):
        rng = random.Random(24)
        for _ in range(40):
            N = rng.randrange(3, 3000)
            a, c = rng.randrange(2, N), rng.randrange(1, N)
            if math.gcd(c, N) != 1:
                continue
            params = LcgParams(a, c, N, rng.randrange(N))
            fmt, per_line = rng.choice(["csv", "table"]), rng.choice([1, 7, 513])
            count = rng.randrange(N)  # partial: no period check
            digits = rng.choice([None, 1, 3, 25])
            buf = io.StringIO()
            dump_sequence(params, buf, fmt=fmt, count=count, digits=digits,
                          per_line=per_line)
            assert_same_text(buf.getvalue(), naive_dump(params, fmt, count, digits, per_line),
                             f"{params} {fmt} count {count} digits {digits} per_line {per_line}")


class CountingWriter:
    """A stream that keeps only how many writes it took."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return len(text)


def assert_writes_each_line_once_in_bounded_memory(fmt, per_line):
    # one write per CSV line (and the header) or table row, and memory held
    # to a chunk: the whole period as a list would take several MiB
    params = LcgParams(5, 1, 2**16, 0)
    sink = CountingWriter()
    tracemalloc.start()
    try:
        dump_sequence(params, sink, fmt=fmt, per_line=per_line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = params.N
    assert sink.writes == (N + 1 if fmt == "csv" else -(-N // per_line))
    assert peak < 1024 * 1024


@pytest.mark.parametrize("fmt, per_line", [("csv", 10), ("table", 10), ("table", 600)])
def test_full_dump_writes_each_line_once_in_bounded_memory(fmt, per_line):
    assert_writes_each_line_once_in_bounded_memory(fmt, per_line)


def test_per_line_is_capped_so_a_row_stays_small():
    # a table row wider than a chunk is held whole: 2^18 values in one row
    # peaked at 53.7 MiB, so per_line is refused above the cap
    cap = empirical._MAX_PER_LINE
    buf = io.StringIO()
    with pytest.raises(InvalidParams, match=f"^per_line must be <= {cap}, got {cap + 1}$"):
        dump_sequence(P625, buf, fmt="table", count=5, per_line=cap + 1)
    assert buf.getvalue() == ""
    sink = CountingWriter()
    tracemalloc.start()
    try:
        dump_sequence(LcgParams(5, 1, 2**40, 0), sink, fmt="table", count=4 * cap,
                      digits=12, per_line=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.writes == 4
    assert peak < 1.5 * 1024 * 1024


class TestDigitLimit:
    """A digit count, given or the default, is refused above Python's
    int-to-str limit (4300 when there is none) before anything is written."""

    LIMIT = sys.get_int_max_str_digits()  # 4300 unless the interpreter was told otherwise

    @pytest.mark.parametrize("digits", [LIMIT + 1, 5000, 99999999999999999999])
    def test_given_digits_above_the_limit(self, digits):
        buf = io.StringIO()
        with pytest.raises(InvalidParams, match=f"^digits must be <= {self.LIMIT}, got {digits}$"):
            dump_sequence(LcgParams(5, 1, 16, 0), buf, count=2, digits=digits)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("N", [2**9999, 3 * 10**(LIMIT - 1) + 1, 3**9100],
                             ids=["terminating", "non-terminating", "above-10^limit"])
    def test_default_digits_above_the_limit(self, N):
        buf = io.StringIO()
        with pytest.raises(InvalidParams, match="^the default digit count for this N exceeds "
                                                f"{self.LIMIT}; give digits <= {self.LIMIT}$"):
            dump_sequence(LcgParams(5, 1, N, 0), buf, count=1)
        assert buf.getvalue() == ""

    def test_digits_at_the_limit(self):
        params = LcgParams(5, 1, 2**self.LIMIT, 0)  # default: exactly LIMIT digits
        buf = io.StringIO()
        dump_sequence(params, buf, count=2)
        assert buf.getvalue() == naive_dump(params, count=2)

    def test_limit_follows_the_interpreter(self):
        params = LcgParams(5, 1, 16, 0)
        try:
            sys.set_int_max_str_digits(0)  # no limit: refused above 4300
            with pytest.raises(InvalidParams, match="^digits must be <= 4300, got 4301$"):
                dump_sequence(params, io.StringIO(), count=2, digits=4301)
            sys.set_int_max_str_digits(6000)
            buf = io.StringIO()
            dump_sequence(params, buf, count=2, digits=5000)
            assert buf.getvalue() == naive_dump(params, count=2, digits=5000)
        finally:
            sys.set_int_max_str_digits(self.LIMIT)


@pytest.fixture
def workers(monkeypatch):
    """Every dump of a term or more starts a worker, as if a second CPU were
    usable; the list of the workers started."""
    monkeypatch.setattr(empirical, "_WORKER_MIN_TERMS", 1)
    monkeypatch.setattr(empirical, "_usable_cpus", lambda: 2)
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


@pytest.fixture
def renders(monkeypatch):
    """How many chunks this process renders (the worker's are its own)."""
    calls = []
    render = _chunks.render

    def counted(*args):
        calls.append(args[0])
        return render(*args)

    monkeypatch.setattr(_chunks, "render", counted)
    return calls


class TestDumpWorker:
    """A long dump shares its chunks with a worker interpreter: this process
    renders the even-numbered ones, the worker the odd-numbered ones, and the
    output equals stepping one term at a time whatever the worker does."""

    GENERATORS = TestDumpMatchesNaiveStepping.GENERATORS[:2]

    @pytest.mark.parametrize("params", GENERATORS, ids=["2^13", "3^8"])
    @pytest.mark.parametrize("fmt, per_line", [("csv", 10), ("table", 7)])
    @pytest.mark.parametrize("chunks, extra", [(4, 0), (5, 0), (4, 7), (3, 7), (None, 0)],
                             ids=["even", "odd", "partial-last-here", "partial-last-in-worker",
                                  "full-period"])
    def test_output_equals_naive_stepping(self, workers, renders, params, fmt, per_line,
                                          chunks, extra):
        L = chunk_terms(fmt, per_line)
        count = params.N if chunks is None else chunks * L + extra
        buf = io.StringIO()
        dump_sequence(params, buf, fmt=fmt, count=count, per_line=per_line)
        assert_same_text(buf.getvalue(), naive_dump(params, fmt, count, per_line=per_line),
                         f"count {count}")
        assert [w.returncode for w in workers] == [0]
        total = -(-count // L)
        assert len(renders) == -(-total // 2)  # the even-numbered chunks only

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_one_digit(self, workers, fmt):
        params = self.GENERATORS[1]
        buf = io.StringIO()
        dump_sequence(params, buf, fmt=fmt, digits=1, per_line=7)
        assert_same_text(buf.getvalue(), naive_dump(params, fmt, digits=1, per_line=7),
                         "full period")
        assert [w.returncode for w in workers] == [0]

    @pytest.mark.parametrize("fmt, per_line", [("csv", 10), ("table", 10), ("table", 600)])
    def test_writes_each_line_once_in_bounded_memory(self, workers, fmt, per_line):
        assert_writes_each_line_once_in_bounded_memory(fmt, per_line)
        assert [w.returncode for w in workers] == [0]

    def test_short_dumps_and_one_cpu_start_none(self, workers, monkeypatch):
        params = self.GENERATORS[0]
        monkeypatch.setattr(empirical, "_WORKER_MIN_TERMS", 1001)
        dump_sequence(params, io.StringIO(), count=1000)
        monkeypatch.setattr(empirical, "_usable_cpus", lambda: 1)
        dump_sequence(params, io.StringIO())
        assert workers == []

    def check_falls_back(self, renders, fmt="csv", per_line=10):
        params = self.GENERATORS[0]
        buf = io.StringIO()
        dump_sequence(params, buf, fmt=fmt, per_line=per_line)
        assert_same_text(buf.getvalue(), naive_dump(params, fmt, per_line=per_line),
                         "full period")
        assert len(renders) == -(-params.N // chunk_terms(fmt, per_line))  # every chunk

    @pytest.mark.skipif(shutil.which("false") is None, reason="no false(1)")
    def test_worker_that_exits_at_once(self, workers, renders, monkeypatch):
        monkeypatch.setattr(sys, "executable", shutil.which("false"))
        self.check_falls_back(renders)
        assert [w.returncode for w in workers] == [1]

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_worker_that_sends_a_short_block(self, workers, renders, monkeypatch, tmp_path,
                                             fmt):
        script = tmp_path / "short.py"
        script.write_text("import sys\n"
                          "sys.stdout.buffer.write((100).to_bytes(8, 'little') + b'1,1,0\\n')\n")
        monkeypatch.setattr(_chunks, "__file__", str(script))
        self.check_falls_back(renders, fmt)
        assert [w.returncode for w in workers] == [0]

    def test_worker_that_cannot_start(self, workers, renders, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        self.check_falls_back(renders)

    @pytest.mark.parametrize("k", [0, 3 * _CHUNK])
    def test_broken_pipe_reaps_the_worker(self, workers, k):
        class BreakingWriter:
            """A stream whose write k+1 fails, as a pipe whose reader left."""

            def __init__(self):
                self.left, self.broke_at = k, None

            def write(self, text):
                if not self.left:
                    self.broke_at = time.monotonic()
                    raise BrokenPipeError(32, "Broken pipe")
                self.left -= 1
                return len(text)

        sink = BreakingWriter()
        with pytest.raises(BrokenPipeError):
            dump_sequence(LcgParams(5, 1, 2**16, 0), sink)
        assert time.monotonic() - sink.broke_at < 1.0
        assert len(workers) == 1 and workers[0].returncode is not None
