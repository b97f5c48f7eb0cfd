"""Tests for the frequency test and sequence dumps."""

import io
import math
import random
from fractions import Fraction

import pytest

from lcgspec import (
    BudgetExceeded,
    InvalidParams,
    LcgParams,
    PeriodViolation,
)
from lcgspec.empirical import (
    csv_header,
    csv_row,
    dump_sequence,
    format_fraction,
    frequency_test,
)
from lcgspec.numtheory import factorize

P625 = LcgParams(26, 1, 625, 0)


class TestFormatFraction:
    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (Fraction(1, 3), 12, "0.333333333333"),
            (Fraction(7, 10), 12, "0.7"),
            (Fraction(0), 12, "0"),
            (Fraction(5), 12, "5"),
            (Fraction(-1, 4), 12, "-0.25"),
            (Fraction(1, 3), 4, "0.3333"),
            (Fraction(2, 3), 3, "0.666"),  # truncated, not rounded
            (Fraction(168, 625), 12, "0.2688"),
            (3, 12, "3"),
        ],
    )
    def test_rendering(self, value, digits, expected):
        assert format_fraction(value, digits) == expected


class TestFrequencyTest:
    def test_decimal_endpoints(self):
        r = frequency_test(P625, Fraction(0.580815), Fraction(0.850411))
        assert r.m == 168
        assert r.frequency == Fraction(168, 625)
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
        assert r.width == 1
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
        assert r.delta == r.width

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
        row = r.row()
        assert row["alpha"] == "1/5"  # label wins over rendering
        assert row["beta"] == "0.9"
        assert row["m"] == "438"
        assert set(row) == {"alpha", "beta", "m", "m_over_N", "width", "delta"}

    def test_json_dict(self):
        d = frequency_test(P625, 0, 1).to_json_dict()
        assert d["m"] == "625" and d["N"] == "625"
        assert d["delta"] == "0"

    def test_csv(self):
        assert csv_header() == "alpha,beta,m,m_over_N,width,delta"
        r = frequency_test(
            P625,
            Fraction(0.580815),
            Fraction(0.850411),
            alpha_label="0.580815",
            beta_label="0.850411",
        )
        assert csv_row(r) == "0.580815,0.850411,168,0.2688,0.269596,0.000796"


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
