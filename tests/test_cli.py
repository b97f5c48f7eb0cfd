"""End-to-end tests of the command line interface.

Everything goes through `main(argv, out)` so exit codes and stdout are
captured in-process; stderr diagnostics are checked via capsys.
"""

import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import ROUND_HALF_UP, Decimal, localcontext
from pathlib import Path

import pytest

import lcgspec
from lcgspec.cli import build_parser, main

def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def _boom(*args, **kwargs):
    raise AssertionError("called after a refusal")


class TestAnalyze:
    def test_text(self):
        code, out = run(["analyze", "--a", "26", "--N", "625", "--s", "2"])
        assert code == 0
        assert "a = 26, N = 625" in out
        assert "tau = 2, lambda = 1" in out
        assert "577" in out

    def test_csv(self):
        code, out = run(["analyze", "--a", "26", "--N", "625", "--s", "2..3",
                         "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "s,v_sq,lg_v,mu,regime,tau,lambda,theorem,lower_sq,upper_sq,"
            "knuth_bound,checks"
        )
        assert lines[1].startswith("2,577,")
        assert lines[2].startswith("3,6,")

    def test_json(self):
        code, out = run(["analyze", "--a", "26", "--N", "625", "--s", "2..3",
                         "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["a"] == "26" and d["N"] == "625"
        assert [r["s"] for r in d["results"]] == [2, 3]
        assert d["results"][0]["v_sq"] == "577"
        assert d["results"][0]["bounds"]["theorem"] == 1

    @pytest.mark.parametrize("a, N, tau, lam", [("26", "625", 2, "1"),
                                                ("23", "10^8+1", None, None)],
                             ids=["profile", "no-profile"])
    def test_json_states_each_fact_once(self, a, N, tau, lam):
        code, out = run(["analyze", "--a", a, "--N", N, "--s", "2..3", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert sorted(d) == ["N", "a", "lambda", "results", "tau"]
        assert (d["tau"], d["lambda"]) == (tau, lam)
        for r in d["results"]:
            assert sorted(r) == ["bounds", "lg_v", "mu", "regime", "s", "v_sq", "vector"]

    def test_json_names_a_long_modulus_once(self):
        code, out = run(["analyze", "--a", "5", "--N", "2^4000", "--s", "2..12",
                         "--format", "json"])
        assert code == 0
        assert out.count(str(2**4000)) == 1
        assert len(json.loads(out)["results"]) == 11

    def test_expressions(self):
        code, out = run(["analyze", "--a", "69069", "--N", "2^32", "--s", "3",
                         "--format", "json"])
        assert code == 0
        assert json.loads(out)["results"][0]["v_sq"] == "2072544"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_values_beyond_float_range(self, fmt):
        # v_2 = sqrt(1 + (a-2)^2) ~ 2^1030 has no float; the exact fields
        # stay, and so does the packing cap (4/3)^(1/4) * 2^1030
        a = 2**1030 + 1
        code, out = run(["analyze", "--a", "2^1030+1", "--N", "2^2060", "--s", "2",
                         "--format", fmt])
        assert code == 0
        v_sq = str(1 + (a - 2) ** 2)
        with localcontext() as ctx:
            ctx.prec = 400
            cap = ((Decimal(4) / 3).sqrt().sqrt() * 2**1030).quantize(
                Decimal("0.0001"), rounding=ROUND_HALF_UP)
        if fmt == "json":
            r = json.loads(out)["results"][0]
            assert r["v_sq"] == v_sq and "v" not in r
            assert r["bounds"]["lower"] is None and r["bounds"]["upper"] is None
            assert r["bounds"]["lower_exact_sq"] == v_sq
        elif fmt == "csv":
            row = out.splitlines()[1].split(",")
            assert row[1] == v_sq and row[10] == f"{cap:f}"
        else:
            assert f"2  {v_sq}  " in out
            assert out.splitlines()[-1].split()[-4:] == [f"{cap:f}", "lower", "upper", "B"]

    def test_json_rational_bound_is_exact(self):
        # theorem 3 at a = 13, N = 16: the lower bound 122/81 is stated exactly
        code, out = run(["analyze", "--a", "13", "--N", "16", "--s", "2", "--format", "json"])
        assert code == 0
        b = json.loads(out)["results"][0]["bounds"]
        assert b["theorem"] == 3
        assert (b["lower_exact_sq"], b["upper_exact_sq"]) == ("122/81", None)
        assert b["lower"] == pytest.approx(math.sqrt(122 / 81), rel=1e-15)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_build_beyond_float_range(self, fmt):
        code, out = run(["build", "--s", "2", "--a", "2^1030+1", "--validate", "2",
                         "--format", fmt])
        assert code == 0
        assert str(1 + (2**1030 - 1) ** 2) in out

    def test_no_potential_text(self):
        code, out = run(["analyze", "--a", "23", "--N", "10^8+1", "--s", "2"])
        assert code == 0
        assert "tau undefined (no potential)" in out
        assert "530" in out

    def test_rejects_a_not_below_n(self, capsys):
        code, _ = run(["analyze", "--a", "700", "--N", "625"])
        assert code == 2
        assert "need 2 <= a < N" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, err", [
        (["--c", "2"], "gcd(c, N) = 2 != 1"),
        (["--x0", "16"], "need 0 <= x0 < N, got x0=16"),
    ], ids=["c", "x0"])
    def test_rejects_bad_increment_or_seed(self, monkeypatch, capsys, flags, err):
        # refused like `uniformity` and `dump` refuse them, before any solver work
        from lcgspec import cli

        monkeypatch.setattr(cli, "spectral_profile", _boom)
        assert run(["analyze", "--a", "5", "--N", "16"] + flags) == (2, "")
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_require_max_period(self, capsys):
        code, _ = run(["analyze", "--a", "3", "--N", "9", "--require-max-period"])
        assert code == 3
        assert capsys.readouterr().err == "error: primes of 9 divide N but not a-1\n"

    def test_bad_expression(self):
        code, _ = run(["analyze", "--a", "2^^5", "--N", "625"])
        assert code == 2

    @pytest.mark.parametrize("a, N, message", [
        ("(2^5000)^2+1", "((2^5000)^2)^2", "expression result has more than 4300 digits"),
        ("5", "7" * 5000, "integer literal has more than 4300 digits"),
        ("5", "2^10000*2^10000", "expression result has more than 4300 digits"),
    ], ids=["power", "literal", "product"])
    def test_integers_too_long_to_print(self, capsys, a, N, message):
        code, out = run(["analyze", "--a", a, "--N", N, "--s", "2"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("a, N, tau", [("12*(2^197+1)+1", "3*2^200", 100),
                                           ("4*(2^3997+1)+1", "2^4000", 2000)])
    def test_cofactor_too_long_to_print(self, capsys, fmt, a, N, tau):
        # maximum-period pairs whose lambda = (a-1)^tau/N has more digits
        # than Python prints, refused before (a-1)^tau is formed
        start = time.perf_counter()
        code, out = run(["analyze", "--a", a, "--N", N, "--s", "2", "--require-max-period",
                         "--format", fmt])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: lambda = (a-1)^{tau}/N has more than 4300 digits\n")

    def test_integer_work_over_budget(self, capsys):
        # twenty differences of products of coprime 1.9M-bit powers: once 24-29 s
        N = "+".join(["((3^1000)^1200*(5^1000)^800-(3^1000)^1200*(5^1000)^800)"] * 20)
        start = time.perf_counter()
        code, out = run(["analyze", "--a", "5", "--N", N])
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert capsys.readouterr().err == (
            f"error: integer arithmetic in {N!r} exceeds its work budget\n")

    def test_long_flag_is_quoted_by_a_prefix(self, capsys):
        # a 110 KB flag of 5,000 3M-bit powers of two: once 56 s, then a
        # 110 KB `error:` line quoting the whole flag
        N = "+".join(["(((2^100)^100)^100)^3"] * 5000)
        start = time.perf_counter()
        code, out = run(["analyze", "--a", "5", "--N", N])
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        err = capsys.readouterr().err
        assert err == (f"error: integer arithmetic in {N[:2000]!r}... (109999 characters) "
                       "exceeds its work budget\n")
        assert len(err.encode()) < 2500

    def test_integer_at_the_print_limit(self):
        N = "9" * 4300
        code, out = run(["analyze", "--a", "5", "--N", N, "--s", "2"])
        assert code == 0
        assert out.startswith(f"a = 5, N = {N}\n")

    def test_enum_cap(self, capsys):
        code, _ = run(["analyze", "--a", "69069", "--N", "2^32", "--s", "6",
                       "--enum-cap", "2"])
        assert code == 4
        assert "exceeds enumeration cap" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, cap, first, limit", [
        (["--s", "2..14"], None, 13, 12),
        (["--enum-cap", "12", "--s", "11..13"], None, 13, 12),
        (["--s", "2..8"], "5", 6, 5),
        (["--s", "2..3", "--enum-cap", "1"], None, 2, 1),
    ])
    def test_range_over_cap_refused_before_any_solver_work(
            self, monkeypatch, capsys, flags, cap, first, limit):
        from lcgspec import lattice

        def boom(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(lattice, "lll_reduce", boom)
        if cap is not None:
            flags = ["--enum-cap", cap] + flags
        code, out = run(["analyze", "--a", "69069", "--N", "2^32"] + flags)
        assert (code, out) == (4, "")
        assert capsys.readouterr().err == (
            f"error: dimension {first} exceeds enumeration cap {limit}\n"
        )

    def test_violated_marks(self, monkeypatch):
        # forged bounds: at a = 26, s = 3 (v^2 = 6) misses both theorem
        # bounds; at a = 13, N = 16 theorem 3's estimate without its lambda^2,
        # 1 + (a-2)^2 = 122, sits above v_2^2 = 10
        from lcgspec import spectral

        real = spectral.theorem_bounds

        def theorem_bounds(a, profile, s):
            tb = real(a, profile, s)
            if tb.theorem_id == 3:
                return tb._replace(lower_sq=1 + (a - 2) ** 2)
            if (a, s) == (26, 3):
                return tb._replace(lower_sq=7, upper_sq=5)
            return tb

        monkeypatch.setattr(spectral, "theorem_bounds", theorem_bounds)
        forged = ["analyze", "--a", "26", "--N", "625", "--s", "2..4"]
        mutant = ["analyze", "--a", "13", "--N", "16", "--s", "2..4"]
        for argv, text, csv in [
            (forged, ["lower upper B", "lower VIOLATED upper VIOLATED B", "upper B"],
             ["lower;upper;B", "lower VIOLATED;upper VIOLATED;B", "upper;B"]),
            (mutant, ["lower VIOLATED B", "upper B", "upper B"],
             ["lower VIOLATED;B", "upper;B", "upper;B"]),
        ]:
            code, out = run(argv)
            assert code == 0
            assert [row.rsplit("  ", 1)[-1] for row in out.splitlines()[3:6]] == text
            code, out = run(argv + ["--format", "csv"])
            assert code == 0
            assert [line.split(",")[-1] for line in out.splitlines()[1:]] == csv
        # the JSON bounds are rendered from the forged squares, roots and
        # mu window included
        for argv, N, squares in [(forged, 625, [(577, 577), (7, 5)]), (mutant, 16, [(122, None)])]:
            code, out = run(argv + ["--format", "json"])
            assert code == 0
            got = [r["bounds"] for r in json.loads(out)["results"]]
            for s, (lo, hi) in enumerate(squares, start=2):
                b = got[s - 2]
                assert b["lower_exact_sq"] == str(lo), s
                assert b["lower"] == pytest.approx(math.sqrt(lo)), s
                assert b["mu_lower"] == spectral.merit(s, lo, N), s
                if hi is not None:
                    assert b["upper_exact_sq"] == str(hi), s
                    assert b["upper"] == pytest.approx(math.sqrt(hi)), s
                    assert b["mu_upper"] == spectral.merit(s, hi, N), s
            assert not any("lower_unverified" in b for b in got)


class TestBuild:
    def test_text(self):
        code, out = run(["build", "--s", "2", "--a", "26"])
        assert code == 0
        assert "X_(n+1) = (26 * X_n + 1) mod 625" in out
        assert "v_2^2 = 577 (theorem 1)" in out

    def test_json(self):
        code, out = run(["build", "--s", "2", "--a", "26", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["N"] == "625"
        assert d["uniform_lower_sq"] == "577"
        assert d["certificate"][0]["statement"] == "v_2^2 = 577 (theorem 1)"

    def test_validate(self):
        code, out = run(["build", "--s", "2", "--a", "26", "--validate", "3"])
        assert code == 0
        assert "validation up to s = 3: ok" in out
        assert "v_2 within the dimension-2 packing bound: ok" in out

    def test_shaped_recipe(self):
        code, out = run(["build", "--s", "5", "--primes", "2:7", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["a"] == "129" and d["N"] == str(2**35)
        assert d["uniform_lower_sq"] == "14161"

    def test_range_mode(self):
        code, out = run(["build", "--tau", "6", "--a", "69069", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["N"] == str(69068**6)
        assert d["uniform_lower_sq"] == "4767764401"
        code, out = run(["build", "--tau", "2", "--l", "1", "--lambda", "2", "--a", "5",
                         "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert (d["N"], d["tau"], d["lambda"]) == ("32", 3, "2")

    def test_modulus_beyond_factoring(self):
        # N = (p*q)^2 with primes p, q ~ 2^55: decided by gcds, not factoring
        a = 1298074214633707411535782347800610
        code, out = run(["build", "--s", "2", "--a", str(a), "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert (d["N"], d["tau"], d["lambda"]) == (str((a - 1) ** 2), 2, "1")

    def test_too_small(self, capsys):
        code, _ = run(["build", "--s", "2", "--a", "3"])
        assert code == 2
        assert "below the theorem threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_modulus_too_long_to_print(self, capsys, fmt):
        # a = 10^3000 parses, but N = (a-1)^2 has 6000 digits
        code, out = run(["build", "--s", "2", "--a", "10^3000", "--format", fmt])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: modulus N = (a-1)^2/lambda has more than 4300 digits\n")
        code, out = run(["build", "--s", "2", "--a", "10^2000", "--format", fmt])
        assert code == 0 and str((10**2000 - 1) ** 2) in out

    @pytest.mark.parametrize("flags, t", [(["--tau", "10000"], 10000), (["--tau", "4000"], 4000),
                                          (["--tau", "2", "--l", "2000"], 2002)])
    def test_modulus_refused_before_its_power(self, capsys, flags, t):
        start = time.perf_counter()
        code, out = run(["build", "--a", "10^4000+1"] + flags)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: modulus N = (a-1)^{t}/lambda has more than 4300 digits\n")

    def test_s_and_tau_are_exclusive(self):
        code, _ = run(["build", "--s", "2", "--tau", "3", "--a", "26"])
        assert code == 2
        code, _ = run(["build", "--a", "26"])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--a", "26", "--d", "3"],
                                       ["--a", "69069", "--primes", "2:7"]],
                             ids=["a-and-d", "a-and-primes"])
    def test_explicit_a_takes_no_shape(self, monkeypatch, capsys, flags):
        from lcgspec import cli

        monkeypatch.setattr(cli, "build_range", _boom)
        assert run(["build", "--tau", "3"] + flags) == (2, "")
        assert capsys.readouterr().err == (
            "error: an explicit a takes no shape: d, primes or exponents\n")

    def test_a_multiplier_is_required(self, monkeypatch, capsys):
        from lcgspec import cli

        monkeypatch.setattr(cli, "build_range", _boom)
        assert run(["build", "--tau", "2"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: a multiplier is required: --a or --primes [--d]\n")

    def test_validate_fails_a_forged_certificate(self, monkeypatch, capsys):
        # the certificate claims v_2^2 >= 578 at a = 26, where the solver
        # proves 577: the lower check fails and the build exits 1
        from lcgspec import builder

        real = builder.theorem_bounds
        monkeypatch.setattr(builder, "theorem_bounds",
                            lambda a, profile, s: real(a, profile, s)._replace(lower_sq=578))
        code, out = run(["build", "--s", "2", "--a", "26", "--validate", "3"])
        assert code == 1
        lines = out.splitlines()
        assert "validation up to s = 3: FAILED" in lines
        assert "    v_2^2 >= 578 (theorem 1): FAILED" in lines
        assert capsys.readouterr().err == ""

    def test_s_is_tau(self, capsys):
        # `--s S` is another spelling of `--tau S`: the same stdout, stderr
        # and exit code for every request but S < 2, whose message names tau
        rng = random.Random(31)
        recipes = [["--a", "26"], ["--a", "69069"], ["--a", "3"], ["--a", "2^32+1"],
                   ["--primes", "2:7"], ["--primes", "2:2"], ["--primes", "2:3,5:1", "--d", "3"],
                   ["--primes", "3", "--d", "2"]]
        for _ in range(60):
            s = rng.choice(["2", "3", "4", "6", "10001"])
            rest = (rng.choice(recipes)
                    + (["--l", rng.choice(["1", "2", "-1"])] if rng.random() < 0.3 else [])
                    + (["--lambda", rng.choice(["2", "4", "0"])] if rng.random() < 0.3 else [])
                    + (["--min-accuracy", rng.choice(["0", "100", "10^6"])]
                       if rng.random() < 0.3 else [])
                    + (["--validate", rng.choice(["2", "4"])] if rng.random() < 0.3 else [])
                    + ["--format", rng.choice(["text", "json"])])
            answers = []
            for flag in ("--s", "--tau"):
                code, out = run(["build", flag, s] + rest)
                answers.append((code, out, capsys.readouterr().err))
            assert answers[0] == answers[1], rest
        for flag in ("--s", "--tau"):
            assert run(["build", flag, "1", "--a", "26"]) == (2, "")
            assert capsys.readouterr().err == "error: need tau >= 2, got 1\n"


class TestUniformity:
    GOLDEN = [
        "alpha,beta,m,m_over_N,width,delta",
        "0.580815,0.850411,168,0.2688,0.269596,0.000796",
        "1/pi^2,1-1/e,332,0.5312,0.530799375187,0.000400624813",
        "0.2,0.9,437,0.6992,0.7,0.0008",
    ]

    def test_csv_intervals(self):
        code, out = run([
            "uniformity", "--a", "26", "--N", "625",
            "--interval", "0.580815:0.850411",
            "--interval", "1/pi^2:1-1/e",
            "--interval", "0.2:0.9",
            "--format", "csv",
        ])
        assert code == 0
        assert out.splitlines() == self.GOLDEN

    def test_intervals_file(self, tmp_path):
        f = tmp_path / "intervals.txt"
        f.write_text(
            "# per-interval frequency checks\n"
            "0.580815:0.850411\n"
            "\n"
            "1/pi^2:1-1/e\n"
            "0.2:0.9\n"
        )
        code, out = run(["uniformity", "--a", "26", "--N", "625",
                         "--intervals-file", str(f), "--format", "csv"])
        assert code == 0
        assert out.splitlines() == self.GOLDEN

    def test_intervals_file_with_bom_and_crlf(self, tmp_path):
        # as a Windows editor saves it: a UTF-8 byte-order mark, then CRLF line ends
        text = "0.580815:0.850411\n1/pi^2:1-1/e\n0.2:0.9\n"
        plain, windows = tmp_path / "plain.txt", tmp_path / "windows.txt"
        plain.write_bytes(text.encode())
        windows.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        outputs = [run(["uniformity", "--a", "26", "--N", "625", "--intervals-file", str(f),
                        "--format", "csv"]) for f in (plain, windows)]
        assert outputs[0] == outputs[1] == (0, "\n".join(self.GOLDEN) + "\n")

    def test_json(self):
        code, out = run(["uniformity", "--a", "26", "--N", "625",
                         "--interval", "0:1", "--format", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["rows"][0]["m"] == "625"
        assert d["rows"][0]["delta"] == "0"
        assert sorted(d) == ["N", "a", "rows"]
        assert list(d["rows"][0]) == ["alpha", "beta", "delta", "m", "m_over_N", "width"]

    def test_malformed_interval(self, capsys):
        code, _ = run(["uniformity", "--a", "26", "--N", "625",
                       "--interval", "nonsense"])
        assert code == 2
        assert "bad interval" in capsys.readouterr().err

    @pytest.mark.parametrize("interval, shown", [
        ("10^400:10^401", "10^400, 10^401"),  # beyond float range
        ("1/2:1/pi", "1/2, 1/pi"),
        ("0.9:0.2", "0.9, 0.2"),
    ])
    def test_bad_interval_is_shown_as_given(self, capsys, interval, shown):
        code, out = run(["uniformity", "--a", "5", "--N", "16", "--c", "1",
                         "--interval", interval])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: need 0 <= alpha < beta <= 1, got {shown}\n"

    def test_endpoint_work_over_budget(self, capsys):
        # eight reciprocals of coprime 400,000-bit powers: once over 10 s of gcds
        terms = ("1/(3^1000)^250+1/(5^1000)^180+1/(7^1000)^150+1/(11^1000)^120"
                 "+1/(13^1000)^110+1/(17^1000)^100+1/(19^1000)^95+1/(23^1000)^90")
        start = time.perf_counter()
        code, out = run(["uniformity", "--a", "26", "--N", "625", "--interval", terms + ":1"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert capsys.readouterr().err == (
            f"error: endpoint arithmetic in {terms!r} exceeds its work budget\n")

    def test_non_max_period_is_domain_error(self, capsys):
        code, _ = run(["uniformity", "--a", "3", "--N", "9", "--interval", "0:1"])
        assert code == 3

    def test_intervals_file_not_utf8(self, tmp_path, capsys):
        f = tmp_path / "intervals.txt"
        f.write_bytes(b"\xff0:1\n")
        assert run(["uniformity", "--a", "5", "--N", "16", "--intervals-file", str(f)]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f}: not UTF-8 text (") and "Traceback" not in err

    def test_budget(self):
        # no period budget: the full-period count is a closed form
        code, out = run(["uniformity", "--a", "69069", "--N", "2^32",
                         "--interval", "0:1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"][0]["m"] == "4294967296"
        code, out = run(["uniformity", "--a", "6364136223846793005", "--N", "2^64",
                         "--interval", "1/4:1/2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"][0]["m"] == str(2**62 + 1)


class TestDump:
    def test_stdout_csv(self):
        code, out = run(["dump", "--a", "26", "--N", "625", "--count", "3"])
        assert code == 0
        assert out == "n,x,u\n1,1,0.0016\n2,27,0.0432\n3,78,0.1248\n"

    def test_output_file(self, tmp_path):
        path = tmp_path / "seq.csv"
        code, out = run(["dump", "--a", "26", "--N", "625", "--count", "3",
                         "-o", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == "n,x,u\n1,1,0.0016\n2,27,0.0432\n3,78,0.1248\n"
        assert path.read_bytes().startswith(b"n,x,u\n")  # no byte-order mark

    def test_table_format(self):
        code, out = run(["dump", "--a", "26", "--N", "625", "--count", "5",
                         "--format", "table", "--per-line", "3"])
        assert code == 0
        assert out == "0.0016; 0.0432; 0.1248\n0.2464; 0.408\n"

    def test_budget(self):
        code, _ = run(["dump", "--a", "26", "--N", "625", "--count", "10",
                       "--budget", "3"])
        assert code == 4

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("flags", [["--digits", "0"], ["--digits", "-1"],
                                       ["--per-line", "0"], ["--per-line", "-2"]])
    def test_rejects_before_writing(self, fmt, flags, capsys):
        code, out = run(["dump", "--a", "26", "--N", "625", "--count", "5",
                         "--format", fmt] + flags)
        assert code == 2
        assert out == ""
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--N", "2^9999", "--count", "1"],
         "the default digit count for this N exceeds 4300; give digits <= 4300"),
        (["--N", "16", "--count", "2", "--digits", "5000"], "digits must be <= 4300, got 5000"),
    ], ids=["default", "given"])
    def test_digits_above_the_print_limit(self, capsys, argv, message):
        # each value is a decimal of that many digits, more than Python prints
        assert run(["dump", "--a", "5"] + argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_huge_digit_count_is_refused_at_once(self):
        # refused before 10^digits is built, which would never finish
        argv = ["dump", "--a", "5", "--N", "16", "--count", "2", "--digits",
                "99999999999999999999"]
        with cli_process(argv) as proc:
            try:
                out, err = proc.communicate(timeout=30)
            finally:
                proc.kill()
        assert (proc.returncode, out, err) == (
            2, b"", b"error: digits must be <= 4300, got 99999999999999999999\n")

    @pytest.mark.parametrize("flags, code", [
        (["--digits", "0"], 2),
        (["--per-line", "0", "--format", "table"], 2),
        (["--count", "10^9"], 2),
        (["--count", "10", "--budget", "3"], 4),
        (["--a", "4", "--N", "16"], 3),  # not of maximum period
        (["--per-line", "4097", "--format", "table"], 2),  # a row held whole is capped
    ])
    def test_refusal_leaves_output_file_alone(self, tmp_path, flags, code):
        kept, absent = tmp_path / "keep.txt", tmp_path / "absent.txt"
        kept.write_bytes(b"earlier contents\n")
        for path in (kept, absent):
            got = run(["dump", "--a", "26", "--N", "625"] + flags + ["-o", str(path)])
            assert got == (code, "")
        assert kept.read_bytes() == b"earlier contents\n"
        assert not absent.exists()

    def test_empty_dump_still_writes_its_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("earlier contents\n")
        code, out = run(["dump", "--a", "26", "--N", "625", "--count", "0",
                         "--format", "table", "-o", str(path)])
        assert (code, out) == (0, "")
        assert path.read_text() == ""


def cli_process(argv, stdout=subprocess.PIPE, unbuffered=False):
    """`python -m lcgspec.cli argv` in a child process, its stdout buffered
    unless `unbuffered`, its stderr piped."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(lcgspec.__file__).parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "lcgspec.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


class TestOutputFailure:
    """Output that cannot be written exits 5; a named file that cannot be
    opened stays a usage error (exit 2)."""

    BIG_DUMP = ["dump", "--a", "5", "--N", "2^20"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_output_file(self, capsys):
        assert run(["dump", "--a", "5", "--N", "16", "-o", "/dev/full"]) == (5, "")
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout(self):
        # the one error line, and nothing more when the interpreter exits
        with open("/dev/full", "w") as full, \
                cli_process(["dump", "--a", "5", "--N", "16"], stdout=full) as proc:
            err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (5, b"error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_ends_dump_quietly(self, unbuffered):
        with cli_process(self.BIG_DUMP, unbuffered=unbuffered) as proc:
            assert proc.stdout.readline() == b"n,x,u\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (5, b"")

    def test_head_ends_a_long_dump_quietly(self):
        # `lcgspec dump ... | head -2`: the dump is long enough for its worker
        with cli_process(self.BIG_DUMP) as proc:
            head = subprocess.run(["head", "-2"], stdin=proc.stdout, capture_output=True,
                                  timeout=60)
            proc.stdout.close()
            err = proc.stderr.read()
        assert head.stdout == b"n,x,u\n1,1,0.00000095367431640625\n"
        assert (proc.wait(timeout=60), err) == (5, b"")

    def test_pipe_closed_before_a_short_answer(self):
        # the answer fits stdout's buffer, so only the flush in `main` meets
        # the closed pipe
        with cli_process(["analyze", "--a", "26", "--N", "625", "--s", "2"]) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (5, b"")

    @pytest.mark.parametrize("argv", [
        ["uniformity", "--a", "26", "--N", "625", "--intervals-file"],
        ["dump", "--a", "26", "--N", "625", "--count", "3", "-o"],
    ], ids=["intervals-file", "output"])
    def test_unopenable_file_is_usage_error(self, tmp_path, capsys, argv):
        missing = tmp_path / "no-such-dir" / "file"
        assert run(argv + [str(missing)]) == (2, "")
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")


class TestSvp:
    def test_spectral_lattice(self):
        code, out = run(["svp", "--a", "5", "--N", "16", "--s", "2"])
        assert code == 0
        d = json.loads(out)
        assert d == {
            "certified": True,
            "method": "enumeration",
            "norm_sq": "10",
            "vector": ["1", "3"],
        }

    def test_brute_box_certification(self):
        code, out = run(["svp", "--a", "5", "--N", "16", "--s", "2",
                         "--brute-box", "4"])
        assert code == 0
        d = json.loads(out)
        assert d["method"] == "brute-force" and d["certified"] is True

        code, out = run(["svp", "--a", "5", "--N", "16", "--s", "2",
                         "--brute-box", "3"])
        assert code == 0
        d = json.loads(out)
        # minimum norm 10 exceeds box^2 = 9, so the scan cannot certify
        assert d["certified"] is False and d["norm_sq"] == "10"

    @pytest.mark.parametrize("flags, err", [
        (["--s", "3000", "--brute-box", "1"], "dimension 3000 exceeds enumeration cap 12"),
        (["--s", "5", "--brute-box", "1", "--enum-cap", "4"],
         "dimension 5 exceeds enumeration cap 4"),
    ])
    def test_brute_box_over_cap(self, capsys, flags, err):
        assert run(["svp", "--a", "5", "--N", "16"] + flags) == (4, "")
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_brute_box_over_budget(self, monkeypatch, capsys):
        from lcgspec import lattice

        monkeypatch.setattr(lattice, "_BOX_SCAN_STEPS", 1000)
        argv = ["svp", "--a", "1000000007", "--N", "10^18", "--s", "2", "--brute-box", "10^9"]
        assert run(argv) == (4, "")
        assert capsys.readouterr().err == "error: box scan exceeds its budget of 1000 steps\n"

    def test_enum_cap_exit(self, capsys):
        code, _ = run(["svp", "--a", "69069", "--N", "2^32", "--s", "6",
                       "--enum-cap", "2"])
        assert code == 4
        assert "exceeds enumeration cap" in capsys.readouterr().err


# over the cap by far: each refusal must cost the same as one just over it
@pytest.mark.parametrize("argv, code, err", [
    (["analyze", "--a", "69069", "--N", "2^32", "--s", "3000"], 4,
     "error: dimension 3000 exceeds enumeration cap 12\n"),
    (["analyze", "--a", "69069", "--N", "2^32", "--s", "2..100000"], 4,
     "error: dimension 13 exceeds enumeration cap 12\n"),
    (["build", "--s", "2", "--a", "26", "--validate", "100000"], 4,
     "error: dimension 13 exceeds enumeration cap 12\n"),
    (["svp", "--a", "5", "--N", "16", "--s", "3000"], 4,
     "error: dimension 3000 exceeds enumeration cap 12\n"),
    # a parameter error still wins over the cap
    (["svp", "--a", "0", "--N", "16", "--s", "20"], 2,
     "error: need 1 <= a < N, got a=0, N=16\n"),
    (["svp", "--a", "5", "--N", "16", "--s", "1"], 2,
     "error: dimension must be >= 2, got 1\n"),
], ids=["analyze-3000", "analyze-2..100000", "build-validate-100000", "svp-3000",
        "svp-a-0", "svp-s-1"])
def test_refusal_builds_nothing_sized_by_the_dimension(monkeypatch, capsys, argv, code, err):
    from lcgspec import cli, spectral

    def boom(*args, **kwargs):
        raise AssertionError("a dual basis was built")

    run(["analyze", "--a", "5", "--N", "16"])  # the shared parser, built once
    monkeypatch.setattr(cli, "dual_basis", boom)
    monkeypatch.setattr(spectral, "dual_basis", boom)
    tracemalloc.start()
    try:
        result = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (code, "")
    assert capsys.readouterr().err == err
    assert peak < 256 * 1024  # a list of the 10^5 dimensions alone takes 3.6 MiB


class TestVerifyPaper:
    def test_subset(self):
        code, out = run(["verify-paper", "--only", "7,8"])
        assert code == 0
        assert out.count("[PASS]") == 2
        assert out.rstrip().endswith("2/2 checks passed")

    def test_unknown_criterion(self, capsys):
        code, _ = run(["verify-paper", "--only", "99"])
        assert code == 2
        assert "matched no criteria" in capsys.readouterr().err

    def test_malformed_only(self):
        code, _ = run(["verify-paper", "--only", "junk"])
        assert code == 2


# Every integer of argv, one case per option and per part of a splitter: the
# argv with {} for the value, then a literal and an expression of that value
INTEGER_FLAGS = {
    "analyze-enum-cap": (["analyze", "--a", "26", "--N", "625", "--s", "2..3", "--enum-cap", "{}"],
                         "3", "2+1"),
    "analyze-s-lo": (["analyze", "--a", "26", "--N", "625", "--s", "{}..3"], "2", "1+1"),
    "analyze-s-hi": (["analyze", "--a", "26", "--N", "625", "--s", "2..{}"], "3", "2+1"),
    "build-tau": (["build", "--tau", "{}", "--a", "26"], "2", "1+1"),
    "build-s": (["build", "--s", "{}", "--a", "26"], "2", "2^1"),
    "build-l": (["build", "--tau", "2", "--l", "{}", "--lambda", "2", "--a", "5"], "1", "3-2"),
    "build-lambda": (["build", "--tau", "2", "--l", "1", "--a", "69069", "--lambda", "{}"],
                     "4", "2^2"),
    "build-d": (["build", "--tau", "2", "--primes", "2:7", "--d", "{}"], "3", "2+1"),
    "build-primes-p": (["build", "--tau", "2", "--primes", "{}:7"], "2", "1+1"),
    "build-primes-r": (["build", "--tau", "2", "--primes", "2:{}"], "7", "2^3-1"),
    "build-validate": (["build", "--tau", "2", "--a", "26", "--validate", "{}"], "3", "2+1"),
    "build-enum-cap": (["build", "--tau", "2", "--a", "26", "--validate", "3", "--enum-cap", "{}"],
                       "3", "2+1"),
    "dump-digits": (["dump", "--a", "26", "--N", "625", "--count", "3", "--digits", "{}"],
                    "3", "2+1"),
    "dump-per-line": (["dump", "--a", "26", "--N", "625", "--count", "3", "--format", "table",
                       "--per-line", "{}"], "2", "1+1"),
    "dump-budget": (["dump", "--a", "5", "--N", "16", "--count", "3", "--budget", "{}"],
                    "1000", "10^3"),
    "svp-s": (["svp", "--a", "26", "--N", "625", "--s", "{}"], "3", "2+1"),
    "svp-enum-cap": (["svp", "--a", "26", "--N", "625", "--s", "3", "--enum-cap", "{}"],
                     "3", "2+1"),
    "verify-paper-only": (["verify-paper", "--only", "7,{}"], "8", "2^3"),
}
_TIMINGS = re.compile(r"\(\d+\.\d+ s\)")


def _with(argv, value):
    return [arg.replace("{}", value) for arg in argv]


class TestIntegerFlags:
    """Every integer of argv is read by parse_int_expr, so an expression reads
    as its literal, and a malformed or over-long value is one `error:` line."""

    @pytest.mark.parametrize("name", list(INTEGER_FLAGS))
    def test_an_expression_reads_as_its_literal(self, capsys, name):
        argv, literal, expression = INTEGER_FLAGS[name]
        got = []
        for value in (literal, expression):
            code, out = run(_with(argv, value))
            got.append((code, _TIMINGS.sub("", out), capsys.readouterr().err))
        assert got[0] == got[1]
        assert got[0][0] == 0 and got[0][1]

    @pytest.mark.parametrize("value", ["7" * 5000, "1_000"], ids=["5000-digits", "underscore"])
    @pytest.mark.parametrize("name", list(INTEGER_FLAGS))
    def test_a_malformed_value_is_one_error_line(self, capsys, name, value):
        assert run(_with(INTEGER_FLAGS[name][0], value)) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 2100

    def test_stray_tokens_are_quoted_short(self, capsys):
        assert run(["analyze", "--a", "5", "--N", "16", "7" * 5000])[0] == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and len(err.splitlines()[1]) <= 2100
        assert err.endswith("... (5000 characters)\n")


_NO_FILE = "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("argv, err", [
    (["build", "--s", "2", "--a", "26", "--validate", "0"],
     "error: need s_max >= 2, got 0\n"),
    (["verify-paper", "--only", ""], "error: empty expression\n"),
    (["dump", "--a", "26", "--N", "625", "--count", "3", "-o", ""], _NO_FILE),
    (["uniformity", "--a", "26", "--N", "625", "--interval", "0:1", "--intervals-file", ""],
     _NO_FILE),
], ids=["validate-0", "only-empty", "output-empty", "intervals-file-empty"])
def test_zero_or_empty_value_is_not_absent(capsys, argv, err):
    # a given 0 or "" is checked like any other value, never read as a
    # missing option
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == err


class TestParserReuse:
    """`main` shares one parser across calls; no call may see another's state."""

    @staticmethod
    def fresh(argv):
        lcgspec.cli._PARSER.clear()
        return run(argv)

    def test_parser_is_shared(self):
        assert build_parser() is build_parser()

    def test_interval_list_does_not_leak(self):
        many = ["uniformity", "--a", "26", "--N", "625", "--interval", "0:1",
                "--interval", "0:1/2", "--format", "csv"]
        one = ["uniformity", "--a", "26", "--N", "625", "--interval", "0.2:0.9",
               "--format", "csv"]
        want = self.fresh(one)
        assert len(want[1].splitlines()) == 2
        run(many)
        assert run(one) == want

    def test_usage_error_then_valid_call(self):
        argv = ["analyze", "--a", "26", "--N", "625", "--s", "2..3", "--format", "csv"]
        want = self.fresh(argv)
        assert run(["analyze", "--a", "26", "--N", "625", "--bogus"])[0] == 2
        assert run(["build", "--s", "2", "--tau", "3", "--a", "26"])[0] == 2
        assert run(argv) == want

    def test_build_modes_alternate(self):
        single = ["build", "--s", "2", "--a", "26", "--format", "json"]
        ranged = ["build", "--tau", "3", "--a", "69069", "--format", "json"]
        want_single, want_range = self.fresh(single), self.fresh(ranged)
        assert want_single[0] == want_range[0] == 0
        for _ in range(2):
            assert run(single) == want_single
            assert run(ranged) == want_range
        assert run(single + ["--tau", "3"])[0] == 2

    def test_direct_read_builds_no_parser(self):
        lcgspec.cli._PARSER.clear()
        assert run(["svp", "--a", "5", "--N", "16", "--s", "2"])[0] == 0
        assert len(lcgspec.cli._PARSER) == 0

    def test_interval_list_does_not_leak_between_readers(self):
        from lcgspec import cli

        one = ["uniformity", "--a", "26", "--N", "625", "--interval", "0.2:0.9",
               "--format", "csv"]
        # `--interval=` and the abbreviation `--form` leave this one to argparse
        many = ["uniformity", "--a", "26", "--N", "625", "--interval=0:1",
                "--interval", "0:1/2", "--form", "csv"]
        assert cli._read_argv(one) is not None and cli._read_argv(many) is None
        want = self.fresh(one)
        assert len(want[1].splitlines()) == 2
        for _ in range(2):
            assert len(run(many)[1].splitlines()) == 3
            assert run(one) == want

    def test_build_modes_alternate_between_readers(self):
        from lcgspec import cli

        single = ["build", "--s", "2", "--a", "26", "--format", "json"]
        ranged = ["build", "--tau=3", "--a", "69069", "--format", "json"]
        assert cli._read_argv(single) is not None and cli._read_argv(ranged) is None
        want_single, want_range = self.fresh(single), self.fresh(ranged)
        assert want_single[0] == want_range[0] == 0
        assert want_single != want_range
        for _ in range(2):
            assert run(single) == want_single
            assert run(ranged) == want_range
        assert run(single + ["--tau", "3"])[0] == 2
        assert run(single) == want_single


class TestHarness:
    def test_no_arguments_is_usage_error(self):
        code, _ = run([])
        assert code == 2

    def test_unknown_flag(self):
        code, _ = run(["analyze", "--a", "26", "--N", "625", "--bogus"])
        assert code == 2

    def test_json_output_is_deterministic(self):
        argvs = [
            ["analyze", "--a", "69069", "--N", "2^32", "--s", "2..3", "--format", "json"],
            ["svp", "--a", "5", "--N", "16", "--s", "2"],
            ["build", "--s", "2", "--a", "26", "--format", "json"],
        ]
        for argv in argvs:
            assert run(argv) == run(argv)

    def test_json_ends_with_newline(self):
        _, out = run(["svp", "--a", "5", "--N", "16", "--s", "2"])
        assert out.endswith("}\n")
