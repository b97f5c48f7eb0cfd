"""Tests for generator construction and certificate validation."""

import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from lcgspec import (
    DimensionTooLarge,
    InvalidParams,
    LambdaInvalid,
    LcgParams,
    PeriodBroken,
    PotentialProfile,
    SpectralResult,
    TooSmall,
    compute_potential,
    spectral_test,
    theorem_bounds,
)
from lcgspec import builder, cli, lattice
from lcgspec.builder import (
    BuiltGenerator,
    MultiplierRecipe,
    build_range,
    build_single_dimension,
    validate,
)


class TestMultiplierRecipe:
    def test_explicit(self):
        r = MultiplierRecipe(a=26)
        assert r.resolve(2, None) == 26
        assert r.resolve(2, 20) == 26  # 26 - 2 = 24 > 20

    @pytest.mark.parametrize("limit", [sys.get_int_max_str_digits(), 640, 0],
                             ids=["default", "640", "none"])
    def test_kernel_too_long_to_print_is_refused_unformed(self, limit):
        # every modulus on the kernel 2^r is at least 2^(2r), which exceeds
        # 10^limit once 2r > 10*limit/3: refused before the kernel is formed,
        # and with r at that edge no build succeeds either
        default, edge = sys.get_int_max_str_digits(), 10 * limit // 3 // 2
        sys.set_int_max_str_digits(limit)
        try:
            if not limit:  # no limit, no bound
                assert MultiplierRecipe(primes=(2,), exponents=(10**5,)).kernel() == 2**10**5
                return
            for exps in [(edge + 1,), (99999999999,)]:
                with pytest.raises(InvalidParams, match="^every modulus built on this prime "
                                                        f"kernel has more than {limit} digits$"):
                    MultiplierRecipe(primes=(2,), exponents=exps)
            with pytest.raises(InvalidParams, match="has more than"):
                build_range(2, 0, 1, MultiplierRecipe(primes=(2,), exponents=(edge,)))
        finally:
            sys.set_int_max_str_digits(default)

    @pytest.mark.parametrize("r", [1, 2])
    def test_long_kernel_is_refused_before_any_prime_is_tested(self, monkeypatch, r):
        # (2^9689 - 1)^2 alone has 5833 digits; Miller-Rabin on it takes seconds
        def boom(n):
            raise AssertionError("a prime was tested")

        monkeypatch.setattr(builder, "is_probable_prime", boom)
        with pytest.raises(InvalidParams, match="^every modulus built on this prime kernel "
                                                f"has more than {sys.get_int_max_str_digits()} "
                                                "digits$"):
            MultiplierRecipe(primes=(2**9689 - 1,), exponents=(r,))

    def test_explicit_min_accuracy_not_met(self):
        with pytest.raises(TooSmall):
            MultiplierRecipe(a=26).resolve(2, 30)

    def test_shape_kernel(self):
        r = MultiplierRecipe(d=3, primes=(2, 5), exponents=(3, 1))
        assert r.kernel() == 40
        assert r.resolve(2, None) == 121

    def test_shape_scales_whole_kernel(self):
        r = MultiplierRecipe(d=1, primes=(2,), exponents=(2,))
        # 5, 17, 65 all fail a - 2 > 100; 257 clears it
        assert r.resolve(2, 100) == 257

    def test_shape_resolves_to_the_least_power_a_naive_loop_finds(self):
        rng = random.Random(45)
        for _ in range(400):
            primes = rng.choice([(2,), (3,), (2, 3), (5, 7), (2, 10007)])
            exps = tuple(rng.randint(1, 3) for _ in primes)
            d, k = rng.randint(1, 40), math.prod(p**e for p, e in zip(primes, exps))
            if math.gcd(d, k) != 1:
                continue
            r, b = MultiplierRecipe(None, d, primes, exps), rng.randint(0, 500)
            edge = d * k ** rng.randint(1, 60) + 1 - b  # a - b of some power
            m = rng.choice([-5, 0, rng.getrandbits(rng.randint(1, 300)), edge - 1, edge])
            j = 1
            while d * k**j + 1 - b <= m:
                j += 1
            assert r.resolve(b, m) == d * k**j + 1, (r, b, m)

    def test_resolve_forms_no_power_much_longer_than_its_answer(self, monkeypatch):
        # the least j with d * kernel^j > need, found by climbing, on seeded
        # kernels up to 3^2000 and needs up to 2^12000, some of them <= 0; each
        # power of the kernel that resolve forms has at most about twice the
        # bits of its answer
        formed = []

        class Kernel(int):
            def __pow__(self, j):
                formed.append(j)
                return int(self) ** j

        real = MultiplierRecipe.kernel
        monkeypatch.setattr(MultiplierRecipe, "kernel", lambda self: Kernel(real(self)))
        rng = random.Random(55)
        for _ in range(2000):
            primes = rng.choice([(2,), (3,), (2, 3), (5, 7), (2, 10007), (3, 2**61 - 1)])
            exps = tuple(rng.choice([1, 2, 3, rng.randint(1, 2000)]) for _ in primes)
            d, k = rng.randint(1, 40), math.prod(p**e for p, e in zip(primes, exps))
            if math.gcd(d, k) != 1 or 2 * sum(e * (p.bit_length() - 1)
                                              for p, e in zip(primes, exps)) > 14000:
                continue
            b = rng.randint(0, 500)
            need = (rng.choice([-10**6, -1, 0, 1]) if rng.random() < 0.2
                    else rng.getrandbits(rng.randint(1, 12000)))
            least = d * k
            while least <= need:
                least *= k
            formed.clear()
            a = MultiplierRecipe(None, d, primes, exps).resolve(b, need - b + 1)
            assert a == least + 1, (d, primes, exps, need)
            assert max(formed) * k.bit_length() <= 2 * (a.bit_length() + k.bit_length())

    def test_resolve_bisects_within_bit_length_bounds(self):
        # the first power the bisection once formed, 3^(2000 * 5000), has 16
        # million bits and took seconds; the answer is (3^2000)^4
        start = time.perf_counter()
        a = MultiplierRecipe(primes=(3,), exponents=(2000,)).resolve(2, 2**10000)
        assert time.perf_counter() - start < 1
        assert a == 3**8000 + 1

    def test_unit_kernel_cannot_scale(self):
        with pytest.raises(TooSmall):
            MultiplierRecipe(d=5).resolve(2, 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 1},
            {"d": 0},
            {"primes": (2, 3), "exponents": (1,)},
            {"primes": (2,), "exponents": (0,)},
            {"primes": (9,), "exponents": (1,)},
            {"primes": (5, 3), "exponents": (1, 1)},
            {"primes": (3, 3), "exponents": (1, 1)},
            {"d": 2, "primes": (2,), "exponents": (1,)},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(InvalidParams):
            MultiplierRecipe(**kwargs)

    @pytest.mark.parametrize("make", [
        lambda: MultiplierRecipe(a=7, d=3),
        lambda: MultiplierRecipe._make((7, 3, (), ())),
        lambda: MultiplierRecipe(a=7)._replace(d=3),
        lambda: MultiplierRecipe(a=7)._replace(primes=(2,), exponents=(1,)),
        lambda: MultiplierRecipe(primes=(2,), exponents=(7,))._replace(a=129),
    ], ids=["new", "make", "replace-d", "replace-primes", "replace-a"])
    def test_explicit_a_takes_no_shape(self, make):
        with pytest.raises(InvalidParams, match="^an explicit a takes no shape"):
            make()


class TestBuildSingleDimension:
    def test_classic_small(self):
        g = build_single_dimension(2, MultiplierRecipe(a=26))
        assert g.params == LcgParams(a=26, c=1, N=625, x0=0)
        assert g.profile == PotentialProfile(2, 1)
        assert g.covers_s_max == 2
        assert g.uniform_lower_sq == 577
        assert cli._build_json(g, None)["certificate"][0]["statement"] == "v_2^2 = 577 (theorem 1)"

    def test_tuned_large(self):
        g = build_single_dimension(2, MultiplierRecipe(a=1664525), min_accuracy=10**6)
        assert g.params.N == 1664524**2
        assert g.uniform_lower_sq == 1 + 1664523**2

    def test_prime_power_shape(self):
        g = build_single_dimension(5, MultiplierRecipe(d=1, primes=(2,), exponents=(7,)))
        assert g.params.a == 129
        assert g.params.N == 2**35
        assert g.covers_s_max == 5
        # weakest certified dimension is s = 5 with b_5 = 10
        assert g.uniform_lower_sq == (129 - 10) ** 2 == 14161

    def test_min_accuracy_scales_shape(self):
        g = build_single_dimension(2, MultiplierRecipe(d=1, primes=(2,), exponents=(2,)),
                                   min_accuracy=100)
        assert g.params.a == 257
        assert g.params.N == 256**2

    def test_profile_round_trip(self):
        for s, a in [(2, 21), (3, 21), (4, 30)]:
            g = build_single_dimension(s, MultiplierRecipe(a=a))
            assert compute_potential(g.params.a, g.params.N) == PotentialProfile(s, 1)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            build_single_dimension(2, MultiplierRecipe(a=3))  # threshold is 5
        with pytest.raises(TooSmall):
            build_single_dimension(5, MultiplierRecipe(a=10))  # b_5 = 10 needs a >= 11

    def test_period_broken(self):
        # a = 7: N = 36 is divisible by 4 while a - 1 = 6 is not
        with pytest.raises(PeriodBroken, match="divisible by 4"):
            build_single_dimension(2, MultiplierRecipe(a=7))

    def test_rejects_small_s(self):
        with pytest.raises(InvalidParams):
            build_single_dimension(1, MultiplierRecipe(a=26))

    def test_rejects_huge_exponent_at_once(self):
        # refused before b_t, a number of about t bits, is made
        with pytest.raises(InvalidParams, match=r"^need tau\+l <= 10000, got 10001$"):
            build_single_dimension(10001, MultiplierRecipe(a=2**32 + 1))
        with pytest.raises(InvalidParams, match=rf"^need tau\+l <= 10000, got {10**23 + 2}$"):
            build_range(2, 10**23, 1, MultiplierRecipe(primes=(2,), exponents=(7,)))


class TestBuildRange:
    def test_full_range_tau_six(self):
        g = build_range(6, 0, 1, MultiplierRecipe(a=69069))
        assert g.params.N == 69068**6
        assert g.profile == PotentialProfile(6, 1)
        assert g.covers_s_max == 6
        assert g.uniform_lower_sq == (69069 - 20) ** 2 == 4767764401
        stmts = [e["statement"] for e in cli._build_json(g, None)["certificate"]]
        assert len(stmts) == 5
        assert stmts[0] == "v_2^2 >= 4770250489; v_2^2 <= 4770526762 (theorem 6)"
        assert stmts[4] == "v_6^2 >= 4767764401; v_6^2 <= 4770526762 (theorem 2)"

    def test_excess_power_with_kernel(self):
        # t = tau + l = 3, lambda = 2 divides 4^3 and stays in the window
        g = build_range(2, 1, 2, MultiplierRecipe(a=5))
        assert g.params.N == 4**3 // 2 == 32
        assert g.profile == PotentialProfile(3, 2)
        assert g.covers_s_max == 2
        assert g.guaranteed[0].theorem_id == 6

    def test_lambda_window(self):
        with pytest.raises(LambdaInvalid):
            build_range(3, 0, 7, MultiplierRecipe(a=6))  # window is [1, 1]
        with pytest.raises(LambdaInvalid):
            build_range(2, 1, 7, MultiplierRecipe(a=6))  # window is [1, 5]

    def test_lambda_must_divide(self):
        with pytest.raises(LambdaInvalid, match="does not divide"):
            build_range(2, 1, 3, MultiplierRecipe(a=5))  # 3 does not divide 64

    @pytest.mark.parametrize("a", [5, 6, 9, 17])
    def test_lambda_checks_match_the_powers(self, a):
        # the window and divisibility are decided without forming (a-1)^l or
        # (a-1)^(tau+l); every lambda up to just past the window is held to
        # the powers themselves
        for l in range(4):
            for lam in range(1, (a - 1) ** l + 4):
                invalid = lam > (a - 1) ** l or (a - 1) ** (2 + l) % lam != 0
                try:
                    build_range(2, l, lam, MultiplierRecipe(a=a))
                except LambdaInvalid:
                    assert invalid, (a, l, lam)
                except TooSmall:  # a below the threshold for tau+l, checked first
                    pass
                except PeriodBroken:
                    assert not invalid, (a, l, lam)
                else:
                    assert not invalid, (a, l, lam)

    def test_rejects(self):
        with pytest.raises(InvalidParams):
            build_range(1, 0, 1, MultiplierRecipe(a=26))
        with pytest.raises(InvalidParams):
            build_range(2, -1, 1, MultiplierRecipe(a=26))
        with pytest.raises(LambdaInvalid):
            build_range(2, 0, 0, MultiplierRecipe(a=26))


class TestCertificateJson:
    def test_shape(self):
        d = cli._build_json(build_range(6, 0, 1, MultiplierRecipe(a=69069)), None)
        assert d["a"] == "69069" and d["c"] == "1" and d["x0"] == "0"
        assert d["N"] == str(69068**6)
        assert d["tau"] == 6 and d["lambda"] == "1"
        assert d["covers"] == {"s_min": 2, "s_max": 6}
        assert d["uniform_lower_sq"] == "4767764401"
        assert d["uniform_lower_unverified"] is False
        assert len(d["certificate"]) == 5
        json.dumps(d)

    def test_fraction_bound_rendering(self):
        g = BuiltGenerator(
            params=LcgParams(13, 1, 16, 0),
            profile=PotentialProfile(2, 9),
            guaranteed=(theorem_bounds(13, PotentialProfile(2, 9), 2),),
        )
        assert g.uniform_lower_sq == Fraction(122, 81)
        d = cli._build_json(g, None)
        assert d["uniform_lower_sq"] == "122/81"
        assert d["uniform_lower_unverified"] is False
        assert "v_2^2 >= 122/81" in d["certificate"][0]["statement"]


def all_passed(rows):
    """Whether every check of every validated row passed, as `build` decides."""
    return all(passed for r in rows for _, passed in r.checks)


class TestValidate:
    def test_exact_build_passes(self):
        g = build_single_dimension(2, MultiplierRecipe(a=26))
        rows = validate(g, 3)
        assert type(rows) is tuple and all(type(r) is SpectralResult for r in rows)
        assert all_passed(rows)
        assert [r.s for r in rows] == [2, 3]
        json_rows = cli._validation_json(rows, True)["rows"]
        assert [c["name"] for c in json_rows[0]["checks"]] == [
            "v_2^2 >= 577 (theorem 1)",
            "v_2^2 <= 577 (theorem 1)",
            "v_2 within the dimension-2 packing bound",
        ]
        # beyond coverage only the packing bound applies
        assert rows[1].bounds is None
        assert [c["name"] for c in json_rows[1]["checks"]] == [
            "v_3 within the dimension-3 packing bound"
        ]

    def test_tuned_build_passes(self):
        g = build_single_dimension(2, MultiplierRecipe(a=1664525))
        rows = validate(g, 3)
        assert all_passed(rows)
        assert rows[0].v_sq == 1 + 1664523**2

    def test_beyond_tabulated_dimensions(self):
        g = build_single_dimension(2, MultiplierRecipe(a=26))
        rows = validate(g, 9)
        assert all_passed(rows)
        assert rows[-1].s == 9
        assert rows[-1].checks == ()  # no certificate, no tabulated constant
        assert rows[-1].v_sq == 4

    def test_reports_failures_without_raising(self):
        good = build_single_dimension(2, MultiplierRecipe(a=26))
        # certificate for a = 27 pinned onto the a = 26 generator
        fake = BuiltGenerator(
            params=good.params,
            profile=good.profile,
            guaranteed=(theorem_bounds(27, PotentialProfile(2, 1), 2),),
        )
        rows = validate(fake, 2)
        assert not all_passed(rows)
        assert rows[0].checks[0] == ("lower", False)
        assert rows[0].checks[1] == ("upper", True)  # upper still holds
        d = cli._validation_json(rows, False)
        assert d["rows"][0]["checks"][0] == {"name": "v_2^2 >= 626 (theorem 1)", "passed": False}
        assert d["ok"] is False

    def test_theorem_3_check_gates(self):
        # a = 13, N = 16: v_2^2 = 10 clears theorem 3's 122/81, but not the
        # same estimate without its lambda^2, 1 + (a-2)^2 = 122
        tb = theorem_bounds(13, PotentialProfile(2, 9), 2)
        for lower_sq, ok, name in [(Fraction(122, 81), True, "v_2^2 >= 122/81 (theorem 3)"),
                                   (122, False, "v_2^2 >= 122 (theorem 3)")]:
            g = BuiltGenerator(
                params=LcgParams(13, 1, 16, 0),
                profile=PotentialProfile(2, 9),
                guaranteed=(tb._replace(lower_sq=lower_sq),),
            )
            rows = validate(g, 2)
            assert all_passed(rows) is ok
            assert rows[0].checks[0] == ("lower", ok)
            row = cli._validation_json(rows, ok)["rows"][0]
            assert row["checks"][0] == {"name": name, "passed": ok}

    def test_json_round_trip(self):
        g = build_single_dimension(2, MultiplierRecipe(a=26))
        rows = validate(g, 2)
        d = cli._validation_json(rows, all_passed(rows))
        assert d["ok"] is True
        assert d["rows"][0]["v_sq"] == "577"
        assert json.loads(json.dumps(d)) == d
        # bench/lcgbench/checks.py reads lower_unverified on each certificate
        # entry; a validation check carries its name and outcome only
        assert [e["lower_unverified"] for e in cli._build_json(g, d)["certificate"]] == [False]
        assert cli._build_json(g, d)["validation"] is d
        assert [sorted(c) for c in d["rows"][0]["checks"]] == [["name", "passed"]] * 3

    def test_rejects_small_s_max(self):
        g = build_single_dimension(2, MultiplierRecipe(a=26))
        with pytest.raises(InvalidParams):
            validate(g, 1)

    def test_rows_match_per_dimension_solver(self):
        g = build_range(6, 0, 1, MultiplierRecipe(a=69069))
        rows = validate(g, 8)
        assert [r.s for r in rows] == list(range(2, 9))
        # the solver's results, each with the certificate as its bounds
        assert [r.bounds for r in rows] == [*g.guaranteed, None, None]
        assert [r._replace(bounds=None) for r in rows] == [
            spectral_test(69069, g.params.N, s)._replace(bounds=None) for s in range(2, 9)
        ]

    def test_over_cap_refused_before_any_basis_or_list(self, monkeypatch):
        from lcgspec import spectral

        def boom(*args, **kwargs):
            raise AssertionError("a dual basis was built")

        g = build_range(6, 0, 1, MultiplierRecipe(a=69069))
        monkeypatch.setattr(spectral, "dual_basis", boom)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge,
                               match="^dimension 13 exceeds enumeration cap 12$"):
                validate(g, 100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024  # a list of the 10^5 dimensions alone takes 3.6 MiB

    # the default cap, one passed by keyword, one passed by position
    @pytest.mark.parametrize("s_max, cap, by_position", [(13, None, None), (13, 12, None),
                                                         (8, None, 5)])
    def test_cap_refused_before_any_solver_work(self, monkeypatch, s_max, cap, by_position):
        def boom(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(lattice, "lll_reduce", boom)
        g = build_range(6, 0, 1, MultiplierRecipe(a=69069))
        first, limit = (6, 5) if by_position else (13, 12)
        with pytest.raises(DimensionTooLarge,
                           match=f"^dimension {first} exceeds enumeration cap {limit}$"):
            if by_position:
                validate(g, s_max, by_position)
            elif cap:
                validate(g, s_max, cap=cap)
            else:
                validate(g, s_max)
