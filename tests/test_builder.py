"""Tests for generator construction and certificate validation."""

import json
import sys
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
    TooSmall,
    compute_potential,
    spectral_test,
    theorem_bounds,
)
from lcgspec import lattice
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
        # the kernel 2^r exceeds 10^limit once r > 10*limit/3: refused before
        # it is formed, and with r at that edge no build succeeds either
        default, edge = sys.get_int_max_str_digits(), 10 * limit // 3
        sys.set_int_max_str_digits(limit)
        try:
            if not limit:  # no limit, no bound
                assert MultiplierRecipe(primes=(2,), exponents=(10**5,)).kernel() == 2**10**5
                return
            for exps in [(edge + 1,), (99999999999,)]:
                with pytest.raises(InvalidParams,
                                   match=f"^prime kernel has more than {limit} digits$"):
                    MultiplierRecipe(primes=(2,), exponents=exps)
            with pytest.raises(InvalidParams, match="has more than"):
                build_range(2, 0, 1, MultiplierRecipe(primes=(2,), exponents=(edge,)))
        finally:
            sys.set_int_max_str_digits(default)

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
        assert g.certificate()[0]["statement"] == "v_2^2 = 577 (theorem 1)"

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
        stmts = [e["statement"] for e in g.certificate()]
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
        d = build_range(6, 0, 1, MultiplierRecipe(a=69069)).to_json_dict()
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
            covers_s_max=2,
            guaranteed=(theorem_bounds(13, PotentialProfile(2, 9), 2),),
        )
        assert g.uniform_lower_sq == Fraction(122, 81)
        d = g.to_json_dict()
        assert d["uniform_lower_sq"] == "122/81"
        assert d["uniform_lower_unverified"] is False
        assert "v_2^2 >= 122/81" in d["certificate"][0]["statement"]


class TestValidate:
    def test_exact_build_passes(self):
        g = build_single_dimension(2, MultiplierRecipe(a=26))
        rep = validate(g, 3)
        assert rep.ok
        assert [r.result.s for r in rep.rows] == [2, 3]
        names = [c.name for c in rep.rows[0].checks]
        assert names == [
            "v_2^2 >= 577 (theorem 1)",
            "v_2^2 <= 577 (theorem 1)",
            "v_2 within the dimension-2 packing bound",
        ]
        # beyond coverage only the packing bound applies
        assert [c.name for c in rep.rows[1].checks] == [
            "v_3 within the dimension-3 packing bound"
        ]

    def test_tuned_build_passes(self):
        g = build_single_dimension(2, MultiplierRecipe(a=1664525))
        rep = validate(g, 3)
        assert rep.ok
        assert rep.rows[0].result.v_sq == 1 + 1664523**2

    def test_beyond_tabulated_dimensions(self):
        g = build_single_dimension(2, MultiplierRecipe(a=26))
        rep = validate(g, 9)
        assert rep.ok
        assert rep.rows[-1].result.s == 9
        assert rep.rows[-1].checks == ()  # no certificate, no tabulated constant
        assert rep.rows[-1].result.v_sq == 4

    def test_reports_failures_without_raising(self):
        good = build_single_dimension(2, MultiplierRecipe(a=26))
        # certificate for a = 27 pinned onto the a = 26 generator
        fake = BuiltGenerator(
            params=good.params,
            profile=good.profile,
            covers_s_max=2,
            guaranteed=(theorem_bounds(27, PotentialProfile(2, 1), 2),),
        )
        rep = validate(fake, 2)
        assert not rep.ok
        lower = rep.rows[0].checks[0]
        assert lower.name == "v_2^2 >= 626 (theorem 1)"
        assert not lower.passed
        assert rep.rows[0].checks[1].passed  # upper still holds
        assert rep.to_json_dict()["ok"] is False

    def test_theorem_3_check_gates(self):
        # a = 13, N = 16: v_2^2 = 10 clears theorem 3's 122/81, but not the
        # same estimate without its lambda^2, 1 + (a-2)^2 = 122
        tb = theorem_bounds(13, PotentialProfile(2, 9), 2)
        for lower_sq, ok in [(Fraction(122, 81), True), (122, False)]:
            g = BuiltGenerator(
                params=LcgParams(13, 1, 16, 0),
                profile=PotentialProfile(2, 9),
                covers_s_max=2,
                guaranteed=(tb._replace(lower_sq=lower_sq),),
            )
            rep = validate(g, 2)
            assert rep.ok is ok
            first = rep.rows[0].checks[0]
            assert (first.kind, first.passed) == ("lower", ok)
            assert rep.to_json_dict()["rows"][0]["checks"][0]["informational"] is False

    def test_json_round_trip(self):
        rep = validate(build_single_dimension(2, MultiplierRecipe(a=26)), 2)
        d = rep.to_json_dict()
        assert d["ok"] is True
        assert d["rows"][0]["v_sq"] == "577"
        assert json.loads(json.dumps(d)) == d

    def test_rejects_small_s_max(self):
        g = build_single_dimension(2, MultiplierRecipe(a=26))
        with pytest.raises(InvalidParams):
            validate(g, 1)

    def test_rows_match_per_dimension_solver(self):
        g = build_range(6, 0, 1, MultiplierRecipe(a=69069))
        rep = validate(g, 8)
        assert [r.result.s for r in rep.rows] == list(range(2, 9))
        assert [r.result for r in rep.rows] == [
            spectral_test(69069, g.params.N, s) for s in range(2, 9)
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
