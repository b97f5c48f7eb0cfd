"""Tests for spectral figures, merit, and the regime-specific bounds."""

import io
import json
import math
import random
import tracemalloc
from decimal import ROUND_HALF_UP, Decimal, getcontext, localcontext
from fractions import Fraction

import pytest

from lcgspec import (
    DimensionTooLarge,
    InvalidParams,
    LcgParams,
    PotentialProfile,
    b_coefficient,
    check_max_period,
    compute_potential,
    merit,
    spectral_test,
    theorem_bounds,
)
from lcgspec import cli, lattice
from lcgspec.lattice import (
    _integral_gs,
    brute_force_shortest,
    dual_basis,
    extend_dual_basis,
    shortest_vector,
)
from lcgspec.spectral import (
    BoundCheck,
    SpectralResult,
    _exp,
    _log,
    _packing_cap_text,
    check_bounds,
    spectral_profile,
    within_packing_bound,
)

import lattice_reference as ref

getcontext().prec = 80
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944")


def expand_negative_max(s):
    """Max |coefficient| among the negative coefficients of (x - 1)^s,
    computed by explicit polynomial multiplication."""
    coeffs = [1]
    for _ in range(s):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += -c
            nxt[i + 1] += c
        coeffs = nxt
    return max(-c for c in coeffs if c < 0)


def merit_oracle(s, v_sq, N):
    """High precision mu via Decimal; Gamma(s/2 + 1) handled exactly for
    integer and half-integer arguments."""
    if s % 2 == 0:
        n = s // 2
        return (_PI * Decimal(v_sq)) ** n / (Decimal(math.factorial(n)) * Decimal(N))
    n = (s + 1) // 2
    num = (_PI * Decimal(v_sq)) ** (n - 1) * Decimal(v_sq).sqrt()
    num *= Decimal(4**n * math.factorial(n))
    return num / (Decimal(math.factorial(2 * n)) * Decimal(N))


class TestBCoefficient:
    def test_matches_polynomial_expansion(self):
        for s in range(2, 21):
            assert b_coefficient(s) == expand_negative_max(s)

    @pytest.mark.parametrize("s", [21, 22, 23, 24, 99, 100, 101, 102, 1000, 1001])
    def test_matches_max_over_odd_k(self, s):
        assert b_coefficient(s) == max(math.comb(s, k) for k in range(1, s + 1, 2))

    def test_known_values(self):
        table = [2, 3, 4, 10, 20, 35, 56, 126, 252, 462, 792, 1716, 3432, 6435]
        assert [b_coefficient(s) for s in range(2, 16)] == table

    @pytest.mark.parametrize("s", [1, 0, -3])
    def test_rejects_small_s(self, s):
        with pytest.raises(InvalidParams):
            b_coefficient(s)


class TestMerit:
    CASES = [
        (2, 577, 625),
        (2, 4938916874, 2**32),
        (3, 6, 32),
        (4, 52804, 2**32),
        (5, 6990, 2**32),
        (6, 242, 2**32),
        (7, 98765, 10**7),
        (8, 10**20 + 7, 10**30),
        # both operands far beyond float range
        (4, 10**180 + 7, 10**200),
    ]

    @pytest.mark.parametrize("s,v_sq,N", CASES)
    def test_against_decimal_oracle(self, s, v_sq, N):
        want = merit_oracle(s, v_sq, N)
        rel = abs(Decimal(merit(s, v_sq, N)) - want) / want
        assert rel < Decimal("1e-12")

    def test_dimension_two_closed_form(self):
        # mu_2 = pi * v^2 / N
        assert merit(2, 4938916874, 2**32) == pytest.approx(
            math.pi * 4938916874 / 2**32, rel=1e-13
        )
        assert round(merit(2, 4938916874, 2**32), 4) == 3.6126

    def test_full_packing_gives_pi(self):
        assert merit(2, 625, 625) == pytest.approx(math.pi, rel=1e-12)

    def test_accepts_fraction(self):
        assert merit(2, Fraction(5, 2), 8) == pytest.approx(math.pi * 2.5 / 8, rel=1e-13)

    def test_none_past_float_range(self):
        # theorem 7's upper bound C(66, 33) at s = 35, N = 2^33: mu ~ 10^313
        assert merit(35, math.comb(66, 33), 2**33) is None

    def test_integers_above_512_bits(self):
        # math.log reads these ints whole.  A float exponent of size E is off
        # by a few ulp(E), about E * 2^-52, so e^E is held to a relative
        # 1e-15 per unit of the exponent's terms; lg_v, a log itself, to 1e-14
        rng = random.Random(37)
        for _ in range(60):
            bits = rng.randint(513, 2040)
            x = rng.getrandbits(bits) | 1 << (bits - 1)
            d = rng.getrandbits(rng.randint(1, 200)) | 1
            s = rng.randint(2, 8)
            for v_sq in (x, Fraction(x, d)):
                with localcontext(prec=50):
                    exact = Decimal(v_sq.numerator) / Decimal(v_sq.denominator)
                    want_root, want_lg = exact.sqrt(), exact.log10() / 2
                size = float(exact.ln())
                N = int(exact ** (s // 2) * (exact.sqrt() if s % 2 else 1)) // rng.randint(1, 1000) + 1
                want_mu = merit_oracle(s, exact, N)
                r = SpectralResult(3, N, s, v_sq, (), None, None)
                got = {
                    "root": (_exp(0.5 * _log(v_sq)), want_root, 1e-15 * (1 + size)),
                    "mu": (merit(s, v_sq, N), want_mu, 1e-15 * (1 + s * size)),
                    "lg_v": (r.lg_v, want_lg, 1e-14),
                }
                for name, (value, want, tol) in got.items():
                    assert abs(Decimal(value) - want) / want < Decimal(tol), (name, bits, s)

    def test_root_none_from_2_to_the_2050(self):
        rng = random.Random(2050)
        cases = [2**2050, Fraction(2**2051 + 1, 2)]
        for _ in range(20):
            x = rng.getrandbits(rng.randint(2051, 4000)) | 1 << 2050
            cases += [x, Fraction(x * 7 + 1, 7)]
        for x in cases:
            assert _exp(0.5 * _log(x)) is None
        assert _exp(0.5 * _log(2**2046)) == pytest.approx(2.0**1023, rel=1e-12)

    def test_rejects(self):
        with pytest.raises(InvalidParams):
            merit(1, 10, 100)
        with pytest.raises(InvalidParams):
            merit(2, 0, 100)
        with pytest.raises(InvalidParams):
            merit(2, 10, 0)


# gamma_s^(2s) for s = 2..8: 4/3, 2, 4, 8, 64/3, 64, 256
GAMMA_POW_2S = {2: Fraction(4, 3), 3: 2, 4: 4, 5: 8, 6: Fraction(64, 3), 7: 64, 8: 256}


def cap_reference(s, N):
    """gamma_s * N^(1/s) by `decimal`, to 60 digits past its integer part,
    rounded half up to 4 decimals."""
    g = GAMMA_POW_2S[s]
    with localcontext() as ctx:
        ctx.prec = len(str(N)) // s + 64
        log_cap = (Decimal(g.numerator) / g.denominator).ln() / (2 * s) + Decimal(N).ln() / s
        return f"{log_cap.exp().quantize(Decimal('0.0001'), rounding=ROUND_HALF_UP):f}"


class TestKnuthBound:
    """The `knuth_bound` (text `B-bound`) cell: the packing cap printed from
    the exact constants."""

    def test_known_constants(self):
        # N = 1 exposes the constant itself
        assert [_packing_cap_text(s, 1) for s in (2, 3, 5, 8)] == [
            "1.0746", "1.1225", "1.2311", "1.4142"]

    def test_scaling(self):
        assert _packing_cap_text(2, 16) == "4.2983"
        # exact caps: 64^(1/14) * 2^(32/7) = 2^5, 256^(1/16) * 256^(1/8) = 2 sqrt(2)
        assert _packing_cap_text(7, 2**32) == "32.0000"
        assert _packing_cap_text(8, 256) == "2.8284"

    @pytest.mark.parametrize("s", [1, 9, 100])
    def test_unsupported_dimension(self, s):
        assert _packing_cap_text(s, 100) is None

    def test_matches_decimal_reference(self):
        rng = random.Random(4000)
        for _ in range(500):
            s, N = rng.randint(2, 8), rng.getrandbits(rng.randint(1, 4000)) | 1
            assert _packing_cap_text(s, N) == cap_reference(s, N), (s, N)

    def test_beyond_float_range(self):
        # gamma_2 * N^(1/2) past the largest double, printed in full
        for N in (2**2060, (17 * 10**307) ** 2):
            text = _packing_cap_text(2, N)
            assert len(text) > 310 and text == cap_reference(2, N)

    def test_caps_exact_values(self):
        # every exact spectral value must respect the packing bound
        for a, N, s in [(26, 625, 2), (5, 16, 2), (69069, 2**32, 5)]:
            r = spectral_test(a, N, s)
            assert within_packing_bound(s, N, r.v_sq)


class TestWithinPackingBound:
    @pytest.mark.parametrize("s", [1, 9, 100])
    def test_untabulated_dimension(self, s):
        assert within_packing_bound(s, 100, 1) is None

    def test_exact_at_the_boundary(self):
        # gamma_8^16 = 256: v_sq^8 <= 256 N^2 holds with equality at N = 1, v_sq = 2
        assert within_packing_bound(8, 1, 2) is True
        assert within_packing_bound(8, 1, 3) is False
        # gamma_6^12 = 64/3: 3 v_sq^6 <= 64 N^2, at N = 27: 3 * 4^6 <= 46656 < 3 * 5^6
        assert within_packing_bound(6, 27, 4) is True
        assert within_packing_bound(6, 27, 5) is False

    def test_decides_below_float_resolution(self):
        # v_sq^2 * 3 <= 4 N^2 fails by one unit of v_sq, a relative excess far
        # below any float slack
        N = 10**30
        v_sq = math.isqrt(4 * N * N // 3) + 1
        assert 3 * v_sq * v_sq > 4 * N * N
        assert within_packing_bound(2, N, v_sq) is False
        assert within_packing_bound(2, N, v_sq - 1) is True

    def test_agrees_with_knuth_bound_away_from_it(self):
        # the B mark against the printed cap, which is within 10^-4 of the cap
        rng = random.Random(8)
        eps, sides = Fraction(1, 10**4), set()
        for _ in range(300):
            s, N = rng.randint(2, 8), rng.randint(2, 10**12)
            cap = Fraction(_packing_cap_text(s, N))
            v_sq = rng.randint(1, int(cap * cap * 2) + 1)
            if not (cap - eps) ** 2 < v_sq < (cap + eps) ** 2:
                assert within_packing_bound(s, N, v_sq) == (v_sq < cap * cap)
                sides.add(v_sq < cap * cap)
        assert sides == {True, False}


class TestCheckBounds:
    PACKING_2 = BoundCheck("packing", "v_2 within the dimension-2 packing bound", True)

    def test_bounds_met_with_equality(self):
        # theorem 1 at a = 26: v_2^2 = 577 is both bounds
        tb = theorem_bounds(26, PotentialProfile(2, 1), 2)
        assert check_bounds(2, 625, 577, tb) == (
            BoundCheck("lower", "v_2^2 >= 577 (theorem 1)", True),
            BoundCheck("upper", "v_2^2 <= 577 (theorem 1)", True),
            self.PACKING_2,
        )

    @pytest.mark.parametrize("forged_a, lower, upper", [(27, False, True), (25, True, False)])
    def test_forged_bounds_fail(self, forged_a, lower, upper):
        # the theorem-1 bounds of a neighbouring multiplier, 1 + (a-2)^2, held
        # against v_2^2 = 577 of a = 26
        tb = theorem_bounds(forged_a, PotentialProfile(2, 1), 2)
        sq = 1 + (forged_a - 2) ** 2
        assert check_bounds(2, 625, 577, tb) == (
            BoundCheck("lower", f"v_2^2 >= {sq} (theorem 1)", lower),
            BoundCheck("upper", f"v_2^2 <= {sq} (theorem 1)", upper),
            self.PACKING_2,
        )

    @pytest.mark.parametrize("v_sq, passed", [(10, True), (1, False)])
    def test_theorem_3_lower_bound_is_asserted(self, v_sq, passed):
        # theorem 3 at a = 13, N = 16: lower 122/81, compared exactly; no upper
        tb = theorem_bounds(13, PotentialProfile(2, 9), 2)
        assert check_bounds(2, 16, v_sq, tb) == (
            BoundCheck("lower", "v_2^2 >= 122/81 (theorem 3)", passed),
            BoundCheck("packing", "v_2 within the dimension-2 packing bound", True),
        )

    def test_only_applicable_checks(self):
        upper_only = theorem_bounds(13, PotentialProfile(2, 9), 3)  # theorem 7
        assert [c.kind for c in check_bounds(3, 16, 6, upper_only)] == ["upper", "packing"]
        assert check_bounds(8, 625, 4, None) == (
            BoundCheck("packing", "v_8 within the dimension-8 packing bound", True),
        )
        assert check_bounds(9, 625, 4, None) == ()


class TestRegime:
    @pytest.mark.parametrize(
        "s,tau,lam,theorem_id,expected",
        [
            (2, 2, 1, 1, "S_EQ_TAU_2"),
            (2, 2, 2, 3, "S_EQ_TAU_2"),
            (3, 3, 1, 2, "S_EQ_TAU_GE3"),
            (7, 7, 1, 2, "S_EQ_TAU_GE3"),
            (3, 3, 2, 5, "S_EQ_TAU_GE3"),
            (2, 5, 1, 6, "S_LT_TAU"),
            (4, 16, 1, 6, "S_LT_TAU"),
            (6, 5, 1, 7, "S_GT_TAU"),
            (3, 2, 1, 7, "S_GT_TAU"),
        ],
    )
    def test_classification(self, s, tau, lam, theorem_id, expected):
        # the theorem that (s, tau, lambda) selects names the regime
        a, profile = 1001, PotentialProfile(tau, lam)
        tb = theorem_bounds(a, profile, s)
        assert tb.theorem_id == theorem_id
        assert SpectralResult(a, 10**9, s, 1, (), profile, tb).regime == expected

    def test_rejects_small_s(self):
        with pytest.raises(InvalidParams):
            theorem_bounds(5, PotentialProfile(2, 1), 1)


class TestTheoremBounds:
    def test_exact_dimension_two(self):
        tb = theorem_bounds(26, PotentialProfile(2, 1), 2)
        assert tb.theorem_id == 1
        assert tb.lower_sq == tb.upper_sq == 577
        d = cli._bounds_json(tb, 625)
        assert d["lower_exact_sq"] == d["upper_exact_sq"] == "577"
        assert tb.conditions_met == ("a >= 5",)
        assert tb.violations == ()
        assert d["lower"] == pytest.approx(577**0.5)

    def test_exact_dimension_two_small_a(self):
        tb = theorem_bounds(4, PotentialProfile(2, 1), 2)
        assert tb.theorem_id == 1
        assert tb.lower_sq is None and tb.upper_sq is None
        assert tb.violations == ("a < 5",)

    def test_tau_two_with_kernel(self):
        # a = 5, N = 8: lambda = 2 divides a - 1, upper estimate is attained
        tb = theorem_bounds(5, PotentialProfile(2, 2), 2)
        assert tb.theorem_id == 3
        assert tb.lower_sq == Fraction(10, 4)
        assert "lower_unverified" not in cli._bounds_json(tb, 8)
        assert tb.upper_sq == 8
        assert "lambda divides a-1" in tb.conditions_met
        assert spectral_test(5, 8, 2).v_sq == 8

    def test_tau_two_kernel_not_dividing(self):
        # a = 13, N = 16: lambda = 9 does not divide 12, upper side omitted
        tb = theorem_bounds(13, PotentialProfile(2, 9), 2)
        assert tb.theorem_id == 3
        assert tb.upper_sq is None
        assert tb.lower_sq == Fraction(122, 81)
        assert any("does not divide" in v for v in tb.violations)

    def test_matched_dimension_lambda_one(self):
        tb = theorem_bounds(129, PotentialProfile(5, 1), 5)
        assert tb.theorem_id == 2
        assert tb.lower_sq == 119**2 == 14161
        assert tb.upper_sq == 129**2 + 1 == 16642

    def test_matched_dimension_a_too_small(self):
        tb = theorem_bounds(10, PotentialProfile(5, 1), 5)
        assert tb.theorem_id == 2
        assert tb.lower_sq is None and tb.upper_sq is None
        assert tb.violations == ("a <= b_5 = 10",)

    def test_matched_dimension_with_kernel(self):
        # a = 5, N = 32: profile (3, 2)
        tb = theorem_bounds(5, PotentialProfile(3, 2), 3)
        assert tb.theorem_id == 5
        assert tb.lower_sq == Fraction(4, 4) == 1
        # a Fraction, written as str writes it
        assert cli._bounds_json(tb, 32)["lower_exact_sq"] == "1"
        assert tb.upper_sq == (4 // 2) ** 2 * math.comb(4, 2) == 24
        assert spectral_test(5, 32, 3).v_sq == 6

    def test_matched_dimension_kernel_not_dividing(self):
        # a = 7, profile (3, 4): 4 does not divide 6
        tb = theorem_bounds(7, PotentialProfile(3, 4), 3)
        assert tb.theorem_id == 5
        assert tb.lower_sq == Fraction(16, 16)
        assert tb.upper_sq is None
        assert any("does not divide" in v for v in tb.violations)

    def test_below_tau(self):
        for s, lo in [(2, 127**2), (3, 126**2), (4, 125**2)]:
            tb = theorem_bounds(129, PotentialProfile(5, 1), s)
            assert tb.theorem_id == 6
            assert tb.lower_sq == lo
            assert tb.upper_sq == 16642
            assert "lambda <= (a-1)^(tau-s)" in tb.conditions_met

    def test_below_tau_lambda_window_violated(self):
        lam = 17267**16
        tb = theorem_bounds(69069, PotentialProfile(16, lam), 2)
        assert tb.theorem_id == 6
        assert tb.lower_sq is None and tb.upper_sq is None
        assert tb.violations == ("lambda > (a-1)^(tau-s)",)

    def test_above_tau(self):
        tb = theorem_bounds(69069, PotentialProfile(2, 1), 3)
        assert tb.theorem_id == 7
        assert tb.lower_sq is None
        assert tb.upper_sq == math.comb(4, 2) == 6
        tb = theorem_bounds(129, PotentialProfile(5, 1), 6)
        assert tb.theorem_id == 7
        assert cli._bounds_json(tb, 128**5)["upper_exact_sq"] == str(math.comb(10, 5)) == "252"

    def test_mu_window_consistent(self):
        tb = theorem_bounds(129, PotentialProfile(5, 1), 5)
        N = 128**5
        d = cli._bounds_json(tb, N)
        assert d["mu_lower"] == pytest.approx(merit(5, 14161, N), rel=1e-13)
        assert d["mu_upper"] == pytest.approx(merit(5, 16642, N), rel=1e-13)

    def test_mu_window_past_float_range_is_null(self):
        # s = 35 > tau = 33: theorem 7's upper bound C(66, 33) puts mu near
        # 10^313, while its root stays a float
        d = cli._bounds_json(theorem_bounds(3, PotentialProfile(33, 1), 35), 2**33)
        assert d["mu_upper"] is None and d["mu_lower"] is None
        assert d["upper_exact_sq"] == str(math.comb(66, 33))
        assert math.isfinite(d["upper"])
        out = io.StringIO()
        cli._json_out(d, out)
        assert json.loads(out.getvalue()) == d
        assert '"mu_upper": null' in out.getvalue()

    def test_rejects(self):
        with pytest.raises(InvalidParams):
            theorem_bounds(5, PotentialProfile(2, 3), 2)  # 3 does not divide 16
        with pytest.raises(InvalidParams):
            theorem_bounds(1, PotentialProfile(2, 1), 2)
        with pytest.raises(InvalidParams):
            theorem_bounds(5, PotentialProfile(2, 1), 1)

    def test_json_dict(self):
        d = cli._bounds_json(theorem_bounds(26, PotentialProfile(2, 1), 2), 625)
        assert d["theorem"] == 1
        assert d["lower_exact_sq"] == "577"
        assert d["violations"] == []
        json.dumps(d)

    def test_json_follows_replaced_bounds(self):
        # every rendered bound field is derived from lower_sq/upper_sq, so a
        # replaced bound leaves no stale copy behind
        tb = theorem_bounds(26, PotentialProfile(2, 1), 2)
        tb = tb._replace(lower_sq=7, upper_sq=Fraction(9, 4))
        d = cli._bounds_json(tb, 625)
        assert (d["lower_exact_sq"], d["upper_exact_sq"]) == ("7", "9/4")
        assert d["lower"] == pytest.approx(7**0.5, rel=1e-15)
        assert d["upper"] == pytest.approx(1.5, rel=1e-15)
        assert d["mu_lower"] == merit(2, 7, 625)
        assert d["mu_upper"] == merit(2, Fraction(9, 4), 625)
        d = cli._bounds_json(tb._replace(lower_sq=None, upper_sq=700), 625)
        assert (d["lower_exact_sq"], d["upper_exact_sq"]) == (None, "700")
        assert d["lower"] is None and d["mu_lower"] is None
        assert d["upper"] == pytest.approx(700**0.5, rel=1e-15)
        assert d["mu_upper"] == merit(2, 700, 625)


class TestSpectralTest:
    def test_known_dimension_two(self):
        r = spectral_test(26, 625, 2)
        assert r.v_sq == 577
        assert r.vector == (1, 24)
        assert r.regime == "S_EQ_TAU_2"
        assert r.profile == PotentialProfile(2, 1)
        assert r.bounds.lower_sq == r.bounds.upper_sq == 577
        assert r.mu == pytest.approx(merit(2, 577, 625), rel=1e-15)

    def test_values_beyond_float_range(self):
        # v_2 ~ 2^1030: the display floats are None, the exact fields stay
        a = 2**1030 + 1
        r = spectral_test(a, 2**2060, 2)
        assert r.v_sq == 1 + (a - 2) ** 2 and r.vector == (1, a - 2)
        d = cli._bounds_json(r.bounds, r.N)
        assert d["lower"] is None and d["upper"] is None
        assert d["lower_exact_sq"] == d["upper_exact_sq"] == str(r.v_sq)
        assert r.mu == pytest.approx(math.pi, rel=1e-12)

    def test_small_exact_formula(self):
        r = spectral_test(5, 16, 2)
        assert r.v_sq == 1 + (5 - 2) ** 2 == 10
        assert r.vector == (1, 3)

    def test_marsaglia_battery(self):
        want = {3: 2072544, 4: 52804, 5: 6990, 6: 242}
        for s, v in want.items():
            r = spectral_test(69069, 2**32, s)
            assert r.v_sq == v

    def test_tuned_dimension_two(self):
        r = spectral_test(1664525, 2**32, 2)
        assert r.v_sq == 4938916874
        assert round(r.mu, 4) == 3.6126
        assert r.lg_v == pytest.approx(0.5 * math.log10(4938916874), rel=1e-13)

    def test_no_potential_still_reports_lattice_figures(self):
        r = spectral_test(23, 10**8 + 1, 2)
        assert r.v_sq == 530
        assert r.profile is None and r.regime is None and r.bounds is None
        assert spectral_test(23, 10**8 + 1, 6).v_sq == 447

    def test_bounds_attached_even_when_violated(self):
        r = spectral_test(69069, 2**32, 2)
        assert r.v_sq == 4243209856
        assert r.regime == "S_LT_TAU"
        assert r.bounds.theorem_id == 6
        assert r.bounds.lower_sq is None
        assert "lambda > (a-1)^(tau-s)" in r.bounds.violations

    def test_dimension_monotonicity(self):
        for a, N in [(69069, 2**32), (26, 625), (129, 2**35)]:
            vals = [spectral_test(a, N, s).v_sq for s in range(2, 6)]
            assert vals == sorted(vals, reverse=True)

    def test_json_dict(self):
        # only what varies with s: a, N and the profile are stated once by `analyze`
        d = cli._result_json(spectral_test(26, 625, 2))
        assert sorted(d) == ["bounds", "lg_v", "mu", "regime", "s", "v_sq", "vector"]
        assert d["s"] == 2 and d["v_sq"] == "577"
        assert d["vector"] == ["1", "24"]
        assert d["regime"] == "S_EQ_TAU_2"
        assert d["bounds"]["theorem"] == 1
        json.dumps(d)

    def test_json_dict_without_profile(self):
        d = cli._result_json(spectral_test(23, 10**8 + 1, 2))
        assert sorted(d) == ["bounds", "lg_v", "mu", "regime", "s", "v_sq", "vector"]
        assert d["regime"] is None and d["bounds"] is None

    def test_result_carries_no_certificate_flag(self):
        # shortest_vector always certifies, so a copy of its flag says nothing
        assert "certified" not in SpectralResult._fields

    def test_rejects(self):
        with pytest.raises(InvalidParams):
            spectral_test(5, 5, 2)
        with pytest.raises(InvalidParams):
            spectral_test(1, 16, 2)
        with pytest.raises(InvalidParams):
            spectral_test(5, 16, 1)


class TestBoundSandwich:
    def test_small_domain_sweep(self):
        # Every max-period pair with N <= 100: exact value inside every
        # applicable estimate.
        checked = 0
        for N in range(4, 101):
            for a in range(2, N):
                if not check_max_period(LcgParams(a, 1, N)).ok:
                    continue
                for s in (2, 3, 4):
                    r = spectral_test(a, N, s)
                    tb = r.bounds
                    if tb is None:
                        continue
                    v = Fraction(r.v_sq)
                    if tb.upper_sq is not None:
                        assert v <= tb.upper_sq, (a, N, s)
                        checked += 1
                    if tb.lower_sq is not None:
                        assert v >= tb.lower_sq, (a, N, s)
                        checked += 1
        assert checked > 350

    def test_whole_populations(self):
        # every maximum-period multiplier of three moduli, s = 2..8: each
        # check of each chain holds.  The closest approach of v_s^2 to each
        # theorem's lower bound is frozen, so a lower bound raised by as
        # little as 1 fails here too.
        populations = {2**10: 255, 3**7: 728, 2**6 * 3**4: 431}
        checks, failed, closest = [], [], {}
        for N, count in populations.items():
            multipliers = [a for a in range(2, N) if check_max_period(LcgParams(a, 1, N)).ok]
            assert len(multipliers) == count, N
            for a in multipliers:
                for r in spectral_profile(a, N, range(2, 9)):
                    for chk in check_bounds(r.s, N, r.v_sq, r.bounds):
                        checks.append(chk)
                        if not chk.passed:
                            failed.append((a, N, chk.name))
                        if chk.kind == "lower":
                            thm, gap = r.bounds.theorem_id, r.v_sq - r.bounds.lower_sq
                            closest[thm] = min(closest.get(thm, gap), gap)
        assert failed == []
        assert len(checks) == 15884
        assert closest == {1: 0, 3: Fraction(3361823, 839808), 6: 13,
                           5: Fraction(110196675488690687165775098, 36732225162896895721934329)}

    def test_theorem_2_past_the_goldens(self):
        # every maximum-period a with b_s < a <= b_s + 120 at N = (a-1)^s:
        # tau = s and lambda = 1, so both bounds of theorem 2 are asserted.
        # The closest approach to the lower bound is frozen per s.
        count, closest = 0, {}
        for s in range(3, 7):
            b = b_coefficient(s)
            for a in range(b + 1, b + 121):
                N = (a - 1) ** s
                if not check_max_period(LcgParams(a, 1, N)).ok:
                    continue
                (r,) = spectral_profile(a, N, range(s, s + 1))
                assert r.bounds.theorem_id == 2, (a, s)
                assert all(chk.passed for chk in check_bounds(s, N, r.v_sq, r.bounds)), (a, s)
                count += 1
                gap = r.v_sq - r.bounds.lower_sq
                closest[s] = min(closest.get(s, gap), gap)
        assert count == 360
        assert closest == {3: 5, 4: 5, 5: 99, 6: 381}

    def test_theorem_3_past_the_goldens(self):
        # every maximum-period (a, lambda) with a < 400, lambda > 1 and
        # N = (a-1)^2 / lambda whose profile is (2, lambda): every check holds,
        # and so does the stronger v_2^2 >= (N/(a-1))^2 that proves the lower
        # estimate (see `theorem_bounds`).  The closest approach to the lower
        # bound is frozen.
        def holds(a, N, lam):
            (r,) = spectral_profile(a, N, range(2, 3))
            assert r.bounds.theorem_id == 3, (a, lam)
            for chk in check_bounds(2, N, r.v_sq, r.bounds):
                assert chk.passed, (a, lam, chk.name)
            assert r.v_sq * (a - 1) ** 2 >= N * N, (a, lam)
            return r.v_sq - r.bounds.lower_sq

        count, closest = 0, None
        for a in range(3, 400):
            for lam in divisors((a - 1) ** 2):
                N = (a - 1) ** 2 // lam
                if lam == 1 or N <= a or not check_max_period(LcgParams(a, 1, N)).ok:
                    continue
                if compute_potential(a, N) != (2, lam):
                    continue
                gap = holds(a, N, lam)
                count += 1
                closest = gap if closest is None else min(closest, gap)
        assert count == 2615
        assert closest == Fraction(27, 8)

        # seeded pairs N = b^2/lambda <= 2^bits, bits up to 64, with a = b + 1
        # and lambda = c or c^2, no maximum period needed: both
        # lambda | a-1 and lambda not dividing a-1 are reached
        rng = random.Random(20261020)
        count, branches = 0, set()
        while count < 2000:
            c = rng.randrange(2, 2**12)
            lam = c ** rng.choice((1, 2))
            b = c * rng.randrange(2, max(3, math.isqrt(lam << rng.randrange(16, 65)) // c + 1))
            a, N = b + 1, b * b // lam
            if N <= a or compute_potential(a, N) != (2, lam):
                continue
            holds(a, N, lam)
            count += 1
            branches.add(b % lam == 0)
        assert branches == {True, False}

    def test_random_consistency(self):
        rng = random.Random(20260814)
        for _ in range(40):
            N = rng.randrange(16, 4096)
            a = rng.randrange(2, N)
            s = rng.choice([2, 3])
            try:
                r = spectral_test(a, N, s)
            except InvalidParams:
                continue
            assert r.v_sq >= 1
            assert r.mu == pytest.approx(merit(s, r.v_sq, N), rel=1e-13)
            if s == 2:
                assert within_packing_bound(2, N, r.v_sq)


# the published pairs of the benchmark's `sweep` workload
SWEEP_PAIRS = [
    (69069, 2**32),
    (1664525, 2**32),
    (25214903917, 2**48),
    (6364136223846793005, 2**64),
    (3141592621, 10**10),
    (23, 10**8 + 1),
]


def radical(n):
    r, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            r *= p
            while n % p == 0:
                n //= p
        p += 1
    return r * n if n > 1 else r


def max_period_pairs(seed, count, n_max):
    """`count` seeded (a, N) with 4 <= N <= n_max and maximum period: a-1 a
    multiple of every prime of N, and of 4 when 4 | N."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        N = rng.randint(4, n_max)
        step = radical(N)
        if N % 4 == 0:
            step = math.lcm(step, 4)
        if step + 1 >= N:
            continue
        a = 1 + step * rng.randint(1, (N - 2) // step)
        assert check_max_period(LcgParams(a, 1, N)).ok
        pairs.append((a, N))
    return pairs


def divisors(n):
    """Every positive divisor of n, by trial division."""
    found, p = [1], 2
    while n > 1:
        if p * p > n:
            p = n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        found = [d * p**k for d in found for k in range(e + 1)]
        p += 1
    return found


def per_dimension(a, N, dims):
    return [spectral_test(a, N, s) for s in dims]


class TestSpectralProfile:
    @pytest.mark.parametrize("a, N", SWEEP_PAIRS)
    def test_matches_per_dimension_on_sweep_pairs(self, a, N):
        dims = range(2, 13)
        assert spectral_profile(a, N, dims) == per_dimension(a, N, dims)

    def test_no_potential(self):
        got = spectral_profile(23, 10**8 + 1, range(2, 7))
        assert [r.v_sq for r in got] == [530, 530, 530, 530, 447]
        assert all(r.profile is None and r.regime is None and r.bounds is None
                   for r in got)

    @pytest.mark.parametrize("a, N", SWEEP_PAIRS + [(69069, 69068**6), (129, 2**35)])
    def test_range_starting_above_two(self, a, N):
        got = spectral_profile(a, N, range(5, 10))
        assert [r.s for r in got] == [5, 6, 7, 8, 9]
        assert got == per_dimension(a, N, range(5, 10))

    def test_seeded_max_period_pairs(self):
        rng = random.Random(6)
        for a, N in max_period_pairs(6, 200, 2**16):
            lo = rng.randint(2, 5)
            dims = range(lo, rng.randint(lo, 9) + 1)
            got = spectral_profile(a, N, dims)
            assert got == per_dimension(a, N, dims), (a, N, dims)
            assert got[0].profile is not None

    def test_small_moduli_against_both_oracles(self):
        for a, N in max_period_pairs(256, 40, 256):
            for r in spectral_profile(a, N, range(2, 6)):
                s = r.s
                brute = brute_force_shortest(a, N, s, box=N)
                assert (r.v_sq, r.vector) == (brute.norm_sq, brute.vector), (a, N, s)
                want = ref.enumerate_shortest(ref.lll_reduce(dual_basis(a, N, s).rows))
                assert (r.v_sq, r.vector) == want, (a, N, s)

    @pytest.mark.parametrize("a, N", SWEEP_PAIRS + [(26, 625), (69069, 69068**6)])
    def test_every_chained_basis_spans_the_dual_lattice(self, a, N):
        # the walk spectral_profile makes, checked at every step on the basis
        # handed to the solver and on the reduced basis it extends
        basis = dual_basis(a, N, 2)
        for s in range(2, 13):
            shortest_vector(basis)
            for b in (basis, basis._reduced):
                assert b.dim == s
                assert abs(ref.int_det(b.rows)) == N
                for row in b.rows:
                    assert sum(v * pow(a, j, N) for j, v in enumerate(row)) % N == 0
                assert b._gs == _integral_gs(b.rows)
            basis = extend_dual_basis(basis, a, N)

    def test_inverse_pairs_share_every_v_s(self):
        # a and its inverse b mod N: a congruence vector of a, reversed, is
        # one of b (multiplied by b^(s-1)), so v_s agrees in every dimension
        rng = random.Random(120)
        moduli = ([2**k for k in range(6, 41)] + [3**k for k in range(4, 25)]
                  + [10**k for k in range(2, 13)] + [2**6 * 3**4, 2**10 * 5**3])
        checked = 0
        while checked < 100:
            N = rng.choice(moduli)
            a = rng.randrange(2, N)
            if math.gcd(a, N) != 1:
                continue
            b = pow(a, -1, N)
            ours, theirs = spectral_profile(a, N, range(2, 9)), spectral_profile(b, N, range(2, 9))
            assert [r.v_sq for r in ours] == [r.v_sq for r in theirs], (a, N)
            for r in ours:
                flipped = r.vector[::-1]
                assert sum(m * pow(b, j, N) for j, m in enumerate(flipped)) % N == 0, (a, N, r.s)
            checked += 1

    def test_compute_potential_runs_once(self, monkeypatch):
        from lcgspec import spectral

        calls = []
        real = spectral.compute_potential
        monkeypatch.setattr(spectral, "compute_potential",
                            lambda a, N: calls.append(1) or real(a, N))
        spectral_profile(69069, 2**32, range(2, 9))
        assert calls == [1]

    def test_rejects(self):
        # a range only: a list is refused even when it is contiguous
        for dims in ([], [2, 4], [3, 2], range(4, 2, -1), [2, 3], range(2, 6, 2)):
            with pytest.raises(InvalidParams):
                spectral_profile(69069, 2**32, dims)
        with pytest.raises(InvalidParams):
            spectral_profile(5, 16, range(1, 3))
        with pytest.raises(InvalidParams):
            spectral_profile(16, 16, range(2, 3))

    @pytest.mark.parametrize("a, N, dims, exc, message", [
        (16, 16, range(1, 100001), InvalidParams, "need 2 <= a < N, got a=16, N=16"),
        (5, 16, range(100000, 1, -1), InvalidParams,
         "need a contiguous ascending range of dimensions, got range(100000, 1, -1)"),
        (5, 16, [2, 10**9], InvalidParams,
         "need a contiguous ascending range of dimensions, got [2, 1000000000]"),
        (5, 16, range(1, 100001), InvalidParams, "dimension must be >= 2, got 1"),
        (5, 16, range(3000, 3001), DimensionTooLarge, "dimension 3000 exceeds enumeration cap 12"),
        (5, 16, range(2, 100001), DimensionTooLarge, "dimension 13 exceeds enumeration cap 12"),
        # longer than sys.maxsize, so len() would overflow
        (5, 16, range(2, 10**23), DimensionTooLarge, "dimension 13 exceeds enumeration cap 12"),
    ])
    def test_refused_from_the_endpoints(self, monkeypatch, a, N, dims, exc, message):
        # in this order, and before a dual basis or a list of the dimensions exists
        from lcgspec import spectral

        def boom(*args, **kwargs):
            raise AssertionError("a dual basis was built")

        monkeypatch.setattr(spectral, "dual_basis", boom)
        tracemalloc.start()
        try:
            with pytest.raises(exc) as info:
                spectral_profile(a, N, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 256 * 1024

    def test_spectral_test_over_cap_builds_no_basis(self, monkeypatch):
        from lcgspec import spectral

        def boom(*args, **kwargs):
            raise AssertionError("a dual basis was built")

        monkeypatch.setattr(spectral, "dual_basis", boom)
        with pytest.raises(DimensionTooLarge, match="^dimension 3000 exceeds enumeration cap 12$"):
            spectral_test(5, 16, 3000)
        with pytest.raises(DimensionTooLarge, match="^dimension 6 exceeds enumeration cap 5$"):
            spectral_test(5, 16, 6, cap=5)

    @pytest.mark.parametrize("dims, cap, first", [
        (range(2, 15), None, 13),
        (range(11, 14), 12, 13),
        (range(13, 16), None, 13),
        (range(2, 4), 1, 2),
    ])
    def test_cap_refused_before_any_solver_work(self, monkeypatch, dims, cap, first):
        # cap None: the default, by leaving the argument out
        def boom(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(lattice, "lll_reduce", boom)
        limit = 12 if cap is None else cap
        with pytest.raises(DimensionTooLarge) as exc:
            spectral_profile(69069, 2**32, dims, *([] if cap is None else [cap]))
        assert str(exc.value) == f"dimension {first} exceeds enumeration cap {limit}"
