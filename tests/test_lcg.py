import math
import random
import sys
import time
from fractions import Fraction

import pytest

from lcgspec import errors, lcg
from lcgspec._chunks import _fraction_digits
from lcgspec.errors import InvalidParams, NoPotential, PotentialOne
from lcgspec.lcg import (
    LcgParams,
    check_max_period,
    compute_potential,
    default_digits,
)
from lcgspec.numtheory import factorize


def steps_back_to_seed(params):
    """How many steps until x0 recurs, or None within N steps (the orbit
    can fall into a cycle that excludes x0 when a is not invertible)."""
    x = params.x0
    for n in range(1, params.N + 1):
        x = (params.a * x + params.c) % params.N
        if x == params.x0:
            return n
    return None


def naive_potential(a, N):
    """Smallest t with N | (a-1)^t, by direct powering."""
    am1 = a - 1
    power = 1
    for t in range(1, N.bit_length() + 2):
        power *= am1
        if power % N == 0:
            return t, power // N
    return None


# -- parameters ----------------------------------------------------------


def test_params_validation():
    LcgParams(2, 1, 3, 0)
    with pytest.raises(InvalidParams):
        LcgParams(1, 1, 5, 0)  # a < 2
    with pytest.raises(InvalidParams):
        LcgParams(5, 1, 5, 0)  # a >= N
    with pytest.raises(InvalidParams):
        LcgParams(2, 0, 5, 0)  # c < 1
    with pytest.raises(InvalidParams):
        LcgParams(3, 2, 4, 0)  # gcd(c, N) != 1
    with pytest.raises(InvalidParams):
        LcgParams(2, 1, 5, 5)  # x0 out of range
    with pytest.raises(InvalidParams):
        LcgParams(2, 1, 1, 0)  # N too small


# -- maximum period ------------------------------------------------------


def test_max_period_criterion_equals_actual_period():
    # the three divisibility conditions against the real cycle length
    for N in range(2, 65):
        for a in range(2, N):
            for c in (1, 3):
                if math.gcd(c, N) != 1 or c >= N:
                    continue
                p = LcgParams(a, c, N, 0)
                assert check_max_period(p).ok == (steps_back_to_seed(p) == N), (a, c, N)


def test_max_period_known_good():
    for a, c, N in [(26, 1, 625), (69069, 1, 2**32), (21, 7, 100)]:
        assert check_max_period(LcgParams(a, c, N)).ok


def test_max_period_failure_messages():
    rep = check_max_period(LcgParams(4, 1, 8))
    assert not rep.ok
    assert rep.failures == (
        "primes of 8 divide N but not a-1",
        "N divisible by 4 but a-1 is not",
    )
    rep = check_max_period(LcgParams(7, 1, 36))
    assert rep.failures == ("N divisible by 4 but a-1 is not",)


def test_max_period_matches_factored_hull_dobell():
    # gcd-stripping against Hull-Dobell read off an explicit prime list,
    # including the exact unstripped part named in the failure message
    for N in range(3, 400):
        primes = factorize(N)
        for a in range(2, N):
            am1 = a - 1
            foreign = math.prod(p**e for p, e in primes.items() if am1 % p)
            expected = []
            if foreign > 1:
                expected.append(f"primes of {foreign} divide N but not a-1")
            if N % 4 == 0 and am1 % 4:
                expected.append("N divisible by 4 but a-1 is not")
            for c in (1, 3):
                if c >= N or math.gcd(c, N) != 1:
                    continue
                rep = check_max_period(LcgParams(a, c, N))
                assert rep.failures == tuple(expected), (a, c, N)
                assert rep.ok == (not expected)


def test_max_period_without_factoring_n():
    # N = (p*q)^2 with primes p, q ~ 2^55 is beyond trial division and a
    # bounded Pollard rho; gcd-stripping against a - 1 = p*q takes two passes
    p, q = 36028797018963971, 36028797018963979
    a = p * q + 1
    assert a == 1298074214633707411535782347800610
    assert check_max_period(LcgParams(a, 1, (a - 1) ** 2)).ok
    profile = compute_potential(a, (a - 1) ** 2)
    assert (profile.tau, profile.lam) == (2, 1)


def test_strip_matches_the_gcd_with_all_of_a_minus_1():
    # each pass takes its gcd with the last one; the plain loop takes it with
    # all of a-1, and gives the same remainder and pass count
    def plain(a, N):
        r, passes = N, 0
        while (g := math.gcd(r, a - 1)) > 1:
            r //= g
            passes += 1
        return r, passes

    rng = random.Random(34)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(3000):
        m = math.prod(p ** rng.randrange(4) for p in primes) * rng.choice((1, 17, 19 * 23))
        N = math.prod(p ** rng.randrange(12) for p in primes) * rng.choice((1, 1, 17, 29))
        assert lcg._strip_shared_primes(m + 1, N) == plain(m + 1, N), (m + 1, N)


def test_strip_is_not_quadratic_in_its_passes():
    # 14,000 passes; with the gcd of each against all 14,000 bits of a-1 the
    # strip took 2.5 s, against the last gcd (2) 0.07 s (Python 3.11, x86-64)
    a, N = 2 * 3**8800 + 1, 2**14000
    start = time.perf_counter()
    assert lcg._strip_shared_primes(a, N) == (1, 14000)
    assert time.perf_counter() - start < 0.5


# -- potential -----------------------------------------------------------


@pytest.mark.parametrize(
    "a,N,tau,lam",
    [
        (26, 625, 2, 1),
        (5, 16, 2, 1),
        (5, 8, 2, 2),
        (13, 16, 2, 9),
        (5, 32, 3, 2),
        (129, 2**35, 5, 1),
        (69069, 69068**2, 2, 1),
        (69069, 69068**6, 6, 1),
    ],
)
def test_compute_potential_known(a, N, tau, lam):
    profile = compute_potential(a, N)
    assert (profile.tau, profile.lam) == (tau, lam)
    assert (a - 1) ** tau == N * lam


def test_compute_potential_matches_naive_oracle():
    for N in range(2, 200):
        for a in range(2, min(N, 60)):
            expected = naive_potential(a, N)
            if expected is None or expected[0] == 1:
                with pytest.raises((NoPotential, PotentialOne)):
                    compute_potential(a, N)
            else:
                profile = compute_potential(a, N)
                assert (profile.tau, profile.lam) == expected, (a, N)


def test_compute_potential_large():
    profile = compute_potential(69069, 2**32)
    assert profile.tau == 16
    assert profile.lam == 17267**16
    assert 69068**16 == 2**32 * profile.lam


def test_cofactor_past_the_digit_limit_is_refused_exactly(monkeypatch):
    # with a 5-digit limit, lambda is refused exactly when it reaches 10^5,
    # whether bit lengths decide it or the quotient is formed and measured;
    # the digit rule reads the limit in `errors`
    monkeypatch.setattr(errors, "_max_str_digits", lambda: 5)
    refused = 0
    for N in range(2, 300):
        for a in range(2, min(N, 120)):
            expected = naive_potential(a, N)
            if expected is None or expected[0] == 1:
                continue
            if expected[1] >= 10**5:
                refused += 1
                with pytest.raises(InvalidParams, match="has more than 5 digits"):
                    compute_potential(a, N)
            else:
                assert compute_potential(a, N) == expected, (a, N)
    assert refused > 100


def test_cofactor_at_the_print_limit():
    # lambda = 10^j / 2^j = 5^j: the last j whose cofactor Python still
    # prints, and the first it would not
    limit = sys.get_int_max_str_digits()  # 4300 unless the interpreter was told otherwise
    j = math.floor(limit / math.log10(5))
    assert 5**j < 10**limit <= 5 ** (j + 1)
    assert compute_potential(11, 2**j) == (j, 5**j)
    with pytest.raises(InvalidParams, match=f"lambda = \\(a-1\\)\\^{j + 1}/N has more than"):
        compute_potential(11, 2 ** (j + 1))


def test_potential_error_kinds():
    with pytest.raises(NoPotential):
        compute_potential(2, 3)  # a-1 = 1 shares no prime with N
    with pytest.raises(NoPotential):
        compute_potential(8, 10)  # 5 never divides 7^t
    with pytest.raises(PotentialOne):
        compute_potential(6, 5)  # N | a-1 at the first power


@pytest.mark.parametrize("a, N", [(1, 8), (5, 0)], ids=["a-1", "N-0"])
def test_potential_refuses_a_below_2_or_N_below_1(a, N):
    with pytest.raises(InvalidParams) as refusal:
        compute_potential(a, N)
    assert str(refusal.value) == f"need a >= 2 and N > 0, got a={a}, N={N}"


# -- decimal normalization -----------------------------------------------


def render(x, N, digits):
    """x/N as every dump and report prints it: "0." + its digits, or "0"."""
    f = _fraction_digits([x], N, digits)[0]
    return "0." + f if f else "0"


@pytest.mark.parametrize(
    "x,N,digits,expected",
    [
        (255, 625, 4, "0.408"),
        (381, 625, 4, "0.6096"),
        (0, 625, 4, "0"),
        (1, 625, 4, "0.0016"),
        (8, 16, 4, "0.5"),
        (1, 3, 6, "0.333333"),
        (2, 3, 6, "0.666666"),  # truncated, not rounded
        (255, 625, 2, "0.4"),  # fewer digits than the exact expansion truncate
        (1, 625, 2, "0"),
        (624, 625, 8, "0.9984"),  # more digits add no trailing zeros
        (2, 3, 1, "0.6"),
    ],
)
def test_normalize(x, N, digits, expected):
    # x/N truncated and trimmed, by the renderer every dump and report uses
    assert render(x, N, digits) == expected


def test_default_digits():
    assert default_digits(625) == 4  # 5^4: terminating in 4 digits
    assert default_digits(2**10) == 10
    assert default_digits(10**10) == 10
    assert default_digits(3) == 2  # non-terminating: len(str(N)) + 1


def test_normalize_round_trip_terminating():
    # terminating expansions recover x exactly: x = u * N
    for N in (16, 625, 800, 10**6):
        d = default_digits(N)
        for x in range(0, N, max(1, N // 97)):
            u = Fraction(render(x, N, d))
            assert u * N == x


def test_normalize_round_trip_general_nearest():
    N = 3141592621
    d = default_digits(N)
    for x in (0, 1, 17, N // 2, N - 1):
        u = Fraction(render(x, N, d))
        assert round(u * N) == x


@pytest.mark.parametrize("N", [16, 625, 800, 2**20, 10**6,  # N | 10^d: the x * K path
                               3, 7, 3**7, 3**12, 10**8 + 1, 3141592621])
def test_batch_renderer_matches_fraction_truncation(N):
    rng = random.Random(N)
    xs = [0, 1, N - 1] + [rng.randrange(N) for _ in range(200)]
    dd = default_digits(N)
    for digits in sorted({1, max(1, dd - 2), dd, dd + 3}):
        got = _fraction_digits(xs, N, digits)
        assert len(got) == len(xs)
        for x, frac in zip(xs, got):
            want = Fraction(math.floor(Fraction(x, N) * 10**digits), 10**digits)
            assert Fraction(int(frac or "0"), 10**len(frac)) == want
            assert len(frac) <= digits
            assert frac == "" or (frac.isdigit() and not frac.endswith("0"))
            assert _fraction_digits([x], N, digits) == [frac]
