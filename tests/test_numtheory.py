import math

import pytest

from lcgspec.errors import FactorizationError, InvalidParams
from lcgspec.numtheory import factorize, is_probable_prime


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return {i for i, f in enumerate(flags) if f}


def test_is_probable_prime_matches_sieve():
    primes = sieve(10_000)
    for n in range(10_000):
        assert is_probable_prime(n) == (n in primes), n


def test_is_probable_prime_large_known():
    assert is_probable_prime(2**61 - 1)
    assert is_probable_prime(10**9 + 7)
    assert not is_probable_prime(2**62 - 1)
    assert not is_probable_prime((2**31 - 1) * (2**19 - 1))
    # Carmichael numbers fool Fermat but not Miller-Rabin
    for carmichael in (561, 1105, 1729, 41041, 825265):
        assert not is_probable_prime(carmichael), carmichael


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, {}),
        (2, {2: 1}),
        (12, {2: 2, 3: 1}),
        (625, {5: 4}),
        (2**32, {2: 32}),
        (10**8 + 1, {17: 1, 5882353: 1}),
        (10**10, {2: 10, 5: 10}),
        (69068, {2: 2, 31: 1, 557: 1}),
        (1664524, {2: 2, 71: 1, 5861: 1}),
        (3141592621, {137: 1, 239: 1, 95947: 1}),
    ],
)
def test_factorize_known(n, expected):
    assert factorize(n) == expected


def test_factorize_round_trip_range():
    for n in range(1, 3000):
        factors = factorize(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(is_probable_prime(p) and e >= 1 for p, e in factors.items())


def test_factorize_big_composite():
    n = 69068**6
    factors = factorize(n)
    assert factors == {2: 12, 31: 6, 557: 6}
    assert math.prod(p**e for p, e in factors.items()) == n


def test_factorize_rejects_nonpositive():
    with pytest.raises(InvalidParams):
        factorize(0)
    with pytest.raises(InvalidParams):
        factorize(-6)


def test_factorize_composite_cofactor_past_bound_raises():
    # product of two ~19-digit primes: hopeless for trial division, so the
    # composite left past the bound must fail loudly instead of spinning
    hard = (2**61 - 1) * (2**89 - 1)
    with pytest.raises(FactorizationError):
        factorize(hard, trial_bound=1000)


def test_factorize_returns_prime_cofactor_past_bound():
    assert factorize(2 * 1000000007, trial_bound=1000) == {2: 1, 1000000007: 1}


def test_factorize_prime_square_past_bound_raises():
    with pytest.raises(FactorizationError, match="1000006000009"):
        factorize(1000003**2, trial_bound=1000)


def test_factorize_takes_no_rho_budget():
    with pytest.raises(TypeError):
        factorize(12, rho_budget=50)
