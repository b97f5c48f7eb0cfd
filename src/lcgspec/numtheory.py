"""Primality and factorization helpers.

`is_probable_prime` checks the primes of a shaped multiplier recipe.
`factorize` (trial division, with a prime cofactor allowed past the bound) is
not called by the package and is kept for the benchmark's tracer: maximum
period and the potential are decided by gcd-stripping in `lcg`.
"""

from __future__ import annotations

from .errors import FactorizationError, InvalidParams, shown

DEFAULT_TRIAL_BOUND = 10**7

# Deterministic Miller-Rabin witness set, valid for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin test; deterministic below 3.3e24, overwhelmingly reliable above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, trial_bound: int = DEFAULT_TRIAL_BOUND) -> dict[int, int]:
    """Return {prime: exponent} with product equal to n (n >= 1).

    Trial division up to `trial_bound`; a cofactor left over must pass
    `is_probable_prime`, else FactorizationError.  Nothing in the package
    calls it; it stays only because the benchmark tracer (`LAYERS` in
    bench/lcgbench/tracer.py) looks it up by name, and goes once a benchmark
    change drops it from there.
    """
    if n < 1:
        raise InvalidParams("factorize expects n >= 1")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # wheel over 6k +- 1
    p = 7
    step = 4
    while p * p <= n and p <= trial_bound:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step
    if n > 1:
        if not is_probable_prime(n):
            raise FactorizationError(f"composite cofactor {shown(n)} past trial bound "
                                     f"{shown(trial_bound)}")
        factors[n] = 1
    return factors
