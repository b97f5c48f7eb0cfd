"""Primality and factorization helpers.

`is_probable_prime` checks the primes of a shaped multiplier recipe.
`factorize` (trial division, then Brent-cycle Pollard rho with a step budget)
is no longer called by the package: maximum period and the potential are
decided by gcd-stripping in `lcg`.
"""

from __future__ import annotations

import math

from .errors import FactorizationError, InvalidParams

DEFAULT_TRIAL_BOUND = 10**7
DEFAULT_RHO_BUDGET = 2_000_000

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


def _pollard_rho(n: int, budget: int) -> int | None:
    """Brent's variant; returns a nontrivial factor of composite odd n, or None."""
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        y, m, g, r, q = 2, 128, 1, 1, 1
        steps = 0
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            steps += r
            if steps > budget:
                break
        if g == n:
            # backtrack one squaring at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def factorize(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> dict[int, int]:
    """Return {prime: exponent} with product equal to n (n >= 1).

    Raises FactorizationError when a composite cofactor survives both the trial
    bound and the rho budget.  Nothing in the package calls it; it stays only
    because the benchmark tracer (`LAYERS` in bench/lcgbench/tracer.py) looks
    it up by name, and goes once a benchmark change drops it from there.
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
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rho_budget)
        if d is None or d in (1, m):
            raise FactorizationError(f"cannot factor {m} within budget")
        stack.append(d)
        stack.append(m // d)
    return factors

