"""Core congruential recurrence X_{n+1} = (a*X_n + c) mod N.

Everything here is exact integer arithmetic: max-period certification
(Hull-Dobell conditions) and the potential tau(a, N) with its cofactor, both
decided by gcd-stripping N against a-1 without factoring, and the digit
count that renders X/N exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvalidParams, NoPotential, PeriodViolation, PotentialOne
from .exprparse import _digit_limit_exceeded, _max_str_digits


class LcgParams(namedtuple("LcgParams", "a c N x0")):
    """Parameters (a, c, N, x0) with 0 < N, 2 <= a < N, 1 <= c < N, gcd(c,N)=1.

    Every construction is checked, `_make` and `_replace` included."""

    __slots__ = ()

    def __new__(cls, a: int, c: int, N: int, x0: int = 0) -> LcgParams:
        if N <= 0:
            raise InvalidParams(f"N must be positive, got {N}")
        if not 2 <= a < N:
            raise InvalidParams(f"need 2 <= a < N, got a={a}, N={N}")
        if not 1 <= c < N:
            raise InvalidParams(f"need 1 <= c < N, got c={c}, N={N}")
        if math.gcd(c, N) != 1:
            raise InvalidParams(f"gcd(c, N) = {math.gcd(c, N)} != 1")
        if not 0 <= x0 < N:
            raise InvalidParams(f"need 0 <= x0 < N, got x0={x0}")
        return super().__new__(cls, a, c, N, x0)

    _make = classmethod(lambda cls, iterable: cls(*iterable))


class MaxPeriodReport(namedtuple("MaxPeriodReport", "ok failures")):
    """Whether the period is maximal, and each failed condition as text."""

    __slots__ = ()


class PotentialProfile(namedtuple("PotentialProfile", "tau lam")):
    """tau = least t with N | (a-1)^t, lam = (a-1)^tau / N."""

    __slots__ = ()


def _strip_shared_primes(a: int, N: int) -> tuple[int, int]:
    """Strip from N, one gcd per pass, every prime it shares with a-1.

    Returns (r, passes).  r is what is left once gcd(r, a-1) = 1, so r = 1
    exactly when every prime of N divides a-1.  Each pass divides out up to
    v_p(a-1) factors of every shared prime p still present, so when r = 1 the
    pass count is the least t with N | (a-1)^t.
    """
    m = a - 1
    r = N
    passes = 0
    while (g := math.gcd(r, m)) > 1:
        r //= g
        passes += 1
    return r, passes


def check_max_period(params: LcgParams) -> MaxPeriodReport:
    """Hull-Dobell certificate: the period equals N exactly when
    gcd(c, N) = 1, every prime of N divides a-1, and 4 | N implies 4 | a-1.

    The first condition is not re-checked here: `LcgParams` refuses any c
    with gcd(c, N) != 1, so every params value already meets it.
    """
    r, _ = _strip_shared_primes(params.a, params.N)
    failures = []
    if r > 1:
        failures.append(f"primes of {r} divide N but not a-1")
    if params.N % 4 == 0 and (params.a - 1) % 4 != 0:
        failures.append("N divisible by 4 but a-1 is not")
    return MaxPeriodReport(ok=not failures, failures=tuple(failures))


def _require_max_period(params: LcgParams) -> None:
    """Raise PeriodViolation naming each Hull-Dobell condition params fails."""
    report = check_max_period(params)
    if not report.ok:
        raise PeriodViolation("; ".join(report.failures))


def _power_quotient(base: int, exp: int, div: int, name: str) -> int:
    """base^exp / div, for base >= 2 and div | base^exp, refused (InvalidParams)
    when it has more digits than Python converts to str.  The quotient exceeds
    2^(exp*(bits(base) - 1) - bits(div)), and 2^(10*limit/3) > 10^limit, so bit
    lengths refuse the long ones before base^exp is formed; a power that is
    formed has under 10*limit/3 + exp + bits(div) bits."""
    limit = _max_str_digits()
    if limit and exp * (base.bit_length() - 1) - div.bit_length() > 10 * limit // 3:
        raise InvalidParams(f"{name} has more than {limit} digits")
    q = base**exp // div
    if limit := _digit_limit_exceeded(q):
        raise InvalidParams(f"{name} has more than {limit} digits")
    return q


def compute_potential(a: int, N: int) -> PotentialProfile:
    """Least tau >= 2 with N | (a-1)^tau, plus the cofactor lam = (a-1)^tau / N,
    refused (InvalidParams) when it has more digits than Python prints."""
    if N <= 0 or not 2 <= a:
        raise InvalidParams(f"need a >= 2 and N > 0, got a={a}, N={N}")
    r, tau = _strip_shared_primes(a, N)
    if r > 1:
        raise NoPotential(f"prime factor of {N} does not divide a-1 = {a - 1}")
    if tau <= 1:
        raise PotentialOne(f"N = {N} divides a-1 = {a - 1}; potential is 1")
    return PotentialProfile(tau=tau, lam=_power_quotient(a - 1, tau, N, f"lambda = (a-1)^{tau}/N"))


def default_digits(N: int) -> int:
    """Fewest digits rendering every x/N exactly, when the expansion terminates
    (N = 2^i * 5^j); otherwise enough digits to separate consecutive residues.
    """
    n, d = N, 0
    while n % 2 == 0:
        n //= 2
        d += 1
    e = 0
    while n % 5 == 0:
        n //= 5
        e += 1
    if n == 1:
        return max(d, e, 1)
    return len(str(N)) + 1
