"""Core congruential recurrence X_{n+1} = (a*X_n + c) mod N.

Everything here is exact integer arithmetic: max-period certification
(Hull-Dobell conditions) and the potential tau(a, N) with its cofactor, both
decided by gcd-stripping N against a-1 without factoring, and exact decimal
rendering of X/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams, NoPotential, PotentialOne


@dataclass(frozen=True)
class LcgParams:
    """Parameters (a, c, N, x0) with 0 < N, 2 <= a < N, 1 <= c < N, gcd(c,N)=1."""

    a: int
    c: int
    N: int
    x0: int = 0

    def __post_init__(self) -> None:
        if self.N <= 0:
            raise InvalidParams(f"N must be positive, got {self.N}")
        if not 2 <= self.a < self.N:
            raise InvalidParams(f"need 2 <= a < N, got a={self.a}, N={self.N}")
        if not 1 <= self.c < self.N:
            raise InvalidParams(f"need 1 <= c < N, got c={self.c}, N={self.N}")
        if math.gcd(self.c, self.N) != 1:
            raise InvalidParams(f"gcd(c, N) = {math.gcd(self.c, self.N)} != 1")
        if not 0 <= self.x0 < self.N:
            raise InvalidParams(f"need 0 <= x0 < N, got x0={self.x0}")


@dataclass(frozen=True)
class MaxPeriodReport:
    ok: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class PotentialProfile:
    """tau = least t with N | (a-1)^t, lam = (a-1)^tau / N."""

    tau: int
    lam: int


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
    failures = []
    r, _ = _strip_shared_primes(params.a, params.N)
    if r > 1:
        failures.append(f"primes of {r} divide N but not a-1")
    if params.N % 4 == 0 and (params.a - 1) % 4 != 0:
        failures.append("N divisible by 4 but a-1 is not")
    return MaxPeriodReport(ok=not failures, failures=tuple(failures))


def compute_potential(a: int, N: int) -> PotentialProfile:
    """Least tau >= 2 with N | (a-1)^tau, plus the cofactor lam = (a-1)^tau / N."""
    if N <= 0 or not 2 <= a:
        raise InvalidParams(f"need a >= 2 and N > 0, got a={a}, N={N}")
    r, tau = _strip_shared_primes(a, N)
    if r > 1:
        raise NoPotential(f"prime factor of {N} does not divide a-1 = {a - 1}")
    if tau <= 1:
        raise PotentialOne(f"N = {N} divides a-1 = {a - 1}; potential is 1")
    return PotentialProfile(tau=tau, lam=(a - 1) ** tau // N)


def normalize(x: int, N: int, digits: int) -> str:
    """Exact decimal rendering of x/N, truncated (never rounded) to `digits`
    fractional digits, trailing zeros trimmed; "0" when nothing remains.
    """
    if not 0 <= x < N:
        raise InvalidParams(f"need 0 <= x < N, got x={x}, N={N}")
    if digits < 1:
        raise InvalidParams("digits must be >= 1")
    return _render_fractions([x], N, digits)[0]


def _render_fractions(xs: list[int], N: int, digits: int) -> list[str]:
    """`normalize` of every x in xs, unchecked: the caller guarantees
    0 <= x < N and digits >= 1.

    When N divides 10^digits (every terminating default), the truncated
    numerator x * 10^digits // N is the product x * (10^digits // N), so no
    bignum division is made per value.
    """
    scale = 10**digits
    k, rem = divmod(scale, N)
    qs = [x * k for x in xs] if rem == 0 else [x * scale // N for x in xs]
    return ["0." + frac if (frac := str(q).zfill(digits).rstrip("0")) else "0"
            for q in qs]


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
