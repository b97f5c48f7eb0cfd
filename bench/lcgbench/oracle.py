"""Reference mathematics for the benchmark, written without lcgspec.

Every expected answer the benchmark compares against comes from here: the
max-period rule used to pick inputs, an exact integral LLL plus enumeration
for spectral values, the theorem formulas behind build certificates, the
closed-form interval count of a full period, and the decimal rendering of a
sequence dump.  Nothing here imports the package under test, so a defect in
the package cannot hide behind the same defect in its checker.
"""

from __future__ import annotations

import math
from fractions import Fraction

# gamma_s^(2s) for the best packings in s = 2..8, as exact rationals:
# v_s <= gamma_s * N^(1/s)  <=>  v_sq^s <= gamma_s^(2s) * N^2.
PACKING = {
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
}


def is_max_period(a: int, N: int) -> bool:
    """Strip gcd(r, a-1) from r = N until r = 1, and require 4 | a-1 when
    4 | N; with c coprime to N this is exactly full period (Hull-Dobell)."""
    if not 2 <= a < N:
        return False
    r = N
    while r > 1:
        g = math.gcd(r, a - 1)
        if g == 1:
            return False
        r //= g
    return N % 4 != 0 or (a - 1) % 4 == 0


def potential(a: int, N: int) -> tuple[int, int] | None:
    """(tau, lambda): tau is the number of gcd strips that reduce N to 1,
    lambda = (a-1)^tau / N.  None when some prime of N misses a-1."""
    r, tau = N, 0
    while r > 1:
        g = math.gcd(r, a - 1)
        if g == 1:
            return None
        r //= g
        tau += 1
    return tau, (a - 1) ** tau // N


def dual_rows(a: int, N: int, s: int) -> list[list[int]]:
    """Rows spanning {m : m_1 + a m_2 + ... + a^(s-1) m_s == 0 (mod N)}."""
    rows = [[N] + [0] * (s - 1)]
    for j in range(1, s):
        row = [0] * s
        row[0] = -pow(a, j, N)
        row[j] = 1
        rows.append(row)
    return rows


def in_dual_lattice(a: int, N: int, vec: list[int]) -> bool:
    return sum(m * pow(a, j, N) for j, m in enumerate(vec)) % N == 0


def _lll(rows: list[list[int]]) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Integral LLL with delta = 99/100 (Cohen, Alg. 2.6.7).

    Returns the reduced rows, the Gram determinants d (d[0] = 1) and the
    integral coefficients lam[i][j] = d[j+1] * mu[i][j], all 0-based in rows.
    """
    b = [list(r) for r in rows]
    n = len(b)
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))  # noqa: E731
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_row(k: int) -> None:
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u

    def red(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lm = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lm * t) // d[k]
            lam[i][k - 1] = (B * t + lm * lam[i][k]) // d[k + 1]
        d[k] = B

    gram_row(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_row(k)
        red(k, k - 1)
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b, d, lam


def shortest_norm_sq(rows: list[list[int]]) -> int:
    """Exact squared minimum of the lattice spanned by `rows` (full rank)."""
    b, d, lam = _lll(rows)
    n = len(b)
    mu = [[Fraction(lam[i][j], d[j + 1]) for j in range(n)] for i in range(n)]
    bsq = [Fraction(d[i + 1], d[i]) for i in range(n)]
    best = min(sum(x * x for x in r) for r in b)
    u = [0] * n

    def rec(i: int, used: Fraction) -> None:
        nonlocal best
        c = -sum((u[j] * mu[j][i] for j in range(i + 1, n)), Fraction(0))
        r = (best - used) / bsq[i]
        if r < 0:
            return
        half = math.isqrt(math.floor(r)) + 1
        centre = math.floor(c)
        for ui in range(centre - half, centre + half + 2):
            term = bsq[i] * (ui - c) ** 2
            if used + term > best:
                continue
            u[i] = ui
            if i:
                rec(i - 1, used + term)
            elif any(u):
                best = min(best, int(used + term))
        u[i] = 0

    rec(n - 1, Fraction(0))
    return best


def spectral_v_sq(a: int, N: int, s: int) -> int:
    return shortest_norm_sq(dual_rows(a, N, s))


# -- theorem certificates -----------------------------------------------------


def b_coeff(s: int) -> int:
    """Largest |negative coefficient| of (x-1)^s: max over odd k of C(s, k)."""
    return max(math.comb(s, k) for k in range(1, s + 1, 2))


def certificate(a: int, t: int, lam: int, covers: int) -> list[dict]:
    """Per-dimension bounds of a build with N = (a-1)^t / lam, for s = 2..covers.

    Each entry holds the theorem id and the squared lower and upper bounds
    (None when the theorem's condition on a fails).  A build reaches s = t only
    with l = 0, hence lam = 1, so theorems 1, 2 and 6 cover every entry.
    """
    if covers == t and lam != 1:
        raise ValueError("a build that covers s = tau has lambda = 1")
    out = []
    for s in range(2, covers + 1):
        b = b_coeff(s)
        if s == t == 2:
            thm, ok, bounds = 1, a >= 5, (1 + (a - 2) ** 2,) * 2
        else:
            thm = 2 if s == t else 6
            ok = a >= b + 1 and (s == t or lam <= (a - 1) ** (t - s))
            bounds = ((a - b) ** 2, a * a + 1)
        lower, upper = bounds if ok else (None, None)
        out.append({"s": s, "theorem": thm, "lower": lower, "upper": upper})
    return out


# -- full-period orbits -------------------------------------------------------


def endpoint(text: str) -> Fraction:
    """Exact value of an interval endpoint under the documented conventions:
    integers and p/q are exact, decimals are read as binary doubles, and
    expressions in pi and e (written as in the CLI) are rounded half to even
    at 12 decimal digits.  Only the benchmark's own fixed endpoints come here."""
    if "pi" in text or "e" in text:
        value = eval(text.replace("^", "**"), {"__builtins__": {}},  # noqa: S307
                     {"pi": Fraction(math.pi), "e": Fraction(math.e)})
        scale = 10**12
        return Fraction(round(Fraction(value) * scale), scale)
    return Fraction(float(text)) if "." in text else Fraction(text)


def full_period_count(N: int, alpha: Fraction, beta: Fraction) -> int:
    """#{x in [0, N) : alpha <= x/N <= beta}; a full period visits every
    residue exactly once, so this is the frequency-test count m."""
    lo = max(math.ceil(alpha * N), 0)
    hi = min(math.floor(beta * N), N - 1)
    return max(hi - lo + 1, 0)


def default_digits(N: int) -> int:
    """Digits that render every x/N exactly when N = 2^i 5^j; else one more
    digit than N has."""
    n, i, j = N, 0, 0
    while n % 2 == 0:
        n, i = n // 2, i + 1
    while n % 5 == 0:
        n, j = n // 5, j + 1
    return max(i, j, 1) if n == 1 else len(str(N)) + 1


def decimal(x: int, N: int, digits: int) -> str:
    """x/N truncated to `digits` fractional digits, trailing zeros dropped."""
    frac = str(x * 10**digits // N).rjust(digits, "0").rstrip("0")
    return "0." + frac if frac else "0"


def dump_lines(a: int, c: int, N: int, x0: int, fmt: str, per_line: int = 10):
    """The lines of a full-period dump, as the CLI documents them."""
    d = default_digits(N)
    x = x0
    if fmt == "csv":
        yield "n,x,u\n"
        for n in range(1, N + 1):
            x = (a * x + c) % N
            yield f"{n},{x},{decimal(x, N, d)}\n"
        return
    row = []
    for _ in range(N):
        x = (a * x + c) % N
        row.append(decimal(x, N, d))
        if len(row) == per_line:
            yield "; ".join(row) + "\n"
            row = []
    if row:
        yield "; ".join(row) + "\n"
