"""Integer lattices behind the spectral test, solved exactly.

The dual lattice of an LCG in dimension s is spanned by the rows
(N, 0, ..., 0) and (-(a^(j-1) mod N), ..., 1, ...); its nonzero minimum is the
spectral value v_s.  The solver is LLL reduction followed by exhaustive
Fincke-Pohst enumeration.  Both run on integral Gram-Schmidt data, the Gram
determinants d_i and lam_ij = d_(j+1) * mu_ij (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.6.7), and enumeration intervals
are derived with integer square roots, so results carry no floating-point
error at all.  A direct congruence-scanning brute force is provided as an
independent cross-check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionTooLarge, EmptyBox, InvalidParams

DEFAULT_ENUM_CAP = 12
ENUM_CAP_ENV = "LCGSPEC_ENUM_CAP"

_DELTA = Fraction(99, 100)


def resolve_enum_cap(cap: int | None = None) -> int:
    """Explicit argument, else the LCGSPEC_ENUM_CAP env var, else 12."""
    if cap is not None:
        return cap
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None or raw == "":
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidParams(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None


def int_det(rows: tuple[tuple[int, ...], ...]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def canonical(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Sign-normalize: first nonzero component made positive."""
    for x in vec:
        if x > 0:
            return tuple(vec)
        if x < 0:
            return tuple(-y for y in vec)
    return tuple(vec)


@dataclass(frozen=True)
class LatticeBasis:
    """Square integer basis, rows linearly independent."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n < 2:
            raise InvalidParams("lattice dimension must be >= 2")
        if any(len(r) != n for r in rows):
            raise InvalidParams("basis must be square")
        d = int_det(rows)
        if d == 0:
            raise InvalidParams("basis rows are linearly dependent")
        object.__setattr__(self, "_det", d)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def det(self) -> int:
        return self._det  # type: ignore[attr-defined]

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "rows": [[str(x) for x in r] for r in self.rows]}

    @staticmethod
    def from_json_dict(obj: dict) -> "LatticeBasis":
        rows = tuple(tuple(int(x) for x in r) for r in obj["rows"])
        basis = LatticeBasis(rows)
        if "dim" in obj and int(obj["dim"]) != basis.dim:
            raise InvalidParams("dim field disagrees with row count")
        return basis


@dataclass(frozen=True)
class ShortestVectorResult:
    norm_sq: int
    vector: tuple[int, ...]
    certified: bool

    def to_json_dict(self) -> dict:
        return {
            "norm_sq": str(self.norm_sq),
            "vector": [str(x) for x in self.vector],
            "certified": self.certified,
        }


def dual_basis(a: int, N: int, s: int) -> LatticeBasis:
    """Rows spanning {m : m_1 + a*m_2 + ... + a^(s-1)*m_s == 0 (mod N)}."""
    if N <= 0 or not 1 <= a < N:
        raise InvalidParams(f"need 1 <= a < N, got a={a}, N={N}")
    if s < 2:
        raise InvalidParams(f"dimension must be >= 2, got {s}")
    rows = [(N,) + (0,) * (s - 1)]
    for j in range(1, s):
        row = [0] * s
        row[0] = -pow(a, j, N)
        row[j] = 1
        rows.append(tuple(row))
    return LatticeBasis(tuple(rows))


def _integral_gs(rows) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data of `rows` (Cohen, Alg. 2.6.7).

    Returns d[0..n] with d[0] = 1 and d[i+1] the Gram determinant of rows
    0..i, so |b*_i|^2 = d[i+1] / d[i]; and lam[i][j] = d[j+1] * mu[i][j] for
    j < i.  Every division below is exact.
    """
    n = len(rows)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(rows[k], rows[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise InvalidParams("basis rows are linearly dependent")
    return d, lam


def _round_half_even(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties to even like round(Fraction)."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def lll_reduce(basis: LatticeBasis, delta: Fraction = _DELTA) -> LatticeBasis:
    """Integral LLL (Cohen, Alg. 2.6.7); same lattice, size-reduced rows,
    Lovasz condition with the given delta (default 99/100).

    The Gram-Schmidt data is kept as the integers d_i and lam_ij of
    `_integral_gs` and updated in O(n) per swap, so the reduction is exact.
    Row k is fully size-reduced (j = k-1..0, ties in rounding to even) before
    its Lovasz test.
    """
    delta = Fraction(delta)
    dnum, dden = delta.numerator, delta.denominator
    if not dden < 4 * dnum < 4 * dden:
        raise InvalidParams(f"delta must lie in (1/4, 1), got {delta}")
    b = [list(r) for r in basis.rows]
    n = len(b)
    d, lam = _integral_gs(b)
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lk[j]) > d[j + 1]:  # otherwise round(mu_kj) = 0
                r = _round_half_even(lk[j], d[j + 1])
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
                lk[j] -= r * d[j + 1]
        lm = lam[k][k - 1]
        if dden * (d[k + 1] * d[k - 1] + lm * lm) >= dnum * d[k] * d[k]:
            k += 1
            continue
        # swap rows k-1 and k and update d, lam in place (Cohen's SWAPI)
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lam[k][: k - 1]
        B = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lm * t) // d[k]
            lam[i][k - 1] = (B * t + lm * lam[i][k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    return LatticeBasis(tuple(tuple(r) for r in b))


def shortest_vector(basis: LatticeBasis, cap: int | None = None) -> ShortestVectorResult:
    """Exact nonzero minimum of the lattice.

    LLL-reduces, seeds the search radius with the shortest reduced row, then
    enumerates every coefficient vector inside the radius (Fincke-Pohst) on
    the integral Gram-Schmidt data: the partial norm is an exact integer pair
    (num, den) and each coefficient interval comes from math.isqrt.  Ties are
    broken by sign-canonicalizing and taking the lexicographically smallest
    vector.  Candidate norms are recomputed in plain integer arithmetic.
    """
    cap = resolve_enum_cap(cap)
    if basis.dim > cap:
        raise DimensionTooLarge(f"dimension {basis.dim} exceeds enumeration cap {cap}")
    reduced = lll_reduce(basis)
    rows = reduced.rows
    n = reduced.dim
    d, lam = _integral_gs(rows)

    best_nsq = min(sum(x * x for x in r) for r in rows)
    best_vec: tuple[int, ...] | None = None
    u = [0] * n

    def leaf() -> None:
        nonlocal best_nsq, best_vec
        v = [0] * n
        for j in range(n):
            if u[j]:
                for t in range(n):
                    v[t] += u[j] * rows[j][t]
        if not any(v):
            return
        nsq = sum(x * x for x in v)
        if nsq > best_nsq:
            return
        cand = canonical(tuple(v))
        if best_vec is None or nsq < best_nsq or (nsq == best_nsq and cand < best_vec):
            best_nsq = nsq
            best_vec = cand

    def rec(i: int, num: int, den: int) -> None:
        # used = num / den <= best_nsq; level i adds
        # |b*_i|^2 (u_i + C/D)^2 = (u_i D + C)^2 / (d_i D)
        rem = best_nsq * den - num
        D = d[i + 1]
        tden = d[i] * D
        C = sum(lam[j][i] * u[j] for j in range(i + 1, n) if u[j])
        # integers u_i with (u_i D + C)^2 <= rem * tden / den, i.e. |u_i D + C| <= r
        r = math.isqrt(rem * tden // den)
        lo, hi = -((r + C) // D), (r - C) // D
        if i == n - 1:
            lo = max(lo, 0)  # half-space is enough: -v is canonicalized to v
        for ui in range(lo, hi + 1):
            u[i] = ui
            y = ui * D + C
            nnum, nden = num * tden + y * y * den, den * tden
            if nnum > best_nsq * nden:
                continue
            if i == 0:
                leaf()
            else:
                rec(i - 1, nnum, nden)
        u[i] = 0

    rec(n - 1, 0, 1)
    assert best_vec is not None  # the shortest reduced row lies inside the radius
    return ShortestVectorResult(norm_sq=best_nsq, vector=best_vec, certified=True)


def brute_force_shortest(a: int, N: int, s: int, box: int) -> ShortestVectorResult:
    """Independent oracle: scan every nonzero m with |m_j| <= box satisfying
    m_1 + a*m_2 + ... + a^(s-1)*m_s == 0 (mod N), tracking the minimum norm.

    m_1 is solved from the congruence instead of looped, and branches whose
    partial sum already exceeds the best norm found are skipped (these can
    never improve on it, so the scan stays exhaustive in effect).  The result
    is certified only when box >= ceil(sqrt(norm_sq)): any vector sticking out
    of the box is then provably longer.
    """
    if N <= 0 or not 1 <= a < N:
        raise InvalidParams(f"need 1 <= a < N, got a={a}, N={N}")
    if s < 2:
        raise InvalidParams(f"dimension must be >= 2, got {s}")
    if box < 1:
        raise InvalidParams(f"box must be >= 1, got {box}")
    powers = [pow(a, j, N) for j in range(s)]
    best_nsq: int | None = None
    best_vec: tuple[int, ...] | None = None

    def consider(vec: tuple[int, ...]) -> None:
        nonlocal best_nsq, best_vec
        if not any(vec):
            return
        nsq = sum(x * x for x in vec)
        cand = canonical(vec)
        if best_nsq is None or nsq < best_nsq or (nsq == best_nsq and cand < best_vec):
            best_nsq = nsq
            best_vec = cand

    # trivial congruence solutions tighten the prune bound from the start
    if N <= box:
        consider((N,) + (0,) * (s - 1))
    if a <= box:
        consider((a, -1) + (0,) * (s - 2))

    m = [0] * s

    def bound() -> int:
        return best_nsq if best_nsq is not None else s * box * box

    def rec(j: int, acc: int, partial: int) -> None:
        if j == 0:
            r = (-acc) % N
            kmin = -((box - r) // N)
            kmax = (r + box) // N
            for k in range(kmin, kmax + 1):
                m1 = r - k * N
                if partial + m1 * m1 > bound():
                    continue
                m[0] = m1
                consider(tuple(m))
            m[0] = 0
            return
        d = 0
        while d <= box and partial + d * d <= bound():
            m[j] = d
            rec(j - 1, (acc + powers[j] * d) % N, partial + d * d)
            if d:
                m[j] = -d
                rec(j - 1, (acc - powers[j] * d) % N, partial + d * d)
            d += 1
        m[j] = 0

    rec(s - 1, 0, 0)
    if best_nsq is None or best_vec is None:
        raise EmptyBox(f"no nonzero solution with coordinates in [-{box}, {box}]")
    return ShortestVectorResult(
        norm_sq=best_nsq, vector=best_vec, certified=box * box >= best_nsq
    )
