"""Integer lattices behind the spectral test, solved exactly.

The dual lattice of an LCG in dimension s is spanned by the rows
(N, 0, ..., 0) and (-(a^(j-1) mod N), ..., 1, ...); its nonzero minimum is the
spectral value v_s.  The solver is LLL reduction followed by exhaustive
Fincke-Pohst enumeration.  Both run on integral Gram-Schmidt data, the Gram
determinants d_i and lam_ij = d_(j+1) * mu_ij (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.6.7), and enumeration intervals
are derived with integer square roots, so results carry no floating-point
error at all.

Every `LatticeBasis` carries that data for its rows, from exactly one
source: the constructor computes it for rows given from outside, `lll_reduce`
leaves its own on the basis it returns, `extend_dual_basis` extends it by one
row, and `dual_basis` writes it down in closed form: the rows N*e_0 and
e_j - c_j*e_0, c_j = a^j mod N, have b*_0 = N*e_0 and b*_j = e_j, so
d = [1, N^2, ..., N^2], lam[k][0] = -N*c_k and every other lam[k][j] is 0.
A direct congruence-scanning brute force is provided as an independent
cross-check.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

from .errors import DimensionTooLarge, EmptyBox, InvalidParams

DEFAULT_ENUM_CAP = 12
ENUM_CAP_ENV = "LCGSPEC_ENUM_CAP"

# LLL's Lovasz constant 99/100, as (numerator, denominator)
_LOVASZ = (99, 100)
_JSON_INT = re.compile(r"-?[0-9]+")


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


def canonical(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Sign-normalize: first nonzero component made positive."""
    for x in vec:
        if x > 0:
            return tuple(vec)
        if x < 0:
            return tuple(-y for y in vec)
    return tuple(vec)


def _as_int(x, what: str = "basis entry") -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidParams(f"{what} must be an integer, got {x!r}")
    return x


def _json_int(x, what: str = "basis entry") -> int:
    """A JSON integer, or a decimal-integer string as `to_json_dict` writes."""
    if isinstance(x, str) and _JSON_INT.fullmatch(x):
        try:
            return int(x)
        except ValueError as exc:  # more digits than int() converts
            raise InvalidParams(f"{what}: {exc}") from None
    return _as_int(x, what)


@dataclass(frozen=True)
class LatticeBasis:
    """Square integer basis, rows linearly independent, carrying the integral
    Gram-Schmidt data (d, lam) of its rows (module docstring; `_integral_gs`).

    `_gs` is that data, set once and never mutated; `_reduced` is the latest
    `lll_reduce` of this basis once one has run.  Neither is part of
    equality.
    """

    rows: tuple[tuple[int, ...], ...]
    _gs: tuple[list[int], list[list[int]]] = field(init=False, repr=False, compare=False)
    _reduced: LatticeBasis | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        rows = tuple(tuple(_as_int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n < 2:
            raise InvalidParams("lattice dimension must be >= 2")
        if any(len(r) != n for r in rows):
            raise InvalidParams("basis must be square")
        object.__setattr__(self, "_gs", _integral_gs(rows))

    @classmethod
    def _known(cls, rows: tuple[tuple[int, ...], ...],
               gs: tuple[list[int], list[list[int]]]) -> LatticeBasis:
        """A basis built inside this module from independent rows whose
        Gram-Schmidt data `gs` is already known: no checks, no rebuild."""
        basis = object.__new__(cls)
        object.__setattr__(basis, "rows", rows)
        object.__setattr__(basis, "_gs", gs)
        object.__setattr__(basis, "_reduced", None)
        return basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "rows": [[str(x) for x in r] for r in self.rows]}

    @staticmethod
    def from_json_dict(obj) -> LatticeBasis:
        """The inverse of `to_json_dict`: an object with a "rows" list of
        lists and an optional "dim", every entry a JSON integer or a
        decimal-integer string."""
        rows = obj.get("rows") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InvalidParams('a basis must be a JSON object with a "rows" list of lists')
        basis = LatticeBasis(tuple(tuple(_json_int(x) for x in r) for r in rows))
        if "dim" in obj and _json_int(obj["dim"], "dim") != basis.dim:
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
    # triangular, diagonal N, 1, ..., 1; Gram-Schmidt data in closed form
    # (module docstring)
    rows = [(N,) + (0,) * (s - 1)]
    lam = [[0] * s]
    c = 1
    for j in range(1, s):
        c = c * a % N
        row = [0] * s
        row[0] = -c
        row[j] = 1
        rows.append(tuple(row))
        lk = [0] * s
        lk[0] = -N * c
        lam.append(lk)
    return LatticeBasis._known(tuple(rows), ([1] + [N * N] * s, lam))


def extend_dual_basis(basis: LatticeBasis, a: int, N: int) -> LatticeBasis:
    """Basis of the dual lattice in dimension s+1 from any basis of it in
    dimension s = basis.dim: every row padded with a zero, plus the row
    (-(a^s mod N), 0, ..., 0, 1) (the step of Knuth's Algorithm S, TAOCP
    vol. 2, 3.3.4).  The rows come from the LLL reduction of `basis` when one
    has run (as `shortest_vector` does), whose Gram-Schmidt data is then
    extended by the one new row instead of rebuilt.
    """
    if basis._reduced is not None:
        basis = basis._reduced
    s = basis.dim
    rows = tuple(r + (0,) for r in basis.rows)
    rows += ((-pow(a, s, N),) + (0,) * (s - 1) + (1,),)
    d, lam = basis._gs[0] + [0], [r + [0] for r in basis._gs[1]] + [[0] * (s + 1)]
    _gs_row(rows, s, d, lam)
    return LatticeBasis._known(rows, (d, lam))


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
        _gs_row(rows, k, d, lam)
    return d, lam


def _gs_row(rows, k: int, d: list[int], lam: list[list[int]]) -> None:
    """Fill lam[k][0..k-1] and d[k+1] from rows 0..k, given the data of rows
    0..k-1."""
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


def _round_half_even(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties to even like round(Fraction)."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def lll_reduce(basis: LatticeBasis) -> LatticeBasis:
    """Integral LLL (Cohen, Alg. 2.6.7); same lattice, size-reduced rows,
    Lovasz condition with the constant 99/100.

    The Gram-Schmidt data is kept as the integers d_i and lam_ij of
    `_integral_gs` and updated in O(n) per swap, so the reduction is exact.
    It starts from a copy of the data `basis` carries and leaves the final
    data on the result, so enumeration does not rebuild it; the result is
    cached on `basis` for `extend_dual_basis`.  Row k is fully size-reduced
    (j = k-1..0, ties in rounding to even) before its Lovasz test.
    """
    dnum, dden = _LOVASZ
    b = [list(r) for r in basis.rows]
    n = len(b)
    d, lam = basis._gs[0][:], [r[:] for r in basis._gs[1]]
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
    reduced = LatticeBasis._known(tuple(tuple(r) for r in b), (d, lam))
    object.__setattr__(basis, "_reduced", reduced)
    return reduced


def shortest_vector(basis: LatticeBasis, cap: int | None = None) -> ShortestVectorResult:
    """Exact nonzero minimum of the lattice.

    LLL-reduces, seeds the search radius with the shortest reduced row, then
    enumerates every coefficient vector inside the radius (Fincke-Pohst) on
    the integral Gram-Schmidt data that LLL leaves on the reduced basis: the
    partial norm is an exact integer pair (num, den) and each coefficient
    interval comes from math.isqrt.  Ties are broken by sign-canonicalizing
    and taking the lexicographically smallest vector.  Candidate norms are
    recomputed in plain integer arithmetic.
    """
    cap = resolve_enum_cap(cap)
    if basis.dim > cap:
        raise DimensionTooLarge(f"dimension {basis.dim} exceeds enumeration cap {cap}")
    reduced = lll_reduce(basis)
    rows = reduced.rows
    n = reduced.dim
    d, lam = reduced._gs

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

    Only half the box is scanned, m_s >= 0: m and -m are the same answer once
    sign-canonicalized.  m_1 is solved from the congruence, m_1 == r (mod N)
    with 0 <= r < N, and only r and r - N are tried: any other m_1 is
    strictly longer than one of them, which lies in the box whenever it
    does.  Branches whose partial sum already exceeds the best norm found
    are skipped.  None of this can change the minimum or which canonical
    vector attains it, so the scan stays exhaustive in effect.  The result
    is certified only when box >= ceil(sqrt(norm_sq)): any vector sticking
    out of the box is then provably longer.
    """
    if N <= 0 or not 1 <= a < N:
        raise InvalidParams(f"need 1 <= a < N, got a={a}, N={N}")
    if s < 2:
        raise InvalidParams(f"dimension must be >= 2, got {s}")
    if box < 1:
        raise InvalidParams(f"box must be >= 1, got {box}")
    powers = [pow(a, j, N) for j in range(s)]
    best_nsq = s * box * box  # the prune bound: no vector in the box is longer
    best_vec: tuple[int, ...] | None = None

    def consider(vec: tuple[int, ...], nsq: int) -> None:
        nonlocal best_nsq, best_vec
        cand = canonical(vec)
        if nsq < best_nsq or (nsq == best_nsq and (best_vec is None or cand < best_vec)):
            best_nsq = nsq
            best_vec = cand

    # trivial congruence solutions tighten the prune bound from the start
    if N <= box:
        consider((N,) + (0,) * (s - 1), N * N)
    if a <= box:
        consider((a, -1) + (0,) * (s - 2), a * a + 1)

    m = [0] * s

    def rec(j: int, acc: int, partial: int, signs: tuple[int, ...]) -> None:
        p = powers[j]
        for x in range(box + 1):
            nsq = partial + x * x
            if nsq > best_nsq:
                break
            for v in signs if x else (0,):  # signs is (1,) at the top level
                v *= x
                m[j] = v
                if j > 1:
                    rec(j - 1, (acc + p * v) % N, nsq, (1, -1))
                    continue
                r = -(acc + p * v) % N
                if r <= box and 0 < nsq + r * r <= best_nsq:
                    m[0] = r
                    consider(tuple(m), nsq + r * r)
                if N - r <= box and nsq + (N - r) ** 2 <= best_nsq:
                    m[0] = r - N
                    consider(tuple(m), nsq + (N - r) ** 2)
        m[j] = 0

    rec(s - 1, 0, 0, (1,))
    if best_vec is None:
        raise EmptyBox(f"no nonzero solution with coordinates in [-{box}, {box}]")
    return ShortestVectorResult(
        norm_sq=best_nsq, vector=best_vec, certified=box * box >= best_nsq
    )
