"""Integer lattices behind the spectral test, solved exactly.

The dual lattice of an LCG in dimension s is spanned by the rows
(N, 0, ..., 0) and (-(a^(j-1) mod N), ..., 1, ...); its nonzero minimum is the
spectral value v_s.  The solver is LLL reduction followed by exhaustive
Fincke-Pohst enumeration (Fincke & Pohst, Math. Comp. 44, 1985), which starts
at the highest level whose Gram-Schmidt length |b*_i| is within the radius:
a vector with its highest nonzero coefficient at level k is at least |b*_k|
long.  When that level is 0, the first reduced row is the answer and no
search runs.  LLL and enumeration both run on integral Gram-Schmidt data,
the Gram determinants d_i and lam_ij = d_(j+1) * mu_ij (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.6.7), and enumeration
intervals are derived with integer square roots, so results carry no
floating-point error at all.

Both exact searches scan one half-space, the Schnorr-Euchner rule (Math.
Programming 66, 1994): the highest nonzero coefficient is positive, so each
pair +-v is reached once.  A level takes only values >= 0 while every
coefficient above it is 0.  Answers are sign-canonicalized, so the rule
changes none of them.

Every `LatticeBasis` carries that data for its rows, from exactly one
source: the constructor computes it for rows given from outside, `lll_reduce`
leaves its own on the basis it returns, `extend_dual_basis` extends it by one
row, and `dual_basis` writes it down in closed form: the rows N*e_0 and
e_j - c_j*e_0, c_j = a^j mod N, have b*_0 = N*e_0 and b*_j = e_j, so
d = [1, N^2, ..., N^2], lam[k][0] = -N*c_k and every other lam[k][j] is 0.
A direct congruence-scanning brute force, bounded by the same cap and by a
step budget, is provided as an independent cross-check.  `shortest_vector`
refuses an answer whose squared norm `errors._too_many_digits` calls too long.

No kernel leaves a reference cycle, whether it answers or raises: a search
closure that calls itself is deleted once its search is over, so a call's
objects are freed by reference counting alone.  The kernels build tuples
from lists, not from generators or `map`: `tuple()` over an iterator of
unknown length allocates ten slots and shrinks them, and each such tuple
moves the cyclic collector's young-generation count for good.  Calls on
small lattices (N <= 256, s = 2..4) thus run back to back with no
collection at all.
"""

from __future__ import annotations

import math

from .errors import (BudgetExceeded, DimensionTooLarge, EmptyBox, InvalidParams, Record,
                     _too_many_digits, shown)

DEFAULT_ENUM_CAP = 12
# loop steps `brute_force_shortest` may take with N below 2^1024, about a
# second of scanning; a step works mod N, so a larger N gets fewer
_BOX_SCAN_STEPS = 1_000_000

# LLL's Lovasz constant 99/100, as (numerator, denominator)
_LOVASZ = (99, 100)


def canonical(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Sign-canonicalize: first nonzero component made positive."""
    for x in vec:
        if x > 0:
            return tuple(vec)
        if x < 0:
            return tuple([-y for y in vec])
    return tuple(vec)


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        # a rational but for a bool (so a Fraction) as its repr, which names
        # its type: its value may be integral
        got = (f"{type(x).__name__}({shown(x.numerator)}, {shown(x.denominator)})"
               if hasattr(x, "denominator") and not isinstance(x, bool) else shown(x))
        raise InvalidParams(f"basis entry must be an integer, got {got}")
    return x


class LatticeBasis:
    """Square integer basis, rows linearly independent, carrying the integral
    Gram-Schmidt data (d, lam) of its rows (module docstring; `_integral_gs`).

    `rows` is read-only.  `_gs` is that data, set once and never mutated;
    `_reduced` is the latest `lll_reduce` of this basis once one has run.
    Two bases are equal, and hash alike, exactly when their `rows` are equal.
    """

    __slots__ = ("_rows", "_gs", "_reduced")

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(_as_int(x) for x in r) for r in rows)
        n = len(rows)
        if n < 2:
            raise InvalidParams("lattice dimension must be >= 2")
        if any(len(r) != n for r in rows):
            raise InvalidParams("basis must be square")
        self._rows, self._gs, self._reduced = rows, _integral_gs(rows), None

    @classmethod
    def _known(cls, rows: tuple[tuple[int, ...], ...],
               gs: tuple[list[int], list[list[int]]]) -> LatticeBasis:
        """A basis built inside this module from independent rows whose
        Gram-Schmidt data `gs` is already known: no checks, no rebuild."""
        basis = object.__new__(cls)
        basis._rows, basis._gs, basis._reduced = rows, gs, None
        return basis

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __eq__(self, other):
        return self._rows == other._rows if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"LatticeBasis(rows={self._rows!r})"

    @property
    def dim(self) -> int:
        return len(self.rows)


class ShortestVectorResult(Record):
    """A shortest nonzero vector (a tuple of ints), its squared norm, and
    whether the search proved it shortest."""

    __slots__ = ()

    def __new__(cls, norm_sq: int, vector: tuple[int, ...],
                certified: bool) -> ShortestVectorResult:
        return tuple.__new__(cls, (norm_sq, vector, certified))

    def to_json_dict(self) -> dict:
        return {
            "norm_sq": str(self.norm_sq),
            "vector": [str(x) for x in self.vector],
            "certified": self.certified,
        }


def _check_dual_params(a: int, N: int, s: int) -> None:
    """Refuse the (a, N, s) that no dual lattice has, in O(1)."""
    if N <= 0 or not 1 <= a < N:
        raise InvalidParams(f"need 1 <= a < N, got a={shown(a)}, N={shown(N)}")
    if s < 2:
        raise InvalidParams(f"dimension must be >= 2, got {shown(s)}")


def _check_cap(dim: int, cap: int) -> None:
    """Refuse a dimension above the enumeration cap, before any work on it."""
    if dim > cap:
        raise DimensionTooLarge(f"dimension {shown(dim)} exceeds enumeration cap {shown(cap)}")


def dual_basis(a: int, N: int, s: int) -> LatticeBasis:
    """Rows spanning {m : m_1 + a*m_2 + ... + a^(s-1)*m_s == 0 (mod N)}."""
    _check_dual_params(a, N, s)
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
    rows = tuple([r + (0,) for r in basis.rows])
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


def lll_reduce(basis: LatticeBasis) -> LatticeBasis:
    """Integral LLL (Cohen, Alg. 2.6.7); same lattice, size-reduced rows,
    Lovasz condition with the constant 99/100.

    The Gram-Schmidt data is kept as the integers d_i and lam_ij of
    `_integral_gs` and updated in O(n) per swap, so the reduction is exact.
    It starts from a copy of the data `basis` carries and leaves the final
    data on the result, so enumeration does not rebuild it; the result is
    cached on `basis` for `extend_dual_basis`.  Row k is size-reduced
    (j = k-1..0, ties in rounding to even) before its Lovasz test.

    Column j of row k is clean when 2|lam_kj| <= d_(j+1), so that reducing
    it would subtract 0 times row j.  lo[k] records that columns j < lo[k]
    of row k are clean: the scan of row k stops at lo[k] unless it reduced a
    column, which rewrites the columns below it, and then goes on to 0.
    Only a swap at k dirties what a scan left clean: it rewrites d_k and the
    two exchanged rows, and in every row i > k only columns k-1 and k.  When
    row k is scanned, rows 0..k-1 are size-reduced (LLL's invariant), so
    after the scan both rows a swap exchanges are clean below column k-1.
    A skipped column would have been tested and left alone, so the result
    is the one the full scan gives.
    """
    dnum, dden = _LOVASZ
    b = list(basis.rows)  # tuples until size reduction makes a row a list
    n = len(b)
    d, lam = basis._gs[0][:], [r[:] for r in basis._gs[1]]
    lo = [0] * n
    k = 1
    while k < n:
        bk = b[k]
        lk = lam[k]
        k1 = j = k - 1
        stop = lo[k]
        while j >= stop:
            x = lk[j]
            D = d[j + 1]
            if 2 * abs(x) > D:  # otherwise round(mu_kj) = 0
                q, r = divmod(x, D)  # round(x / D), ties to even
                if 2 * r > D or (2 * r == D and q & 1):
                    q += 1
                bk = [y - q * z for y, z in zip(bk, b[j])]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
                lk[j] = x - q * D
                stop = 0
            j -= 1
        b[k], lo[k] = bk, k
        lm = lk[k1]
        d0 = d[k1]  # d_(k-1), d_k, d_(k+1)
        d1 = d[k]
        d2 = d[k + 1]
        g = d0 * d2 + lm * lm
        if dden * g >= dnum * d1 * d1:
            k += 1
            continue
        # swap rows k-1 and k and update d, lam in place (Cohen's SWAPI); the
        # two lam rows trade their columns 0..k-2, so trade the lists and
        # restore column k-1: lam_(k,k-1) stays lm, the diagonal stays 0
        b[k], b[k1] = b[k1], bk
        lk1 = lam[k] = lam[k1]
        lam[k1] = lk
        lk1[k1], lk[k1] = lm, 0
        B = g // d1
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = v = (d2 * li[k1] - lm * t) // d1
            li[k1] = (B * t + lm * v) // d2
            if lo[i] > k1:
                lo[i] = k1
        d[k] = B
        lo[k1] = lo[k] = k1
        k = k1 or 1
    reduced = LatticeBasis._known(tuple([tuple(r) for r in b]), (d, lam))
    basis._reduced = reduced
    return reduced


def shortest_vector(basis: LatticeBasis, cap: int = DEFAULT_ENUM_CAP) -> ShortestVectorResult:
    """Exact nonzero minimum of the lattice.

    LLL-reduces, seeds both the search radius R and the best vector with the
    shortest reduced row, which the search meets again, then enumerates every
    coefficient vector inside the radius (Fincke-Pohst) on the integral
    Gram-Schmidt data that LLL leaves on the reduced basis: the partial norm
    is an exact integer pair (num, den) and each coefficient interval comes
    from math.isqrt.  Ties are broken by sign-canonicalizing and taking the
    lexicographically smallest vector.  Candidate norms are recomputed in
    plain integer arithmetic.

    The search starts at `top`, the highest level with |b*_top|^2 <= R, i.e.
    d_(top+1) <= R * d_top: a vector whose highest nonzero coefficient is at
    level k is at least |b*_k| long, so every vector within R has u_i = 0
    above `top`.  The shortest row is at or below `top`, so when `top` is 0,
    R = |b_0|^2 and +-b_0 are the only vectors within it: b_0 is returned
    without a search.  A level with |b*_i|^2 = R stays in: its row can be
    the tie the rule picks, as b_1 = (1, 2) is for dual_basis(2, 5, 2).
    """
    _check_cap(basis.dim, cap)
    reduced = lll_reduce(basis)
    rows = reduced.rows
    d, lam = reduced._gs

    best_nsq, best_row = min([(sum([x * x for x in r]), r) for r in rows])
    best_vec = canonical(best_row)
    top = len(rows) - 1
    while d[top + 1] > best_nsq * d[top]:
        top -= 1
    if top:
        u = [0] * (top + 1)

        def rec(i: int, num: int, den: int, zero_above: bool) -> None:
            nonlocal best_nsq, best_vec
            # used = num / den <= best_nsq; level i adds
            # |b*_i|^2 (u_i + C/D)^2 = (u_i D + C)^2 / (d_i D)
            rem = best_nsq * den - num
            D = d[i + 1]
            tden = d[i] * D
            C = 0
            for j in range(i + 1, top + 1):
                C += lam[j][i] * u[j]
            # integers u_i with (u_i D + C)^2 <= rem * tden / den, i.e. |u_i D + C| <= r
            r = math.isqrt(rem * tden // den)
            lo, hi = -((r + C) // D), (r - C) // D
            if zero_above and lo < 0:
                lo = 0  # the highest nonzero u_i is positive: -v is canonicalized to v
            for ui in range(lo, hi + 1):
                u[i] = ui
                y = ui * D + C
                nnum, nden = num * tden + y * y * den, den * tden
                if nnum > best_nsq * nden:
                    continue
                if i:
                    rec(i - 1, nnum, nden, zero_above and not ui)
                    continue
                # a leaf: the lattice vector sum(u_j * row_j), nonzero unless u is,
                # since the rows are independent
                v = None
                for c, row in zip(u, rows):
                    if c:
                        v = ([c * z for z in row] if v is None
                             else [x + c * z for x, z in zip(v, row)])
                if v is None:
                    continue
                nsq = sum([x * x for x in v])  # = nnum / nden, so nsq <= best_nsq
                cand = canonical(v)
                if nsq < best_nsq or cand < best_vec:
                    best_nsq = nsq
                    best_vec = cand
            u[i] = 0

        try:
            rec(top, 0, 1, True)
        finally:
            del rec  # rec refers to itself: release it now, not at the next collection
    if limit := _too_many_digits(best_nsq):
        raise InvalidParams(f"the shortest vector's squared norm has more than {limit} digits")
    return ShortestVectorResult(norm_sq=best_nsq, vector=best_vec, certified=True)


def brute_force_shortest(a: int, N: int, s: int, box: int,
                         cap: int = DEFAULT_ENUM_CAP) -> ShortestVectorResult:
    """Independent oracle: scan every nonzero m with |m_j| <= box satisfying
    m_1 + a*m_2 + ... + a^(s-1)*m_s == 0 (mod N), tracking the minimum norm.

    Only half the box is scanned, the one where the highest nonzero of
    m_s .. m_2 is positive (module docstring): m and -m are the same answer
    once sign-canonicalized.  m_1 is solved from the congruence,
    m_1 == r (mod N) with 0 <= r < N, and only r and r - N are tried: any
    other m_1 is strictly longer than one of them, which lies in the box
    whenever it does.  Branches whose partial sum already exceeds the best norm found
    are skipped.  None of this can change the minimum or which canonical
    vector attains it, so the scan stays exhaustive in effect.  The result
    is certified only when box >= ceil(sqrt(norm_sq)): any vector sticking
    out of the box is then provably longer.

    The levels m_s .. m_3 recurse; the last one scanned, m_2, is one flat
    loop that solves m_1 in place and calls nothing per candidate.  It keeps
    the best vector as found and sign-canonicalizes only to break a tie in
    the norm, and the answer once at the end.

    A dimension above `cap` is refused before any work.  A scan is refused
    once its loops have taken _BOX_SCAN_STEPS // (1 + bitlength(N) // 1024)
    steps: each loop stops at what was left when it began, and is charged
    for its steps when it ends.
    """
    _check_dual_params(a, N, s)
    if box < 1:
        raise InvalidParams(f"box must be >= 1, got {shown(box)}")
    _check_cap(s, cap)
    powers = [pow(a, j, N) for j in range(s)]
    best_nsq = s * box * box + 1  # the prune bound: above every vector in the box
    best_vec: tuple[int, ...] | None = None
    m = [0] * s
    budget = left = _BOX_SCAN_STEPS // (1 + N.bit_length() // 1024)

    def last(acc: int, partial: int, signs: tuple[int, ...]) -> None:
        # m_2 = v, and m_1 = r or r - N with r = -(acc + a*v) mod N; the two
        # are written out, not looped over, as this loop is the scan's hottest
        nonlocal left, best_nsq, best_vec
        stop = box + 1 if box < left else left
        for x in range(stop):
            nsq = partial + x * x
            if nsq > best_nsq:
                break
            for v in signs if x else (0,):
                v *= x
                r = -(acc + a * v) % N
                if r <= box and 0 < (n := nsq + r * r) <= best_nsq:  # n = 0: m = 0
                    m[0] = r
                    m[1] = v
                    if n < best_nsq:
                        best_nsq, best_vec = n, tuple(m)
                    elif (cand := canonical(m)) < canonical(best_vec):
                        best_vec = cand
                r -= N
                if -r <= box and (n := nsq + r * r) <= best_nsq:
                    m[0] = r
                    m[1] = v
                    if n < best_nsq:
                        best_nsq, best_vec = n, tuple(m)
                    elif (cand := canonical(m)) < canonical(best_vec):
                        best_vec = cand
        else:
            if stop <= box:
                raise BudgetExceeded(f"box scan exceeds its budget of {budget} steps")
        left -= x + 1

    def rec(j: int, acc: int, partial: int, signs: tuple[int, ...]) -> None:
        # m_(j+1) = v for j = s-1 .. 2
        nonlocal left
        p = powers[j]
        stop = box + 1 if box < left else left
        for x in range(stop):
            nsq = partial + x * x
            if nsq > best_nsq:
                break
            # signs is (1,) while every coordinate above is 0
            down = (1, -1) if x else signs
            for v in signs if x else (0,):
                v *= x
                m[j] = v
                if j > 2:
                    rec(j - 1, (acc + p * v) % N, nsq, down)
                else:
                    last((acc + p * v) % N, nsq, down)
        else:
            if stop <= box:
                raise BudgetExceeded(f"box scan exceeds its budget of {budget} steps")
        left -= x + 1

    try:
        if s > 2:
            rec(s - 1, 0, 0, (1,))
        else:
            last(0, 0, (1,))
    finally:
        del rec  # rec refers to itself: release it now, not at the next collection
    if best_vec is None:
        raise EmptyBox(f"no nonzero solution with coordinates in [-{shown(box)}, {shown(box)}]")
    return ShortestVectorResult(
        norm_sq=best_nsq, vector=canonical(best_vec), certified=box * box >= best_nsq
    )
