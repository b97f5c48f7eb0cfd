"""Rational reference for the lattice solver, kept as a test oracle.

This is the solver's earlier exact-rational form: Gram-Schmidt data in
`Fraction`s, updated by Cohen's rational SWAP after every LLL swap, and
Fincke-Pohst enumeration on those rationals.  It makes the same rounding and
swap decisions as `lcgspec.lattice`, so the integral solver must return the
same reduced rows and the same shortest vector on every basis.  Both LLLs
count their swaps against the classical bound (`swap_bound`), so a fault in
the oracle itself fails instead of looping.
`lll_reduce_rebuilt` rebuilds the whole Gram-Schmidt data after each swap
instead; it is slow, and checks the swap update on small bases.  `int_det`,
the Bareiss determinant the package once computed for every basis, checks
that bases span the lattice they should.  `gauss_v2_sq` is v_2^2 by
Lagrange-Gauss reduction, a dozen integer lines with no LLL in them.
"""

import math
from fractions import Fraction

from lcgspec.lattice import canonical

DELTA = Fraction(99, 100)


def int_det(rows):
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


def gauss_v2_sq(a, N):
    """v_2^2 of (a, N): Lagrange-Gauss reduction of the dual basis
    (N, 0), (-a, 1), in integers.  u is reduced against the shorter v by the
    nearest integer multiple until it is no shorter than v."""
    u, v = (N, 0), (-a, 1)
    nu, nv = N * N, a * a + 1
    if nu < nv:
        u, v, nu, nv = v, u, nv, nu
    while True:
        q = (2 * (u[0] * v[0] + u[1] * v[1]) + nv) // (2 * nv)
        u = (u[0] - q * v[0], u[1] - q * v[1])
        nu = u[0] * u[0] + u[1] * u[1]
        if nu >= nv:
            return nv
        u, v, nu, nv = v, u, nv, nu


def gram_schmidt(rows):
    """Exact mu coefficients and squared orthogonal-vector norms."""
    n = len(rows)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = []
    bsq = []
    for i in range(n):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(rows[i], bstar[j])) / bsq[j]
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        q = sum(x * x for x in v)
        if q == 0:
            raise ValueError("basis rows are linearly dependent")
        bstar.append(v)
        bsq.append(q)
    return mu, bsq


def _size_reduce(b, mu, k):
    """Full size reduction of row k against rows k-1..0, ties in round() to
    even."""
    for j in range(k - 1, -1, -1):
        r = round(mu[k][j])
        if r:
            b[k] = [x - r * y for x, y in zip(b[k], b[j])]
            for jj in range(j):
                mu[k][jj] -= r * mu[j][jj]
            mu[k][j] -= r


def potential(bsq):
    """D = d_1 * ... * d_(n-1) for squared Gram-Schmidt norms `bsq`, where
    d_i = bsq[0] * ... * bsq[i-1] is the Gram determinant of the first i
    rows: a positive integer for integer rows."""
    D = d = Fraction(1)
    for q in bsq[:-1]:
        d *= q
        D *= d
    assert D.denominator == 1 and D >= 1, "Gram determinants of integer rows are integers"
    return D


def swap_bound(bsq):
    """Most swaps LLL with DELTA = 99/100 can make on integer rows whose
    squared Gram-Schmidt norms are `bsq`.  A swap of rows k-1 and k
    multiplies d_k by less than DELTA and leaves every other d_i alone, so
    after t swaps 1 <= D < (99/100)^t * D_0 (`potential`), and
    t < log(D_0) / log(100/99) < 69 * bits(D_0)."""
    return 69 * potential(bsq).numerator.bit_length()


def lll_reduce(rows):
    """LLL on exact rationals: full size reduction of row k, then the Lovasz
    test; a swap of rows k-1 and k updates the Gram-Schmidt data in O(n)
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.3)."""
    b = [list(r) for r in rows]
    n = len(b)
    mu, bsq = gram_schmidt(b)
    D, swaps_left = potential(bsq), swap_bound(bsq)
    k = 1
    while k < n:
        _size_reduce(b, mu, k)
        m = mu[k][k - 1]
        if bsq[k] >= (DELTA - m**2) * bsq[k - 1]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        mu[k][:k - 1], mu[k - 1][:k - 1] = mu[k - 1][:k - 1], mu[k][:k - 1]
        B = bsq[k] + m * m * bsq[k - 1]
        # a wrong update shows as a non-integral D long before the bound
        D, swaps_left = D * B / bsq[k - 1], swaps_left - 1
        assert D.denominator == 1 and swaps_left >= 0, "the swap update broke LLL's bounds"
        mu[k][k - 1] = m * bsq[k - 1] / B
        bsq[k] = bsq[k - 1] * bsq[k] / B
        bsq[k - 1] = B
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return tuple(tuple(r) for r in b)


def lll_reduce_rebuilt(rows):
    """`lll_reduce` with the Gram-Schmidt data rebuilt from the rows after
    each swap, as an oracle for the swap update."""
    b = [list(r) for r in rows]
    n = len(b)
    mu, bsq = gram_schmidt(b)
    swaps_left = swap_bound(bsq)
    k = 1
    while k < n:
        _size_reduce(b, mu, k)
        if bsq[k] >= (DELTA - mu[k][k - 1] ** 2) * bsq[k - 1]:
            k += 1
        else:
            swaps_left -= 1
            assert swaps_left >= 0, "more swaps than LLL can make"
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, bsq = gram_schmidt(b)
            k = max(k - 1, 1)
    return tuple(tuple(r) for r in b)


def floor_add_sqrt(A, T, B):
    """floor((A + sqrt(T)) / B) computed exactly; needs T >= 0, B > 0."""
    x = (A + math.isqrt(T)) // B
    while True:
        y = B * (x + 1) - A
        if y <= 0 or y * y <= T:
            x += 1
        else:
            break
    while True:
        y = B * x - A
        if y > 0 and y * y > T:
            x -= 1
        else:
            break
    return x


def interval(c, q):
    """Integers u with (u + c)^2 <= q, as [lo, hi] (may be empty: lo > hi)."""
    cp, cr = c.numerator, c.denominator
    qn, qm = q.numerator, q.denominator
    T = cr * cr * qn * qm
    B = cr * qm
    hi = floor_add_sqrt(-cp * qm, T, B)
    lo = -floor_add_sqrt(cp * qm, T, B)
    return lo, hi


def enumerate_shortest(rows):
    """(norm_sq, vector) of the lattice minimum of LLL-reduced `rows`: the
    radius starts at the shortest row, ties go to the lexicographically
    smallest sign-canonical vector.  The search starts at level n-1, with
    no level cut."""
    n = len(rows)
    mu, bsq = gram_schmidt(rows)
    best_nsq = min(sum(x * x for x in r) for r in rows)
    best_vec = None
    u = [0] * n

    def leaf():
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

    def rec(i, used):
        rem = best_nsq - used
        if rem < 0:
            return
        c = Fraction(0)
        for j in range(i + 1, n):
            if u[j]:
                c += mu[j][i] * u[j]
        lo, hi = interval(c, rem / bsq[i])
        if i == n - 1:
            lo = max(lo, 0)
        for ui in range(lo, hi + 1):
            u[i] = ui
            term = bsq[i] * (ui + c) ** 2
            if used + term > best_nsq:
                continue
            if i == 0:
                leaf()
            else:
                rec(i - 1, used + term)
        u[i] = 0

    rec(n - 1, Fraction(0))
    return best_nsq, best_vec
