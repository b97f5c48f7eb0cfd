"""Rational reference for the lattice solver, kept as a test oracle.

This is the solver's earlier exact-rational form: Gram-Schmidt data in
`Fraction`s, rebuilt in full after every LLL swap, and Fincke-Pohst
enumeration on those rationals.  It makes the same rounding and swap
decisions as `lcgspec.lattice`, so the integral solver must return the same
reduced rows and the same shortest vector on every basis.  `int_det`, the
Bareiss determinant the package once computed for every basis, checks that
bases span the lattice they should.
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


def lll_reduce(rows):
    """LLL on exact rationals: full size reduction of row k (ties in round()
    to even), then the Lovasz test; the Gram-Schmidt data is rebuilt after
    each swap."""
    b = [list(r) for r in rows]
    n = len(b)
    mu, bsq = gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for jj in range(j):
                    mu[k][jj] -= r * mu[j][jj]
                mu[k][j] -= r
        if bsq[k] >= (DELTA - mu[k][k - 1] ** 2) * bsq[k - 1]:
            k += 1
        else:
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
    smallest sign-canonical vector."""
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
