import copy
import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from lcgspec import LcgParams, check_max_period, lattice
from lcgspec.errors import BudgetExceeded, DimensionTooLarge, EmptyBox, InvalidParams
from lcgspec.lattice import (
    DEFAULT_ENUM_CAP,
    LatticeBasis,
    ShortestVectorResult,
    brute_force_shortest,
    canonical,
    dual_basis,
    extend_dual_basis,
    lll_reduce,
    _integral_gs,
    shortest_vector,
)

import lattice_reference as ref


def naive_congruence_min(a, N, s, box):
    """Min norm^2 over every nonzero m with sum(m_j a^(j-1)) = 0 (mod N),
    |m_j| <= box, by full scan.  Third route, independent of both solvers.
    """
    best = None
    for m in itertools.product(range(-box, box + 1), repeat=s):
        if any(m) and sum(v * a**j for j, v in enumerate(m)) % N == 0:
            norm = sum(v * v for v in m)
            if best is None or norm < best:
                best = norm
    return best


def naive_box_answers(a, N, s, max_box):
    """The box oracle's whole answer for every box 1..max_box, by one full
    scan: entry b is (min norm^2, lexicographically least canonical vector of
    that norm) over the nonzero m with |m_j| <= b and
    sum(m_j a^(j-1)) = 0 (mod N), or None when the box holds no such m.
    Entry 0 is unused.  The canonical form of m is max(m, -m): the first
    nonzero component made positive.
    """
    found = sorted(
        (sum(v * v for v in m), max(m, tuple(-v for v in m)), max(map(abs, m)))
        for m in itertools.product(range(-max_box, max_box + 1), repeat=s)
        if any(m) and sum(v * a**j for j, v in enumerate(m)) % N == 0
    )
    return [None] + [next(((nsq, vec) for nsq, vec, width in found if width <= box), None)
                     for box in range(1, max_box + 1)]


def max_period_pairs(max_N):
    """Every (a, N) with 2 <= a < N <= max_N that has full period with c = 1."""
    return [(a, N) for N in range(3, max_N + 1) for a in range(2, N)
            if check_max_period(LcgParams(a, 1, N)).ok]


def det_by_cofactors(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, pivot in enumerate(rows[0]):
        if pivot:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * pivot * det_by_cofactors(minor)
    return total


def invert_rows(rows):
    """Exact inverse of a square integer matrix, as Fractions."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- determinants and helpers ---------------------------------------------


def test_int_det_known():
    assert ref.int_det(((2, 0), (0, 3))) == 6
    assert ref.int_det(((0, 1), (1, 0))) == -1
    assert ref.int_det(((625, 0, 0), (-26, 1, 0), (-51, 0, 1))) == 625
    assert ref.int_det(((1, 2), (2, 4))) == 0


def test_int_det_matches_cofactor_oracle():
    rng = random.Random(20260814)
    for dim in (2, 3, 4, 5):
        for _ in range(40):
            rows = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
            assert ref.int_det(tuple(map(tuple, rows))) == det_by_cofactors(rows)


def test_canonical():
    assert canonical((0, -2, 1)) == (0, 2, -1)
    assert canonical((3, -1)) == (3, -1)
    assert canonical((-3, 1)) == (3, -1)
    assert canonical((0, 0, 5)) == (0, 0, 5)


def test_floor_add_sqrt_exact():
    # the reference enumeration's floor((A + sqrt(T)) / B) with B > 0,
    # T >= 0, verified by the two defining inequalities in integer arithmetic
    def leq_sqrt(x, T):  # x <= sqrt(T)
        return True if x <= 0 else x * x <= T

    rng = random.Random(7)
    cases = [(0, 0, 1), (5, 0, 3), (-7, 50, 2), (3, 49, 7), (10**9, 10**18, 17)]
    cases += [(rng.randint(-100, 100), rng.randint(0, 4000), rng.randint(1, 20))
              for _ in range(600)]
    for A, T, B in cases:
        k = ref.floor_add_sqrt(A, T, B)
        assert leq_sqrt(k * B - A, T), (A, T, B, k)
        assert not leq_sqrt((k + 1) * B - A, T), (A, T, B, k)


def test_interval_bounds():
    # the reference enumeration's integers u with (u + c)^2 <= q
    assert ref.interval(Fraction(0), Fraction(4)) == (-2, 2)
    assert ref.interval(Fraction(1, 2), Fraction(1, 4)) == (-1, 0)
    assert ref.interval(Fraction(-5, 2), Fraction(2)) == (2, 3)
    lo, hi = ref.interval(Fraction(1, 3), Fraction(0))
    assert lo > hi  # (u + 1/3)^2 <= 0 has no integer solutions


# -- bases -----------------------------------------------------------------


def test_lattice_basis_validation():
    for rows, message in [
        (((1,),), "lattice dimension must be >= 2"),
        (((1, 0), (0,)), "basis must be square"),
        (((1, 2), (2, 4)), "basis rows are linearly dependent"),
        (((1, 0, 0), (0, 1, 0), (1, 1, 0)), "basis rows are linearly dependent"),
        (((1.5, 0), (0, 1)), "basis entry must be an integer, got 1.5"),
        (((2.0, 0), (0, 1)), "basis entry must be an integer, got 2.0"),
        (((True, 0), (0, 1)), "basis entry must be an integer, got True"),
        (((Fraction(1), 0), (0, 1)), "basis entry must be an integer, got Fraction(1, 1)"),
        ((("1", 0), (0, 1)), "basis entry must be an integer, got '1'"),
    ]:
        with pytest.raises(InvalidParams) as exc:
            LatticeBasis(rows=rows)
        assert str(exc.value) == message, rows
    b = LatticeBasis(rows=[[1, 0], [0, 1]])
    assert b.dim == 2 and b.rows == ((1, 0), (0, 1))


def test_dual_basis_shape_and_membership():
    for a, N, s in [(26, 625, 3), (69069, 2**32, 5), (5, 16, 2)]:
        basis = dual_basis(a, N, s)
        assert abs(ref.int_det(basis.rows)) == N
        assert basis.rows[0] == (N,) + (0,) * (s - 1)
        for row in basis.rows:
            assert sum(v * a**j for j, v in enumerate(row)) % N == 0


def test_dual_basis_rejects():
    with pytest.raises(InvalidParams):
        dual_basis(0, 16, 2)
    with pytest.raises(InvalidParams):
        dual_basis(16, 16, 2)
    with pytest.raises(InvalidParams):
        dual_basis(5, 16, 1)


# -- LLL -------------------------------------------------------------------


def lll_invariants(basis, reduced):
    # same lattice: the change of basis is integer with determinant +-1
    inv = invert_rows([list(r) for r in basis.rows])
    u = [[sum(Fraction(rv) * inv[k][j] for k, rv in enumerate(row))
          for j in range(basis.dim)] for row in reduced.rows]
    assert all(v.denominator == 1 for row in u for v in row)
    assert abs(det_by_cofactors([[int(v) for v in row] for row in u])) == 1
    assert abs(ref.int_det(reduced.rows)) == abs(ref.int_det(basis.rows))
    # size reduction and the Lovasz condition on the reference's rational
    # Gram-Schmidt data, independent of the integral data under test
    mu, bsq = ref.gram_schmidt(reduced.rows)
    for i in range(reduced.dim):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
    for i in range(1, reduced.dim):
        assert bsq[i] >= (ref.DELTA - mu[i][i - 1] ** 2) * bsq[i - 1]


def test_lll_invariants_on_dual_bases():
    for a, N, s in [(26, 625, 3), (3141592621, 10**10, 3), (69069, 2**32, 6),
                    (129, 2**35, 5), (23, 10**8 + 1, 4)]:
        basis = dual_basis(a, N, s)
        lll_invariants(basis, lll_reduce(basis))


def test_lll_invariants_random():
    rng = random.Random(99)
    produced = 0
    while produced < 25:
        dim = rng.randint(2, 5)
        rows = tuple(tuple(rng.randint(-50, 50) for _ in range(dim)) for _ in range(dim))
        if ref.int_det(rows) == 0:
            continue
        produced += 1
        basis = LatticeBasis(rows=rows)
        lll_invariants(basis, lll_reduce(basis))


def test_lll_keeps_gram_schmidt_data_and_determinant():
    # the data LLL maintains is the integral Gram-Schmidt data of the rows it
    # returns, and |det| stays the same through the swaps
    bases = [dual_basis(a, N, s) for a, N, s in
             [(26, 625, 3), (69069, 2**32, 6), (6364136223846793005, 2**64, 8)]]
    bases += [LatticeBasis(rows=rows) for rows in random_bases(8, 40)]
    for basis in bases:
        reduced = lll_reduce(basis)
        assert reduced._gs == _integral_gs(reduced.rows)
        assert abs(ref.int_det(reduced.rows)) == abs(ref.int_det(basis.rows))
        assert basis._reduced is reduced
        again = lll_reduce(reduced)  # starts from the data it carries
        assert again.rows == reduced.rows and again._gs == reduced._gs


def test_dual_basis_gram_schmidt_data_is_closed_form():
    rng = random.Random(20261018)
    cases = [(26, 625, 3), (69069, 2**32, 12), (6364136223846793005, 2**64, 12)]
    for _ in range(120):
        N = rng.randrange(2, 2**rng.choice((8, 32, 64)) + 1)
        cases.append((rng.randrange(1, N), N, rng.randint(2, 12)))
    for a, N, s in cases:
        basis = dual_basis(a, N, s)
        assert basis._gs == _integral_gs(basis.rows), (a, N, s)


def test_no_gram_schmidt_rebuild_on_dual_bases(monkeypatch):
    from lcgspec import LcgParams, check_max_period, lattice
    from lcgspec.spectral import spectral_profile

    want = [shortest_vector(dual_basis(69069, 2**32, s)) for s in range(2, 9)]

    def boom(rows):
        raise AssertionError("_integral_gs ran")

    monkeypatch.setattr(lattice, "_integral_gs", boom)
    assert [shortest_vector(dual_basis(69069, 2**32, s)) for s in range(2, 9)] == want
    assert [r.v_sq for r in spectral_profile(69069, 2**32, range(2, 9))] == [
        w.norm_sq for w in want
    ]


# a 6-dimensional integer lattice with no dual-lattice shape, and its answer
SIX_DIM_ROWS = (
    (-411766, -936388, -81758, -616792, 391412, -745117),
    (16083, 871122, 663343, 97901, 969950, 112575),
    (93803, 580017, 164125, 976133, 160561, 794398),
    (-308348, 231288, -630249, 1635, 940370, 75819),
    (-167718, 153336, 181638, -818823, -625846, 486971),
    (-611415, -656933, -469822, -339511, 896595, -57442),
)


def test_shortest_vector_of_rows_given_as_a_literal():
    # any integer lattice given as rows is solved through the constructor
    result = shortest_vector(LatticeBasis(SIX_DIM_ROWS))
    assert result.norm_sq == 425043366066
    assert result.vector == (300928, -49360, -574009, 36276, -16692, -31119)
    assert result.certified is True


def test_every_basis_carries_its_gram_schmidt_data():
    # whatever built the basis (the constructor, dual_basis,
    # extend_dual_basis or lll_reduce), _gs is the data of its rows
    bases = [LatticeBasis(rows=rows) for rows in random_bases(11, 60)]
    bases.append(LatticeBasis(SIX_DIM_ROWS))
    for a, N in [(26, 625), (69069, 2**32), (6364136223846793005, 2**64), (23, 10**8 + 1)]:
        basis = dual_basis(a, N, 2)
        bases.append(basis)
        for _ in range(8):
            basis = extend_dual_basis(basis, a, N)  # unreduced: pads the rows as given
            bases.append(basis)
            basis = extend_dual_basis(lll_reduce(basis), a, N)
            bases.append(basis)
    bases += [lll_reduce(b) for b in bases]
    for basis in bases:
        assert basis._gs == _integral_gs(basis.rows), basis.rows


# -- integral Gram-Schmidt -------------------------------------------------


def random_bases(seed, count):
    """`count` seeded non-singular bases of dimension 2..6; small entries give
    rounding ties, large ones long reductions."""
    rng = random.Random(seed)
    while count:
        dim = rng.randint(2, 6)
        bound = rng.choice((3, 50, 10**6))
        rows = tuple(tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(dim))
        if ref.int_det(rows):
            count -= 1
            yield rows


def test_integral_gs_matches_rational_reference():
    bases = [dual_basis(a, N, s).rows for a, N, s in
             [(26, 625, 3), (69069, 2**32, 6), (6364136223846793005, 2**64, 8)]]
    bases += list(random_bases(5, 60))
    for rows in bases:
        n = len(rows)
        d, lam = _integral_gs(rows)
        mu, bsq = ref.gram_schmidt(rows)
        assert d[0] == 1 and d[n] == ref.int_det(rows) ** 2
        for i in range(n):
            assert Fraction(d[i + 1], d[i]) == bsq[i]
            for j in range(i):
                assert Fraction(lam[i][j], d[j + 1]) == mu[i][j]


def test_integral_gs_rejects_dependent_rows():
    for rows in [((1, 2), (2, 4)), ((0, 0), (1, 1)), ((1, 0, 0), (0, 1, 0), (1, 1, 0))]:
        with pytest.raises(InvalidParams):
            _integral_gs(rows)


# -- cross-checks against the rational reference -----------------------------


def assert_matches_reference(basis):
    want_rows = ref.lll_reduce(basis.rows)
    assert lll_reduce(basis).rows == want_rows, basis.rows
    got = shortest_vector(basis)
    assert (got.norm_sq, got.vector) == ref.enumerate_shortest(want_rows), basis.rows


def test_matches_reference_on_dual_bases():
    cases = [(6364136223846793005, 2**64, s) for s in range(2, 11)]
    cases += [(a, N, s) for a, N in [(69069, 2**32), (3141592621, 10**10), (23, 10**8 + 1)]
              for s in range(2, 7)]
    rng = random.Random(20261017)
    for _ in range(30):
        N = rng.choice((2**32, 2**48, 10**10, 3**20, 4 * 5**12))
        cases.append((rng.randrange(2, N), N, rng.randint(2, 6)))
    for a, N, s in cases:
        assert_matches_reference(dual_basis(a, N, s))


def test_matches_reference_on_random_bases():
    for rows in random_bases(20261017, 240):
        assert_matches_reference(LatticeBasis(rows=rows))


# the published multipliers of the benchmark's `sweep`, and 69069 over the
# modulus 69068^6 (~2^96.5) of the paper's 6-dimensional build
CHAIN_MULTIPLIERS = [(69069, 2**32), (1664525, 2**32), (25214903917, 2**48),
                     (6364136223846793005, 2**64), (3141592621, 10**10), (23, 10**8 + 1),
                     (69069, 69068**6)]


def chained_bases(a, N, dims=range(2, 13)):
    """The bases `spectral_profile` reduces for s in `dims`: each the LLL
    reduction of the one before, extended by a row, so all rows but the last
    are already reduced."""
    basis = dual_basis(a, N, dims[0])
    for _ in dims:
        yield basis
        basis = extend_dual_basis(lll_reduce(basis), a, N)


@pytest.mark.parametrize("a, N", CHAIN_MULTIPLIERS)
def test_matches_reference_on_chained_bases(a, N):
    for basis in chained_bases(a, N):
        reduced = lll_reduce(basis)
        assert reduced.rows == ref.lll_reduce(basis.rows), basis.dim
        assert reduced._gs == _integral_gs(reduced.rows), basis.dim


def test_gauss_v2_matches_the_solver():
    # every maximum-period a of 2^14, then 2,000 seeded a = 1 mod 4 below 2^64
    pairs = [(a, 2**14) for a in range(5, 2**14, 4)]
    rng = random.Random(14)
    pairs += [(4 * rng.randrange(1, 2**62) + 1, 2**64) for _ in range(2000)]
    assert len(pairs) == 6095
    for a, N in pairs:
        assert ref.gauss_v2_sq(a, N) == shortest_vector(dual_basis(a, N, 2)).norm_sq, (a, N)
    # theorem 1: v_2^2 = 1 + (a-2)^2 at N = (a-1)^2
    for a in range(5, 400):
        assert ref.gauss_v2_sq(a, (a - 1) ** 2) == 1 + (a - 2) ** 2, a


def test_reference_swap_update_matches_rebuild():
    # the rational reference updates its Gram-Schmidt data at each swap; the
    # one that rebuilds it instead is slow, so they are compared on small
    # bases only
    bases = [dual_basis(a, N, s).rows for a, N, s in
             [(26, 625, 3), (69069, 2**32, 6), (6364136223846793005, 2**64, 8)]]
    bases += [b.rows for b in chained_bases(69069, 2**32, range(2, 9))]
    bases += list(random_bases(7, 60))
    for rows in bases:
        assert ref.lll_reduce(rows) == ref.lll_reduce_rebuilt(rows), rows


def test_lll_leaves_its_input_unchanged():
    bases = [dual_basis(a, N, s) for a, N, s in
             [(26, 625, 3), (69069, 2**32, 6), (6364136223846793005, 2**64, 8)]]
    bases += [b for a, N in CHAIN_MULTIPLIERS[:4] for b in chained_bases(a, N, range(2, 9))]
    bases += [LatticeBasis(rows=rows) for rows in random_bases(31, 60)]
    for basis in bases:
        rows, gs = copy.deepcopy(basis.rows), copy.deepcopy(basis._gs)
        reduced = lll_reduce(basis)
        assert basis.rows == rows and basis._gs == gs, rows
        # the result shares no mutable list with its input
        assert reduced._gs[0] is not basis._gs[0]
        assert not {id(r) for r in reduced._gs[1]} & {id(r) for r in basis._gs[1]}


# -- shortest vector ---------------------------------------------------------


def test_shortest_vector_against_naive_scan():
    for N in range(4, 25):
        for a in range(2, N):
            want = naive_congruence_min(a, N, 2, box=N)
            got = shortest_vector(dual_basis(a, N, 2))
            assert got.norm_sq == want, (a, N)
            assert got.certified


def test_shortest_vector_against_naive_scan_3d():
    for N in (5, 8, 9, 11, 12):
        for a in range(2, N):
            want = naive_congruence_min(a, N, 3, box=N)
            got = shortest_vector(dual_basis(a, N, 3))
            assert got.norm_sq == want, (a, N)


def test_shortest_vector_result_properties():
    for a, N, s in [(26, 625, 2), (26, 625, 3), (69069, 2**32, 4)]:
        r = shortest_vector(dual_basis(a, N, s))
        assert sum(v * a**j for j, v in enumerate(r.vector)) % N == 0
        assert sum(v * v for v in r.vector) == r.norm_sq
        assert r.vector == canonical(r.vector)
        assert r.certified


def test_shortest_vector_named_values():
    assert shortest_vector(dual_basis(3141592621, 10**10, 3)).norm_sq == 1034718
    assert shortest_vector(dual_basis(3141592621, 10**10, 3)).vector == (227, 983, 130)
    assert shortest_vector(dual_basis(5, 16, 2)).vector == (1, 3)
    assert shortest_vector(dual_basis(3, 4, 2)).vector == (1, 1)
    assert shortest_vector(dual_basis(2, 5, 2)).vector == (1, 2)  # tie -> lex least


def enumeration_top(reduced):
    """The highest level i with |b*_i|^2 <= R, R the shortest reduced row,
    from the Gram-Schmidt data on the reduced basis."""
    d, _ = reduced._gs
    R = min(sum(x * x for x in r) for r in reduced.rows)
    return max(i for i in range(reduced.dim) if d[i + 1] <= R * d[i])


def test_enumeration_keeps_vectors_on_the_radius():
    # the radius starts at the shortest reduced row, which is already the
    # minimum; the lex-least minimal vector is found only if points exactly
    # on the radius are enumerated
    for a, N, want in [(2, 5, (1, 2)), (4, 5, (0, 1, 1))]:
        basis = dual_basis(a, N, len(want))
        rows = lll_reduce(basis).rows
        got = shortest_vector(basis)
        assert got.norm_sq == min(sum(x * x for x in r) for r in rows)
        assert got.vector == want
        # and only if the level cut keeps level 1: in (2, 5, 2) |b*_1|^2
        # equals the radius and b_1 is the tie; in (4, 5, 3) the tie is no
        # reduced row and lies below a top of 1, strictly inside
        assert enumeration_top(lll_reduce(basis)) == 1
    reduced = lll_reduce(dual_basis(2, 5, 2))
    assert reduced.rows == ((-2, 1), (1, 2)) and reduced._gs[0][2] == 5 * reduced._gs[0][1]
    assert (0, 1, 1) not in {canonical(r) for r in lll_reduce(dual_basis(4, 5, 3)).rows}


def test_enumeration_reaches_each_sign_pair_once(monkeypatch):
    # the search runs over the half-space whose highest nonzero coefficient
    # is positive, so no leaf is the negation of another
    seen = []

    def recording(vec):
        seen.append(tuple(vec))
        return canonical(vec)

    monkeypatch.setattr(lattice, "canonical", recording)
    calls = 0
    for a, N in max_period_pairs(64):
        for s in (2, 3, 4):
            seen.clear()
            shortest_vector(dual_basis(a, N, s))
            calls += 1
            assert not {tuple([-x for x in v]) for v in seen} & set(seen), (a, N, s)
    assert calls == 216


def test_shortest_vector_identity_basis():
    r = shortest_vector(LatticeBasis(rows=((1, 0), (0, 1))))
    assert r.norm_sq == 1 and r.vector == (0, 1)
    r = shortest_vector(LatticeBasis(rows=((2, 1), (1, 1))))
    assert r.norm_sq == 1


def test_shortest_vector_json():
    d = shortest_vector(dual_basis(5, 16, 2)).to_json_dict()
    assert d == {"norm_sq": "10", "vector": ["1", "3"], "certified": True}


def test_enum_cap():
    assert DEFAULT_ENUM_CAP == 12
    # the default cap, then an explicit one, each refusing the dimension above it
    with pytest.raises(DimensionTooLarge, match="^dimension 13 exceeds enumeration cap 12$"):
        shortest_vector(dual_basis(26, 625, 13))
    with pytest.raises(DimensionTooLarge, match="^dimension 6 exceeds enumeration cap 5$"):
        shortest_vector(dual_basis(26, 625, 6), cap=5)
    with pytest.raises(DimensionTooLarge):
        shortest_vector(dual_basis(26, 625, 4), cap=3)
    assert shortest_vector(dual_basis(26, 625, 4), cap=4).certified


# -- the level cut -------------------------------------------------------------


def assert_cut_matches_reference(bases):
    """`shortest_vector` equals the reference enumeration, which starts at
    level n-1, on every basis; returns the kinds of `top` seen."""
    kinds = set()
    for basis in bases:
        reduced = lll_reduce(basis)
        top = enumeration_top(reduced)
        kinds.add("0" if top == 0 else "n-1" if top == basis.dim - 1 else "between")
        got = shortest_vector(basis)
        assert got.certified, basis.rows
        assert (got.norm_sq, got.vector) == ref.enumerate_shortest(reduced.rows), basis.rows
    return kinds


def test_level_cut_on_every_max_period_pair():
    pairs = max_period_pairs(256)
    assert len(pairs) == 580
    bases = [dual_basis(a, N, s) for a, N in pairs for s in (2, 3, 4)]
    assert assert_cut_matches_reference(bases) == {"0", "between", "n-1"}


def test_level_cut_on_chained_bases():
    # the bases `sweep` solves, s = 2..12
    bases = [b for a, N in CHAIN_MULTIPLIERS for b in chained_bases(a, N)]
    assert assert_cut_matches_reference(bases) == {"0", "between", "n-1"}


# -- box oracle --------------------------------------------------------------


def test_brute_force_matches_naive():
    for N in range(4, 20):
        for a in range(2, N):
            want = naive_congruence_min(a, N, 2, box=N)
            got = brute_force_shortest(a, N, 2, box=N)
            assert got.norm_sq == want, (a, N)
            assert got.certified


@pytest.mark.parametrize("s, max_N", [(2, 24), (3, 12), (4, 6)])
def test_brute_force_whole_answer_matches_naive(s, max_N):
    # (norm_sq, vector, certified) or EmptyBox for every a and box 1..N
    uncertified = empty = 0
    for N in range(2, max_N + 1):
        for a in range(1, N):
            answers = naive_box_answers(a, N, s, N)
            for box in range(1, N + 1):
                if answers[box] is None:
                    empty += 1
                    with pytest.raises(EmptyBox):
                        brute_force_shortest(a, N, s, box)
                    continue
                nsq, vec = answers[box]
                uncertified += box * box < nsq
                want = ShortestVectorResult(nsq, vec, box * box >= nsq)
                assert brute_force_shortest(a, N, s, box) == want, (a, N, s, box)
    assert uncertified and (empty or s == 4)  # at s = 4, N <= 6 no box is empty


def test_brute_force_deep_zero_prefixes_match_enumeration():
    # at s = 5 and 6, three and four levels hand "every coordinate above is
    # 0" down before the last one; a box of N holds the shortest vector.  A
    # vector with m_s = 0 never decides the answer: its shift
    # (0, m_1, ..., m_(s-1)) is in the lattice, as long, and canonically
    # smaller, so this checks the scan's half-space, not its deeper levels
    pairs = max_period_pairs(64)
    assert len(pairs) == 72
    for a, N in pairs:
        for s in (5, 6):
            got = brute_force_shortest(a, N, s, box=N)
            want = shortest_vector(dual_basis(a, N, s))
            assert (got.norm_sq, got.vector) == (want.norm_sq, want.vector), (a, N, s)


def test_brute_force_certified_semantics():
    r = brute_force_shortest(5, 16, 2, box=3)
    assert r.norm_sq == 10 and not r.certified  # 3^2 < 10: box may have missed
    r = brute_force_shortest(5, 16, 2, box=4)
    assert r.norm_sq == 10 and r.certified


def test_brute_force_empty_box():
    with pytest.raises(EmptyBox):
        brute_force_shortest(2, 5, 2, box=1)
    with pytest.raises(InvalidParams):
        brute_force_shortest(2, 5, 2, box=0)


def test_brute_force_enum_cap():
    # the one cap, checked before the scan, which recurses once per coordinate
    with pytest.raises(DimensionTooLarge, match="^dimension 3000 exceeds enumeration cap 12$"):
        brute_force_shortest(5, 16, 3000, box=1)
    with pytest.raises(DimensionTooLarge, match="^dimension 5 exceeds enumeration cap 4$"):
        brute_force_shortest(5, 16, 5, box=1, cap=4)
    assert brute_force_shortest(5, 16, 4, box=16, cap=4) == brute_force_shortest(5, 16, 4, box=16)


def test_brute_force_step_budget(monkeypatch):
    # the steps each scan is charged: every smaller budget is refused, from it
    # on the answer is whole.  At s = 6 four levels hand "every coordinate
    # above is 0" down, which no answer shows
    # (test_brute_force_deep_zero_prefixes_match_enumeration): the charge
    # pins it
    cases = [(26, 625, 3, 30, 33), (26, 625, 2, 30, 26), (5, 256, 4, 256, 114),
             (41, 256, 4, 256, 165), (17, 64, 3, 64, 14), (17, 64, 6, 64, 92)]
    wants = [brute_force_shortest(a, N, s, box) for a, N, s, box, _ in cases]
    for (a, N, s, box, charged), want in zip(cases, wants):
        for steps in range(1, 301):
            monkeypatch.setattr(lattice, "_BOX_SCAN_STEPS", steps)
            if steps < charged:
                with pytest.raises(BudgetExceeded,
                                   match=f"^box scan exceeds its budget of {steps} steps$"):
                    brute_force_shortest(a, N, s, box)
            else:
                assert brute_force_shortest(a, N, s, box) == want, (a, N, s, box, steps)


def test_brute_force_budget_stops_a_long_loop(monkeypatch):
    # one loop over 10^9 + 1 values of m_2, none pruned: refused at the budget
    monkeypatch.setattr(lattice, "_BOX_SCAN_STEPS", 1000)
    with pytest.raises(BudgetExceeded, match="^box scan exceeds its budget of 1000 steps$"):
        brute_force_shortest(10**9 + 7, 10**18, 2, box=10**9)
    # a step works mod N, so a larger N gets fewer: 13288 bits, 1000 // 13
    with pytest.raises(BudgetExceeded, match="^box scan exceeds its budget of 76 steps$"):
        brute_force_shortest(10**9 + 7, 10**4000, 2, box=10**9)


def test_exact_searches_leave_no_reference_cycle(monkeypatch):
    # each call frees what it made when it returns or raises: the cyclic
    # collector finds nothing after it
    monkeypatch.setattr(lattice, "_BOX_SCAN_STEPS", 150)
    calls = [
        (lambda: shortest_vector(dual_basis(5, 16, 3)), None),  # searches from level 1
        (lambda: shortest_vector(dual_basis(5, 16, 2)), None),  # the first reduced row
        (lambda: brute_force_shortest(5, 256, 4, box=256), None),  # charged 114 steps
        (lambda: brute_force_shortest(2, 5, 2, box=1), EmptyBox),
        (lambda: brute_force_shortest(41, 256, 4, box=256), BudgetExceeded),  # needs 165
    ]
    gc.disable()
    try:
        gc.collect()
        for call, refusal in calls:
            raised = None
            try:
                call()
            except (EmptyBox, BudgetExceeded) as exc:
                raised = type(exc)
            assert raised is refusal and gc.collect() == 0, refusal
    finally:
        gc.enable()


def test_brute_force_ties_canonical():
    r = brute_force_shortest(2, 5, 2, box=5)
    assert r.norm_sq == 5 and r.vector == (1, 2)
