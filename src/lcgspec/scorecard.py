"""Acceptance scorecard: recomputes the anchor results for classic
multipliers (69069, 1664525, 23, 129, the 3141592621 instance) and
cross-checks solver-wide properties on top of them.

Criteria 1..11 are independent checks; entry 12 re-derives the bound
certificate of the 6-dim build whose modulus is ~2^97 and checks it
against the exact solver for s = 2..6.  Criteria 10 and 11 sweep
every spectral point collected by the earlier criteria, so a full run
checks them across thousands of instances; with a restricted `only`
set they still generate their own baseline points.
"""

from __future__ import annotations

import io
import math
import random
import time
from fractions import Fraction

from .builder import MultiplierRecipe, build_range, validate
from .empirical import dump_sequence, frequency_test
from .errors import LcgspecError, Record
from .exprparse import parse_endpoint
from .lattice import brute_force_shortest, dual_basis, shortest_vector
from .lcg import LcgParams, check_max_period
from .spectral import spectral_profile, spectral_test, within_packing_bound


class CheckResult(Record):
    """Criterion `cid`'s title, verdict, detail line and seconds taken."""

    __slots__ = ()

    def __new__(cls, cid: int, title: str, passed: bool, detail: str,
                elapsed: float) -> CheckResult:
        return tuple.__new__(cls, (cid, title, passed, detail, elapsed))


def _by_generator(pool: dict) -> dict[tuple[int, int], dict[int, int]]:
    """The pool's points grouped by generator: (a, N) -> {s: v^2}."""
    out: dict[tuple[int, int], dict[int, int]] = {}
    for (a, N, s), v_sq in pool.items():
        out.setdefault((a, N), {})[s] = v_sq
    return out


def _max_period_multipliers(N: int) -> list[int]:
    return [a for a in range(2, N) if check_max_period(LcgParams(a, 1, N)).ok]


# -- criteria ------------------------------------------------------------


def _c1(pool: dict) -> tuple[bool, str]:
    t0 = time.perf_counter()
    r = spectral_test(3141592621, 10**10, 3)
    dt = time.perf_counter() - t0
    pool[r.a, r.N, r.s] = r.v_sq
    want = 227**2 + 983**2 + 130**2
    ok = (
        r.v_sq == want == 1034718
        and r.vector in ((227, 983, 130), (-227, -983, -130))
        and dt < 5.0
    )
    return ok, f"v^2 = {r.v_sq}, vector = {r.vector}, {dt:.3f} s"


def _c2(pool: dict) -> tuple[bool, str]:
    r = spectral_test(1664525, 2**32, 2)
    pool[r.a, r.N, r.s] = r.v_sq
    # mu_2 = pi v_2^2 / N within 3.61 +- 0.01, by 3.14159265358979 < pi < 3.14159265358980
    ok = (r.v_sq == 4938916874
          and 360 * r.N * 10**14 <= 100 * 314159265358979 * r.v_sq
          and 100 * 314159265358980 * r.v_sq <= 362 * r.N * 10**14)
    return ok, f"v_2^2 = {r.v_sq}, mu_2 = {r.mu:.4f}"


def _c3(pool: dict) -> tuple[bool, str]:
    r1 = spectral_test(69069, 2**32, 2)
    r2, r3 = spectral_profile(69069, 69068**2, range(2, 4))
    for r in (r1, r2, r3):
        pool[r.a, r.N, r.s] = r.v_sq
    cap_ok = (
        r3.bounds is not None
        and r3.bounds.theorem_id == 7
        and r3.bounds.upper_sq == 6
        and r3.v_sq <= 6
    )
    ok = r1.v_sq == 4243209856 and r2.v_sq == 69067**2 + 1 and cap_ok
    return ok, (
        f"v_2^2(N=2^32) = {r1.v_sq}; v_2^2(N=69068^2) = {r2.v_sq} = 69067^2 + 1; "
        f"v_3^2(N=69068^2) = {r3.v_sq} <= 6"
    )


def _c4(pool: dict) -> tuple[bool, str]:
    t0 = time.perf_counter()
    checked = 0
    for a in range(5, 2001):
        am1 = a - 1
        # N = (a-1)^2 has maximum period iff a is even or a = 1 (mod 4)
        if am1 % 2 == 1 or am1 % 4 == 0:
            r = spectral_test(a, am1 * am1, 2)
            pool[r.a, r.N, r.s] = r.v_sq
            if r.v_sq != 1 + (a - 2) ** 2:
                return False, f"a = {a}: v_2^2 = {r.v_sq} != 1 + (a-2)^2"
            checked += 1
    dt = time.perf_counter() - t0
    return dt < 60.0, f"{checked} multipliers, all exactly 1 + (a-2)^2, {dt:.1f} s"


def _c5(pool: dict) -> tuple[bool, str]:
    got = []
    for r in spectral_profile(23, 10**8 + 1, range(2, 7)):
        pool[r.a, r.N, r.s] = r.v_sq
        got.append(r.v_sq)
    return got == [530, 530, 530, 530, 447], f"v_s^2 for s = 2..6: {got}"


def _c6(pool: dict) -> tuple[bool, str]:
    got = {}
    for r in spectral_profile(129, 2**35, range(2, 7)):
        pool[r.a, r.N, r.s] = r.v_sq
        got[r.s] = r
    lower_ok = (
        got[5].bounds is not None
        and got[5].bounds.lower_sq == 14161
        and got[5].v_sq >= 14161
    )
    ok = got[5].v_sq == 15602 and got[6].v_sq == 252 and lower_ok
    return ok, (
        f"v_5^2 = {got[5].v_sq} (>= 14161 = 119^2), v_6^2 = {got[6].v_sq}"
    )


_INTERVAL_ROWS = (
    ("0.580815", "0.850411", 168, "0.000796"),
    ("1/pi^2", "1-1/e", 332, "0.0004"),
    ("0.2", "0.9", 437, "0.0008"),
)


def _c7(pool: dict) -> tuple[bool, str]:
    params = LcgParams(26, 1, 625, 0)
    got = []
    for lo, hi, want_m, want_delta in _INTERVAL_ROWS:
        rep = frequency_test(params, parse_endpoint(lo), parse_endpoint(hi), lo, hi)
        printed = Fraction(want_delta)
        decimals = len(want_delta.partition(".")[2])
        half_ulp = Fraction(1, 2 * 10**decimals)
        if rep.m != want_m or abs(rep.delta - printed) > half_ulp:
            return False, (
                f"[{lo}, {hi}]: m = {rep.m} (want {want_m}), "
                f"delta = {float(rep.delta):.9f} (want {want_delta})"
            )
        got.append(rep.m)
    return True, f"m = {got[0]}, {got[1]}, {got[2]}; deltas match printed digits"


def _c8(pool: dict) -> tuple[bool, str]:
    buf = io.StringIO()
    dump_sequence(LcgParams(26, 1, 625, 0), buf, fmt="table", per_line=10)
    lines = buf.getvalue().splitlines()
    first_ten = lines[0].split("; ")
    last_two = lines[-1].split("; ")[-2:]
    want_first = ["0.0016", "0.0432", "0.1248", "0.2464", "0.408",
                  "0.6096", "0.8512", "0.1328", "0.4544", "0.816"]
    ok = first_ten == want_first and last_two == ["0.0384", "0"]
    return ok, f"first ten {first_ten == want_first}, last two = {last_two}"


def _c9(pool: dict) -> tuple[bool, str]:
    pairs = 0
    instances = 0
    for N in range(4, 257):
        for a in _max_period_multipliers(N):
            pairs += 1
            for s in (2, 3, 4):
                enum = shortest_vector(dual_basis(a, N, s))
                brute = brute_force_shortest(a, N, s, box=N)
                instances += 1
                pool[a, N, s] = enum.norm_sq
                if not (enum.certified and brute.certified):
                    return False, f"(a={a}, N={N}, s={s}): not certified"
                if enum.norm_sq != brute.norm_sq:
                    return False, (
                        f"(a={a}, N={N}, s={s}): enum {enum.norm_sq} "
                        f"!= brute {brute.norm_sq}"
                    )
    ok = pairs >= 200
    return ok, f"{pairs} (a, N) pairs, {instances} instances, norms agree"


def _random_build(rng: random.Random):
    t = rng.randint(2, 4)
    if rng.random() < 0.5:
        a = rng.randrange(max(5, 2 * t), 4000)
        recipe = MultiplierRecipe(a=a)
    else:
        p = rng.choice((2, 3, 5, 7, 11, 13))
        r = rng.randint(1, 3 if p <= 5 else 1)
        d = rng.choice((1, 3, 5, 7, 9, 11))
        if math.gcd(d, p) != 1:
            d = 1
        recipe = MultiplierRecipe(d=d, primes=(p,), exponents=(r,))
    l = rng.choice((0, 0, 1))
    return build_range(t, l, 1, recipe)


def _c10(pool: dict) -> tuple[bool, str]:
    rng = random.Random(414213562)
    built = 0
    while built < 100:
        try:
            gen = _random_build(rng)
        except LcgspecError:
            continue
        built += 1
        a, N = gen.params.a, gen.params.N
        for s in {2, gen.covers_s_max}:
            r = spectral_test(a, N, s)
            pool[r.a, r.N, r.s] = r.v_sq
    checked = 0
    for (a, N, s), v_sq in pool.items():
        if not 2 <= s <= 8:
            continue
        checked += 1
        if not within_packing_bound(s, N, v_sq):
            return False, f"(a={a}, N={N}, s={s}): v exceeds gamma_s N^(1/s)"
    return checked > 0, f"{checked} points within the packing cap; {built} random builds"


_BATTERY = (
    (69069, 2**32, range(2, 7)),
    (26, 625, range(2, 6)),
)


def _c11(pool: dict) -> tuple[bool, str]:
    for a, N, dims in _BATTERY:
        for r in spectral_profile(a, N, dims):
            pool[r.a, r.N, r.s] = r.v_sq
    groups = 0
    comparisons = 0
    for (a, N), by_s in _by_generator(pool).items():
        dims = sorted(by_s)
        if len(dims) < 2:
            continue
        groups += 1
        for lo, hi in zip(dims, dims[1:]):
            comparisons += 1
            if by_s[lo] < by_s[hi]:
                return False, (
                    f"(a={a}, N={N}): v_{lo}^2 = {by_s[lo]} < v_{hi}^2 = {by_s[hi]}"
                )
    return groups > 0, f"non-increasing over {groups} generators ({comparisons} steps)"


def _c12(pool: dict) -> tuple[bool, str]:
    gen = build_range(6, 0, 1, MultiplierRecipe(a=69069))
    a = 69069
    if gen.params.N != 69068**6 or gen.profile.tau != 6 or gen.profile.lam != 1:
        return False, f"wrong build: N = {gen.params.N}, profile = {gen.profile}"
    # re-derive the certificate: b_s = max odd-k binomial, bounds from it
    for tb in gen.guaranteed:
        b_s = max(math.comb(tb.s, k) for k in range(1, tb.s + 1, 2))
        if tb.lower_sq != (a - b_s) ** 2 or tb.upper_sq != a**2 + 1:
            return False, f"s = {tb.s}: certificate bounds do not re-derive"
    uniform = gen.uniform_lower_sq
    if not (uniform == (a - 20) ** 2 == 4767764401 and uniform >= 4767626304):
        return False, f"uniform lower bound {uniform} != (69069 - 20)^2"
    # the exact solver against the certificate: both bounds and the packing
    # bound hold in every dimension it covers
    rows = validate(gen, 6)
    for r in rows:
        if [passed for _, passed in r.checks] != [True] * 3:
            return False, f"s = {r.s}: v_s^2 = {r.v_sq} fails {r.checks}"
    v_sq = [r.v_sq for r in rows]
    return min(v_sq) >= uniform, (
        f"v_s^2 >= {uniform} = (69069 - 20)^2 certified for 2 <= s <= 6, "
        f"N = 69068^6 (~2^96.5); solver v_s^2 = {v_sq}"
    )


_CRITERIA = (
    (1, "3-dim shortest vector for a = 3141592621, N = 10^10 (< 5 s)", _c1),
    (2, "v_2^2 and merit for a = 1664525, N = 2^32", _c2),
    (3, "v_2^2 and v_3^2 anchors for a = 69069", _c3),
    (4, "exact v_2^2 = 1 + (a-2)^2 sweep over N = (a-1)^2, a <= 2000 (< 60 s)", _c4),
    (5, "flat-then-drop profile for a = 23, N = 10^8 + 1", _c5),
    (6, "peak and fall for a = 129, N = 2^35", _c6),
    (7, "interval frequencies of the (26, 625) generator", _c7),
    (8, "decimal dump fidelity of the (26, 625) generator", _c8),
    (9, "enumeration vs box oracle on every max-period pair with N <= 256", _c9),
    (10, "packing bound v_s <= gamma_s N^(1/s) across all computed points", _c10),
    (11, "v_s^2 non-increasing in s for every analyzed generator", _c11),
    (12, "bound certificate and solver for the 6-dim a = 69069 build (modulus ~2^97)", _c12),
)


def run_all(only: set[int] | None = None) -> list[CheckResult]:
    pool: dict[tuple[int, int, int], int] = {}  # (a, N, s) -> v^2, shared by the criteria
    results = []
    for cid, title, fn in _CRITERIA:
        if only is not None and cid not in only:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(pool)
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(cid, title, passed, detail, time.perf_counter() - t0))
    return results
