"""Spectral figures of merit and the accuracy theorems.

v_s is the exact lattice minimum from `lattice`; mu_s rescales it against the
best packing achievable at the same modulus.  For maximum-period parameter
families, the potential profile (tau, lambda) selects one of four regimes and
each regime carries proven lower/upper estimates on v_s; those are encoded
here with their preconditions checked explicitly, and all of them asserted.
"""

from __future__ import annotations

import math

from .errors import InvalidParams, LcgspecError, NoPotential, PotentialOne, Record, shown
from .lattice import DEFAULT_ENUM_CAP, _check_cap, dual_basis, extend_dual_basis, shortest_vector
from .lcg import PotentialProfile, compute_potential

# gamma_s^(2s) = num/den, as (num, den), for the best-known packing constants
# gamma_s, s = 2..8.  They are rational, so the packing bound
# v_s <= gamma_s N^(1/s), which is v_sq^s <= gamma_s^(2s) N^2, is decided
# exactly, and the cap is printed from the same table.
_GAMMA_POW_2S = {2: (4, 3), 3: (2, 1), 4: (4, 1), 5: (8, 1), 6: (64, 3), 7: (64, 1), 8: (256, 1)}

# the regime, as (s, tau) selects it, that each theorem covers
_REGIME = {1: "S_EQ_TAU_2", 3: "S_EQ_TAU_2", 2: "S_EQ_TAU_GE3", 5: "S_EQ_TAU_GE3",
           6: "S_LT_TAU", 7: "S_GT_TAU"}


def _log(x: int | Fraction) -> float:
    """Natural log of a positive int or Fraction of any size: `math.log`
    reads an int of any size, so a Fraction is split into its two parts."""
    if type(x) is int:
        return math.log(x)
    return math.log(x.numerator) - math.log(x.denominator)


def _exp(x: float) -> float | None:
    """e^x for display; None beyond float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return None


def b_coefficient(s: int) -> int:
    """Largest magnitude among the negative coefficients of (x - 1)^s,
    i.e. max over odd k of C(s, k).  C(s, k) grows up to k = s // 2, and
    C(s, s // 2) = C(s, s // 2 + 1) for odd s, so the odd k nearest the
    middle is s // 2, or s // 2 - 1 when both s and s // 2 are even."""
    if s < 2:
        raise InvalidParams(f"need s >= 2, got {shown(s)}")
    k = s // 2
    return math.comb(s, k - 1 if s % 4 == 0 else k)


def merit(s: int, v_sq: int | Fraction, N: int) -> float | None:
    """mu_s = pi^(s/2) * v_s^s / (Gamma(s/2 + 1) * N), evaluated in floats
    (relative error a few units of 2^-52 per unit of its log terms, under
    1e-12 while v_sq and N stay below about 10^300); None beyond float
    range, as for a theorem bound far above the minimum.

    Text and csv print the mu of an exact minimum with `.4f` and never see
    None: by Minkowski's theorem (Hermite's gamma_s <= 4 V_s^(-2/s)), mu_s of
    a lattice minimum is at most V_s * gamma_s^(s/2) <= 2^s, where
    V_s = pi^(s/2) / Gamma(s/2 + 1), far inside float range for s < 1024."""
    if s < 2:
        raise InvalidParams(f"need s >= 2, got {shown(s)}")
    if N <= 0 or (v_sq if isinstance(v_sq, int) else v_sq.numerator) <= 0:
        raise InvalidParams("need v_sq > 0 and N > 0")
    half = s / 2.0
    return _exp(half * math.log(math.pi) + half * _log(v_sq)
                - math.lgamma(half + 1.0) - _log(N))


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method down from 2^ceil(bits/k)."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _packing_cap_text(s: int, N: int) -> str | None:
    """The packing cap gamma_s * N^(1/s) on v_s, rounded half up to 4
    decimals from its exact value: with gamma_s^(2s) = num/den, t is
    floor(2 * 10^4 * cap).  None outside the tabulated s = 2..8."""
    g = _GAMMA_POW_2S.get(s)
    if g is None:
        return None
    num, den = g
    t = _iroot(num * N * N * (2 * 10**4) ** (2 * s) // den, 2 * s)
    q = (t + 1) // 2
    return f"{q // 10**4}.{q % 10**4:04d}"


def within_packing_bound(s: int, N: int, v_sq: int) -> bool | None:
    """Whether v_s <= gamma_s * N^(1/s), decided exactly as
    v_sq^s * den <= num * N^2 with gamma_s^(2s) = num/den; None outside the
    tabulated s = 2..8."""
    g = _GAMMA_POW_2S.get(s)
    if g is None:
        return None
    num, den = g
    return v_sq**s * den <= num * N * N


class TheoremBounds(Record):
    """Proven estimates on v_s for one regime, as exact squares `lower_sq`
    and `upper_sq`: an int whenever the estimate is an integer expression,
    else a Fraction, and None for a side whose preconditions fail; each side
    present is asserted by `check_bounds`.  `conditions_met` and `violations`
    are tuples of str.  The roots and the mu_s window the squares induce are
    computed by `to_json_dict` when rendered.
    """

    __slots__ = ()

    def __new__(cls, theorem_id: int, s: int, lower_sq: int | Fraction | None,
                upper_sq: int | Fraction | None, conditions_met: tuple[str, ...],
                violations: tuple[str, ...]) -> TheoremBounds:
        return tuple.__new__(cls, (theorem_id, s, lower_sq, upper_sq, conditions_met, violations))

    def statement(self) -> str:
        """The bounds as one line, e.g. `v_3^2 >= 5; v_3^2 <= 9 (theorem 2)`."""
        v, lo, hi = f"v_{self.s}^2", self.lower_sq, self.upper_sq
        if lo is not None and lo == hi:
            return f"{v} = {lo} (theorem {self.theorem_id})"
        parts = [] if lo is None else [f"{v} >= {lo}"]
        if hi is not None:
            parts.append(f"{v} <= {hi}")
        return "; ".join(parts) + f" (theorem {self.theorem_id})"

    def to_json_dict(self, N: int) -> dict:
        """The bounds of a generator with modulus N, with their display
        roots and the mu_s window they induce."""
        lo, hi = self.lower_sq, self.upper_sq
        return {
            "theorem": self.theorem_id,
            "s": self.s,
            "lower": None if lo is None else _exp(0.5 * _log(lo)),
            "upper": None if hi is None else _exp(0.5 * _log(hi)),
            "lower_exact_sq": None if lo is None else str(lo),
            "upper_exact_sq": None if hi is None else str(hi),
            "mu_lower": None if lo is None else merit(self.s, lo, N),
            "mu_upper": None if hi is None else merit(self.s, hi, N),
            "conditions_met": list(self.conditions_met),
            "violations": list(self.violations),
        }


class BoundCheck(Record):
    """One exact, asserted check of v_s: `kind` is "lower" or "upper" (a
    theorem bound) or "packing"; a check that did not pass is a violation."""

    __slots__ = ()

    def __new__(cls, kind: str, name: str, passed: bool) -> BoundCheck:
        return tuple.__new__(cls, (kind, name, passed))


def check_bounds(s: int, N: int, v_sq: int, tb: TheoremBounds | None) -> tuple[BoundCheck, ...]:
    """v_sq held against the lower and upper bounds of `tb` and the packing
    bound, by exact int/Fraction comparisons; a check is present, and
    asserted, whenever its bound is.  The one place v_sq meets the theorem
    bounds: `analyze`'s marks and `builder.validate`'s rows read these."""
    checks = []
    if tb is not None and tb.lower_sq is not None:
        checks.append(BoundCheck("lower", f"v_{s}^2 >= {tb.lower_sq} (theorem {tb.theorem_id})",
                                 v_sq >= tb.lower_sq))
    if tb is not None and tb.upper_sq is not None:
        checks.append(BoundCheck("upper", f"v_{s}^2 <= {tb.upper_sq} (theorem {tb.theorem_id})",
                                 v_sq <= tb.upper_sq))
    if (ok := within_packing_bound(s, N, v_sq)) is not None:
        checks.append(BoundCheck("packing", f"v_{s} within the dimension-{s} packing bound", ok))
    return tuple(checks)


def theorem_bounds(a: int, profile: PotentialProfile, s: int) -> TheoremBounds:
    """Select and evaluate the estimate matching (s, tau, lambda).

    Violated preconditions never raise: the affected side is omitted and the
    reason recorded, so reports stay total.

    Theorem 3's lower estimate v_2^2 >= (1 + (a-2)^2)/lambda^2 (s = tau = 2,
    lambda > 1), encoded as printed, always holds.  Let b = a - 1, so N | b^2,
    N does not divide b and lambda = b^2/N; let g = gcd(b, N).  A nonzero m
    with m_1 + a*m_2 = 0 (mod N) has t = m_1 + m_2 = -b*m_2 (mod N), so
    b*t = 0 (mod N) and (N/g) | t.
      - t = 0: (N/g) | m_2 != 0, so |m|^2 = 2*m_2^2 >= 2(N/b)^2.
      - t != 0, g < b: g <= b/2, so |m|^2 >= t^2/2 >= 2(N/b)^2.
      - t != 0, g = b: N = b*k with k | b, k < b, so b >= 2k and t = b*w,
        w != 0; |m_2| >= k or |m_1| = |b*w - m_2| > b - k >= k: |m|^2 >= k^2.
    So v_2^2 >= (N/b)^2 = b^2/lambda^2 >= (1 + (a-2)^2)/lambda^2, as
    b^2 - (b-1)^2 - 1 = 2b - 2 >= 0; maximum period is not needed.
    """
    tau, lam = profile.tau, profile.lam
    if a < 2 or s < 2 or tau < 2 or lam < 1:
        raise InvalidParams("need a >= 2, s >= 2, tau >= 2, lambda >= 1")
    am1 = a - 1
    if pow(am1, tau, lam) != 0:
        raise InvalidParams(f"lambda = {shown(lam)} does not divide (a-1)^tau")

    met: list[str] = []
    bad: list[str] = []
    lower_sq: int | Fraction | None = None
    upper_sq: int | Fraction | None = None

    if s == tau == 2:
        if lam == 1:
            theorem_id = 1
            if a >= 5:
                met.append("a >= 5")
                lower_sq = upper_sq = 1 + (a - 2) ** 2
            else:
                bad.append("a < 5")
        else:
            theorem_id = 3
            import fractions  # loaded only where a bound is rational
            lower_sq = fractions.Fraction(1 + (a - 2) ** 2, lam * lam)
            if am1 % lam == 0:
                met.append("lambda divides a-1")
                upper_sq = 2 * (am1 // lam) ** 2
            else:
                bad.append("lambda does not divide a-1 (upper estimate needs it)")
    elif s == tau:
        b = b_coefficient(s)
        if lam == 1:
            theorem_id = 2
            if a >= b + 1:
                met.append(f"a >= b_{s} + 1")
                lower_sq = (a - b) ** 2
                upper_sq = a * a + 1
            else:
                bad.append(f"a <= b_{s} = {b}")
        else:
            theorem_id = 5
            if a >= b + 1:
                met.append(f"a >= b_{s} + 1")
                import fractions
                lower_sq = fractions.Fraction((a - b) ** 2, lam * lam)
                if am1 % lam == 0:
                    met.append("lambda divides a-1")
                    upper_sq = (am1 // lam) ** 2 * math.comb(2 * (s - 1), s - 1)
                else:
                    bad.append("lambda does not divide a-1 (upper estimate needs it)")
            else:
                bad.append(f"a <= b_{s} = {b}")
    elif s < tau:
        theorem_id = 6
        b = b_coefficient(s)
        if a < b + 1:
            bad.append(f"a <= b_{s} = {b}")
        elif lam > am1 ** (tau - s):
            bad.append("lambda > (a-1)^(tau-s)")
        else:
            met.append(f"a >= b_{s} + 1")
            met.append("lambda <= (a-1)^(tau-s)")
            lower_sq = (a - b) ** 2
            upper_sq = a * a + 1
    else:
        theorem_id = 7
        upper_sq = math.comb(2 * tau, tau)  # sum of C(tau, k)^2

    return TheoremBounds(
        theorem_id=theorem_id,
        s=s,
        lower_sq=lower_sq,
        upper_sq=upper_sq,
        conditions_met=tuple(met),
        violations=tuple(bad),
    )


class SpectralResult(Record):
    """Exact spectral value v_sq of (a, N) in dimension s, reached by
    `vector` (a tuple of ints), which the enumeration proved shortest;
    `profile` (PotentialProfile) and `bounds` (TheoremBounds) are None when
    (a, N) has no potential.  The display figures `lg_v` and `mu` and the
    `regime` are computed when read."""

    __slots__ = ()

    def __new__(cls, a: int, N: int, s: int, v_sq: int, vector: tuple[int, ...],
                profile: PotentialProfile | None, bounds: TheoremBounds | None) -> SpectralResult:
        return tuple.__new__(cls, (a, N, s, v_sq, vector, profile, bounds))

    @property
    def lg_v(self) -> float:
        return 0.5 * _log(self.v_sq) / math.log(10)

    @property
    def mu(self) -> float | None:
        """merit(s, v_sq, N); None beyond float range, which an exact
        minimum never reaches below s = 1024 (see `merit`)."""
        return merit(self.s, self.v_sq, self.N)

    @property
    def regime(self) -> str | None:
        """The code of the regime (s, tau) that the theorem of `bounds`
        covers; None without bounds."""
        return None if self.bounds is None else _REGIME[self.bounds.theorem_id]

    def to_json_dict(self) -> dict:
        """The figures that vary with s; a, N and the profile are shared."""
        return {
            "s": self.s,
            "v_sq": str(self.v_sq),
            "lg_v": self.lg_v,
            "vector": [str(x) for x in self.vector],
            "mu": self.mu,
            "regime": self.regime,
            "bounds": None if self.bounds is None else self.bounds.to_json_dict(self.N),
        }


def spectral_profile(a: int, N: int, dims: range,
                     cap: int = DEFAULT_ENUM_CAP) -> list[SpectralResult]:
    """Exact v_s for every s of the contiguous range `dims`, with the potential
    profile (the same one in every result) and theorem bounds attached when
    (a, N) has a profile; without one the lattice figures still come back.
    Each v_s is proved by `shortest_vector`'s enumeration, which always
    certifies, so a result carries no certificate flag.

    The dimensions are solved on one chain of reduced bases: the basis for
    s+1 is the one `shortest_vector` reduced for s, extended by
    `extend_dual_basis`, so each LLL run starts from a basis that is already
    reduced but for its last row.  A range reaching above the enumeration cap
    is refused from its endpoints, before any basis is built, naming the
    first dimension over it.
    """
    if not 2 <= a < N:
        raise InvalidParams(f"need 2 <= a < N, got a={shown(a)}, N={shown(N)}")
    # no len(): it overflows on a range longer than sys.maxsize
    if not isinstance(dims, range) or not dims or (dims.step != 1 and dims[0] != dims[-1]):
        raise InvalidParams("need a contiguous ascending range of dimensions, "
                            f"got {shown(dims, verbatim=True)}")
    if dims[0] < 2:
        raise InvalidParams(f"dimension must be >= 2, got {shown(dims[0])}")
    _check_cap(max(dims[0], min(dims[-1], cap + 1)), cap)  # the first one over the cap, if any
    basis = dual_basis(a, N, dims[0])
    try:
        profile = compute_potential(a, N)
    except (NoPotential, PotentialOne):
        profile = None
    results = []
    for s in dims:
        if results:
            basis = extend_dual_basis(basis, a, N)
        res = shortest_vector(basis, cap)
        v_sq = res.norm_sq
        bounds = None
        if profile is not None:
            bounds = theorem_bounds(a, profile, s)
            if bounds.theorem_id == 1 and bounds.lower_sq is not None:
                if v_sq != bounds.lower_sq:
                    raise LcgspecError(
                        f"solver value {shown(v_sq)} contradicts the exact dimension-2 "
                        f"formula {shown(bounds.lower_sq)} for a={shown(a)}, N={shown(N)}"
                    )
        results.append(SpectralResult(
            a=a,
            N=N,
            s=s,
            v_sq=v_sq,
            vector=res.vector,
            profile=profile,
            bounds=bounds,
        ))
    return results


def spectral_test(a: int, N: int, s: int, cap: int = DEFAULT_ENUM_CAP) -> SpectralResult:
    """`spectral_profile` in the one dimension s."""
    return spectral_profile(a, N, range(s, s + 1), cap)[0]
