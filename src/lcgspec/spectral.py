"""Spectral figures of merit and the accuracy theorems.

v_s is the exact lattice minimum from `lattice`; mu_s rescales it against the
best packing achievable at the same modulus.  For maximum-period parameter
families, the potential profile (tau, lambda) selects one of four regimes and
each regime carries proven lower/upper estimates on v_s; those are encoded
here with their preconditions checked explicitly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionTooLarge,
    InvalidParams,
    LcgspecError,
    NoPotential,
    PotentialOne,
    Unsupported,
)
from .lattice import dual_basis, extend_dual_basis, resolve_enum_cap, shortest_vector
from .lcg import PotentialProfile, compute_potential

# gamma_s^(2s) for the best-known packing constants gamma_s, s = 2..8.  They
# are rational, so the packing bound v_s <= gamma_s N^(1/s), which is
# v_sq^s <= gamma_s^(2s) N^2, is decided exactly.
_GAMMA_POW_2S = {
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
}
_GAMMA = {s: float(g) ** (1 / (2 * s)) for s, g in _GAMMA_POW_2S.items()}


class Regime(enum.Enum):
    S_EQ_TAU_2 = "S_EQ_TAU_2"
    S_EQ_TAU_GE3 = "S_EQ_TAU_GE3"
    S_LT_TAU = "S_LT_TAU"
    S_GT_TAU = "S_GT_TAU"


def _log_int(n: int) -> float:
    """Natural log that survives integers far beyond float range."""
    if n <= 0:
        raise ValueError("log of non-positive integer")
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 53
    return math.log(n >> shift) + shift * math.log(2)


def _log_value(x: int | Fraction) -> float:
    if isinstance(x, Fraction):
        return _log_int(x.numerator) - _log_int(x.denominator)
    return _log_int(x)


def _sqrt_to_float(sq: int | Fraction) -> float | None:
    """sqrt(sq) for display; None when it lies beyond float range."""
    try:
        return math.exp(0.5 * _log_value(sq))
    except OverflowError:
        return None


def b_coefficient(s: int) -> int:
    """Largest magnitude among the negative coefficients of (x - 1)^s,
    i.e. max over odd k of C(s, k)."""
    if s < 2:
        raise InvalidParams(f"need s >= 2, got {s}")
    return max(math.comb(s, k) for k in range(1, s + 1, 2))


def merit(s: int, v_sq: int | Fraction, N: int) -> float:
    """mu_s = pi^(s/2) * v_s^s / (Gamma(s/2 + 1) * N), evaluated in floats
    (relative error well under 1e-12 even for huge inputs)."""
    if s < 2:
        raise InvalidParams(f"need s >= 2, got {s}")
    if N <= 0 or (v_sq if isinstance(v_sq, int) else v_sq.numerator) <= 0:
        raise InvalidParams("need v_sq > 0 and N > 0")
    half = s / 2.0
    return math.exp(
        half * math.log(math.pi)
        + half * _log_value(v_sq)
        - math.lgamma(half + 1.0)
        - _log_int(N)
    )


def knuth_bound(s: int, N: int) -> float:
    """Unconditional bound gamma_s * N^(1/s) on v_s, tabulated for s = 2..8;
    Unsupported beyond float range too."""
    if s not in _GAMMA:
        raise Unsupported(f"no tabulated constant for s = {s} (supported: 2..8)")
    if N <= 0:
        raise InvalidParams(f"N must be positive, got {N}")
    try:
        bound = _GAMMA[s] * math.exp(_log_int(N) / s)
    except OverflowError:
        bound = math.inf
    if math.isinf(bound):
        raise Unsupported(f"gamma_{s} * N^(1/{s}) lies beyond float range")
    return bound


def within_packing_bound(s: int, N: int, v_sq: int) -> bool | None:
    """Whether v_s <= gamma_s * N^(1/s), decided exactly as
    v_sq^s * den <= num * N^2 with gamma_s^(2s) = num/den; None outside the
    tabulated s = 2..8."""
    g = _GAMMA_POW_2S.get(s)
    if g is None:
        return None
    return v_sq**s * g.denominator <= g.numerator * N * N


def classify_regime(s: int, profile: PotentialProfile) -> Regime:
    if s < 2:
        raise InvalidParams(f"need s >= 2, got {s}")
    tau = profile.tau
    if s == tau:
        return Regime.S_EQ_TAU_2 if s == 2 else Regime.S_EQ_TAU_GE3
    return Regime.S_LT_TAU if s < tau else Regime.S_GT_TAU


@dataclass(frozen=True)
class TheoremBounds:
    """Proven estimates on v_s (and the induced mu_s window) for one regime.

    Square bounds are exact integers whenever the estimate is an integer
    expression.  `lower_unverified` marks the one estimate encoded from its
    source without independent verification; it is reported but must not be
    hard-asserted.
    """

    theorem_id: int
    s: int
    lower: float | None
    upper: float | None
    lower_exact_sq: int | None
    upper_exact_sq: int | None
    mu_lower: float | None
    mu_upper: float | None
    conditions_met: tuple[str, ...]
    violations: tuple[str, ...]
    lower_unverified: bool = False
    # squared bounds as exact rationals, even when not integer expressions
    lower_sq: int | Fraction | None = None
    upper_sq: int | Fraction | None = None

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "s": self.s,
            "lower": self.lower,
            "upper": self.upper,
            "lower_exact_sq": None if self.lower_exact_sq is None else str(self.lower_exact_sq),
            "upper_exact_sq": None if self.upper_exact_sq is None else str(self.upper_exact_sq),
            "mu_lower": self.mu_lower,
            "mu_upper": self.mu_upper,
            "conditions_met": list(self.conditions_met),
            "violations": list(self.violations),
            "lower_unverified": self.lower_unverified,
        }


@dataclass(frozen=True)
class BoundCheck:
    """One exact check of v_s: `kind` is "lower" or "upper" (a theorem bound)
    or "packing"; an informational check is reported, never asserted."""

    kind: str
    name: str
    passed: bool
    informational: bool = False


def check_bounds(s: int, N: int, v_sq: int, tb: TheoremBounds | None) -> tuple[BoundCheck, ...]:
    """v_sq held against the lower and upper bounds of `tb` and the packing
    bound, by exact int/Fraction comparisons; a check is present only when its
    bound is.  The one place v_sq meets the theorem bounds: `analyze`'s marks
    and `builder.validate`'s rows both read these checks."""
    checks = []
    if tb is not None and tb.lower_sq is not None:
        checks.append(BoundCheck("lower", f"v_{s}^2 >= {tb.lower_sq} (theorem {tb.theorem_id})",
                                 v_sq >= tb.lower_sq, tb.lower_unverified))
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
    """
    tau, lam = profile.tau, profile.lam
    if a < 2 or s < 2 or tau < 2 or lam < 1:
        raise InvalidParams("need a >= 2, s >= 2, tau >= 2, lambda >= 1")
    am1 = a - 1
    pw = am1**tau
    if pw % lam != 0:
        raise InvalidParams(f"lambda = {lam} does not divide (a-1)^tau")
    N = pw // lam
    regime = classify_regime(s, profile)

    met: list[str] = []
    bad: list[str] = []
    lower_sq: int | Fraction | None = None
    upper_sq: int | Fraction | None = None
    lower_unverified = False

    if regime is Regime.S_EQ_TAU_2:
        if lam == 1:
            theorem_id = 1
            if a >= 5:
                met.append("a >= 5")
                lower_sq = upper_sq = 1 + (a - 2) ** 2
            else:
                bad.append("a < 5")
        else:
            theorem_id = 3
            lower_sq = Fraction(1 + (a - 2) ** 2, lam * lam)
            lower_unverified = True  # encoded as printed, reported but not asserted
            if am1 % lam == 0:
                met.append("lambda divides a-1")
                upper_sq = 2 * (am1 // lam) ** 2
            else:
                bad.append("lambda does not divide a-1 (upper estimate needs it)")
    elif regime is Regime.S_EQ_TAU_GE3:
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
                lower_sq = Fraction((a - b) ** 2, lam * lam)
                if am1 % lam == 0:
                    met.append("lambda divides a-1")
                    upper_sq = (am1 // lam) ** 2 * math.comb(2 * (s - 1), s - 1)
                else:
                    bad.append("lambda does not divide a-1 (upper estimate needs it)")
            else:
                bad.append(f"a <= b_{s} = {b}")
    elif regime is Regime.S_LT_TAU:
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

    def _f(x: int | Fraction | None) -> float | None:
        return None if x is None else _sqrt_to_float(x)

    def _m(x: int | Fraction | None) -> float | None:
        return None if x is None else merit(s, x, N)

    return TheoremBounds(
        theorem_id=theorem_id,
        s=s,
        lower=_f(lower_sq),
        upper=_f(upper_sq),
        lower_exact_sq=lower_sq if isinstance(lower_sq, int) else None,
        upper_exact_sq=upper_sq if isinstance(upper_sq, int) else None,
        mu_lower=_m(lower_sq),
        mu_upper=_m(upper_sq),
        conditions_met=tuple(met),
        violations=tuple(bad),
        lower_unverified=lower_unverified,
        lower_sq=lower_sq,
        upper_sq=upper_sq,
    )


@dataclass(frozen=True)
class SpectralResult:
    """Exact spectral value of (a, N) in dimension s plus derived figures."""

    a: int
    N: int
    s: int
    v_sq: int
    v: float | None  # None beyond float range; v_sq is exact
    vector: tuple[int, ...]
    mu: float
    certified: bool
    profile: PotentialProfile | None
    regime: Regime | None
    bounds: TheoremBounds | None

    @property
    def lg_v(self) -> float:
        return 0.5 * _log_value(self.v_sq) / math.log(10)

    def to_json_dict(self) -> dict:
        return {
            "a": str(self.a),
            "N": str(self.N),
            "s": self.s,
            "v_sq": str(self.v_sq),
            "v": self.v,
            "lg_v": self.lg_v,
            "vector": [str(x) for x in self.vector],
            "mu": self.mu,
            "certified": self.certified,
            "tau": None if self.profile is None else self.profile.tau,
            "lambda": None if self.profile is None else str(self.profile.lam),
            "regime": None if self.regime is None else self.regime.value,
            "bounds": None if self.bounds is None else self.bounds.to_json_dict(),
        }


def spectral_profile(a: int, N: int, dims, cap: int | None = None) -> list[SpectralResult]:
    """Exact v_s for every s of the contiguous range `dims`, each with mu_s,
    the regime classification and theorem bounds attached when (a, N) has a
    potential profile; without one the lattice figures still come back.

    The dimensions are solved on one chain of reduced bases: the basis for
    s+1 is the one `shortest_vector` reduced for s, extended by
    `extend_dual_basis`, so each LLL run starts from a basis that is already
    reduced but for its last row.  A range reaching above the enumeration cap
    is refused before any solver work, naming the first dimension over it.
    """
    if not 2 <= a < N:
        raise InvalidParams(f"need 2 <= a < N, got a={a}, N={N}")
    dims = list(dims)
    if not dims or dims != list(range(dims[0], dims[0] + len(dims))):
        raise InvalidParams(f"need a contiguous ascending range of dimensions, got {dims}")
    basis = dual_basis(a, N, dims[0])  # reports s < 2 ahead of the cap
    cap = resolve_enum_cap(cap)
    if dims[-1] > cap:
        raise DimensionTooLarge(
            f"dimension {max(dims[0], cap + 1)} exceeds enumeration cap {cap}"
        )
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
        regime = bounds = None
        if profile is not None:
            regime = classify_regime(s, profile)
            bounds = theorem_bounds(a, profile, s)
            if bounds.theorem_id == 1 and bounds.lower_exact_sq is not None:
                if v_sq != bounds.lower_exact_sq:
                    raise LcgspecError(
                        f"solver value {v_sq} contradicts the exact dimension-2 "
                        f"formula {bounds.lower_exact_sq} for a={a}, N={N}"
                    )
        results.append(SpectralResult(
            a=a,
            N=N,
            s=s,
            v_sq=v_sq,
            v=_sqrt_to_float(v_sq),
            vector=res.vector,
            mu=merit(s, v_sq, N),
            certified=res.certified,
            profile=profile,
            regime=regime,
            bounds=bounds,
        ))
    return results


def spectral_test(a: int, N: int, s: int, cap: int | None = None) -> SpectralResult:
    """`spectral_profile` in the one dimension s."""
    return spectral_profile(a, N, [s], cap)[0]
