"""Constructing generators whose spectral values are provably large.

The recipe fixes the shape of the multiplier, a = d * p_1^r_1 ... p_t^r_t + 1
with gcd(d, prod p_i) = 1; the modulus is then carved out of a power of a-1,
N = (a-1)^(tau+l) / lambda with 1 <= lambda <= (a-1)^l.  Such pairs land in
the theorem regimes of `spectral` by construction, so every build ships with
a certificate of per-dimension bounds, and `validate` re-checks small builds
against the exact solver.  The bound decisions themselves are made by
`spectral.check_bounds`, the same checks that mark `analyze`'s output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidParams,
    LambdaInvalid,
    NoPotential,
    PeriodBroken,
    PotentialOne,
    TooSmall,
)
from .lcg import (
    LcgParams,
    PotentialProfile,
    _max_period_report,
    _potential_profile,
    _strip_shared_primes,
)
from .numtheory import is_probable_prime
from .spectral import (
    BoundCheck,
    SpectralResult,
    TheoremBounds,
    b_coefficient,
    check_bounds,
    spectral_profile,
    theorem_bounds,
)

_MAX_SHAPE_STEPS = 10_000


@dataclass(frozen=True)
class MultiplierRecipe:
    """Either an explicit multiplier `a`, or the shape d * prod(p_i^r_i) + 1."""

    a: int | None = None
    d: int = 1
    primes: tuple[int, ...] = ()
    exponents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.a is not None:
            if self.a < 2:
                raise InvalidParams(f"need a >= 2, got {self.a}")
            return
        if self.d < 1:
            raise InvalidParams(f"need d >= 1, got {self.d}")
        if len(self.primes) != len(self.exponents):
            raise InvalidParams("primes and exponents differ in length")
        if any(r < 1 for r in self.exponents):
            raise InvalidParams("exponents must be >= 1")
        for i, p in enumerate(self.primes):
            if not is_probable_prime(p):
                raise InvalidParams(f"{p} is not prime")
            if i and p <= self.primes[i - 1]:
                raise InvalidParams("primes must be strictly increasing")
        kernel = self.kernel()
        if math.gcd(self.d, kernel) != 1:
            raise InvalidParams(f"gcd(d, prod primes) = {math.gcd(self.d, kernel)} != 1")

    def kernel(self) -> int:
        k = 1
        for p, r in zip(self.primes, self.exponents):
            k *= p**r
        return k

    def resolve(self, b: int, min_accuracy: int | None) -> int:
        """Smallest multiplier of this shape with a - b > min_accuracy.

        An explicit `a` is only checked; a shaped recipe is scaled by raising
        the whole prime kernel to successive powers.
        """
        if self.a is not None:
            if min_accuracy is not None and self.a - b <= min_accuracy:
                raise TooSmall(f"a - {b} = {self.a - b} does not exceed {min_accuracy}")
            return self.a
        kernel = self.kernel()
        if min_accuracy is None:
            return self.d * kernel + 1
        if kernel < 2:
            raise TooSmall("recipe kernel is 1; no room to satisfy min_accuracy")
        for j in range(1, _MAX_SHAPE_STEPS):
            a = self.d * kernel**j + 1
            if a - b > min_accuracy:
                return a
        raise TooSmall(f"no multiplier of this shape clears min_accuracy={min_accuracy}")


@dataclass(frozen=True)
class BuiltGenerator:
    params: LcgParams
    profile: PotentialProfile
    covers_s_max: int
    guaranteed: tuple[TheoremBounds, ...]
    uniform_lower_sq: int | Fraction | None
    uniform_lower_unverified: bool

    def certificate(self) -> list[dict]:
        cert = []
        for tb in self.guaranteed:
            parts = []
            if tb.lower_sq is not None:
                parts.append(f"v_{tb.s}^2 >= {tb.lower_sq}")
            if tb.upper_sq is not None:
                parts.append(f"v_{tb.s}^2 <= {tb.upper_sq}")
            if tb.lower_sq is not None and tb.lower_sq == tb.upper_sq:
                parts = [f"v_{tb.s}^2 = {tb.lower_sq}"]
            entry = tb.to_json_dict()
            entry["statement"] = "; ".join(parts) + f" (theorem {tb.theorem_id})"
            cert.append(entry)
        return cert

    def to_json_dict(self) -> dict:
        p = self.params
        return {
            "a": str(p.a),
            "c": str(p.c),
            "N": str(p.N),
            "x0": str(p.x0),
            "tau": self.profile.tau,
            "lambda": str(self.profile.lam),
            "covers": {"s_min": 2, "s_max": self.covers_s_max},
            "uniform_lower_sq": (None if self.uniform_lower_sq is None
                                 else str(self.uniform_lower_sq)),
            "uniform_lower_unverified": self.uniform_lower_unverified,
            "certificate": self.certificate(),
        }


def _build(t: int, covers: int, lam: int, recipe: MultiplierRecipe,
           min_accuracy: int | None) -> BuiltGenerator:
    """Common core: N = (a-1)^t / lam with bound coverage for s in 2..covers."""
    b = b_coefficient(t)
    a = recipe.resolve(b, min_accuracy)
    a_min = 5 if (t == 2 and lam == 1) else b + 1
    if a < a_min:
        raise TooSmall(f"a = {a} below the theorem threshold {a_min} for tau+l = {t}")
    am1 = a - 1
    if not 1 <= lam <= am1 ** (t - covers):
        raise LambdaInvalid(f"lambda = {lam} outside [1, (a-1)^{t - covers}]")
    pw = am1**t
    if pw % lam != 0:
        raise LambdaInvalid(f"lambda = {lam} does not divide (a-1)^{t}")
    N = pw // lam
    params = LcgParams(a=a, c=1, N=N, x0=0)
    # one gcd-strip of N decides both the period and the potential
    r, passes = _strip_shared_primes(a, N)
    report = _max_period_report(params, r)
    if not report.ok:
        raise PeriodBroken("; ".join(report.failures))
    try:
        profile = _potential_profile(a, N, r, passes)
    except (NoPotential, PotentialOne) as exc:
        raise PeriodBroken(str(exc)) from exc
    if (profile.tau, profile.lam) != (t, lam):
        raise PeriodBroken(
            f"requested potential ({t}, {lam}) but built ({profile.tau}, {profile.lam})"
        )
    guaranteed = tuple(theorem_bounds(a, profile, s) for s in range(2, covers + 1))
    lows = [tb.lower_sq for tb in guaranteed]
    uniform = None if any(x is None for x in lows) else min(lows)
    unverified = any(tb.lower_unverified for tb in guaranteed)
    return BuiltGenerator(
        params=params,
        profile=profile,
        covers_s_max=covers,
        guaranteed=guaranteed,
        uniform_lower_sq=uniform,
        uniform_lower_unverified=unverified,
    )


def build_single_dimension(s: int, recipe: MultiplierRecipe,
                           min_accuracy: int | None = None) -> BuiltGenerator:
    """Generator tuned for one dimension: N = (a-1)^s, lambda = 1, c = 1, x0 = 0."""
    if s < 2:
        raise InvalidParams(f"need s >= 2, got {s}")
    return _build(t=s, covers=s, lam=1, recipe=recipe, min_accuracy=min_accuracy)


def build_range(tau: int, l: int, lam: int, recipe: MultiplierRecipe,
                min_accuracy: int | None = None) -> BuiltGenerator:
    """Generator with certified bounds over all of s = 2..tau:
    N = (a-1)^(tau+l) / lambda with 1 <= lambda <= (a-1)^l."""
    if tau < 2:
        raise InvalidParams(f"need tau >= 2, got {tau}")
    if l < 0:
        raise InvalidParams(f"need l >= 0, got {l}")
    if lam < 1:
        raise LambdaInvalid(f"need lambda >= 1, got {lam}")
    return _build(t=tau + l, covers=tau, lam=lam, recipe=recipe, min_accuracy=min_accuracy)


@dataclass(frozen=True)
class ValidationRow:
    s: int
    v_sq: int
    mu: float
    checks: tuple[BoundCheck, ...]
    result: SpectralResult

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rows": [
                {
                    "s": r.s,
                    "v_sq": str(r.v_sq),
                    "mu": r.mu,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "informational": c.informational}
                        for c in r.checks
                    ],
                }
                for r in self.rows
            ],
        }


def validate(gen: BuiltGenerator, s_max: int, cap: int | None = None) -> ValidationReport:
    """Run the exact solver for s = 2..s_max and hold each v_s against the
    build's own certificate (not the bounds the solver attaches, so a forged
    certificate is caught) plus the packing bound, by `check_bounds`.
    Failures are reported, never raised; the unverified lower estimate only
    produces an informational check.
    """
    if s_max < 2:
        raise InvalidParams(f"need s_max >= 2, got {s_max}")
    by_s = {tb.s: tb for tb in gen.guaranteed}
    N = gen.params.N
    return ValidationReport(rows=tuple(
        ValidationRow(s=res.s, v_sq=res.v_sq, mu=res.mu, result=res,
                      checks=check_bounds(res.s, N, res.v_sq, by_s.get(res.s)))
        for res in spectral_profile(gen.params.a, N, range(2, s_max + 1), cap)
    ))
