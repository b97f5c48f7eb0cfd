"""Constructing generators whose spectral values are provably large.

The recipe fixes the shape of the multiplier, a = d * p_1^r_1 ... p_t^r_t + 1
with gcd(d, prod p_i) = 1; the modulus is then carved out of a power of a-1,
N = (a-1)^(tau+l) / lambda with 1 <= lambda <= (a-1)^l.  `build_range` is
the one construction; `build_single_dimension(s)` is `build_range(s, 0, 1)`.
Such pairs land in the theorem regimes of `spectral` by construction, so
every build ships with a certificate of per-dimension bounds, and `validate`
re-checks small builds against the exact solver: it returns the solver's
results with the certificate as their `bounds`, so their `checks` are the
ones that mark `analyze`'s output.
"""

from __future__ import annotations

import math

from .errors import (
    InvalidParams,
    LambdaInvalid,
    PeriodBroken,
    Record,
    TooSmall,
    _too_many_bits,
    shown,
)
from .lattice import DEFAULT_ENUM_CAP
from .lcg import LcgParams, _power_quotient, check_max_period, compute_potential
from .numtheory import is_probable_prime
from .spectral import b_coefficient, spectral_profile, theorem_bounds

# Largest exponent t = tau+l a build takes.  No larger t can succeed: N keeps
# at least (a-1)^2 of (a-1)^t and a - 1 > b_t > 2^t/(2t+2), so N would have
# over 6000 digits, more than Python converts to str by default.
_MAX_EXPONENT = 10_000


class MultiplierRecipe(Record):
    """Either an explicit multiplier `a`, or the shape d * prod(p_i^r_i) + 1,
    never both.

    Every construction is checked, `_make` and `_replace` included.  A shape
    whose every modulus would be too long to print is refused from the bit
    lengths of its primes, before any of them is tested."""

    __slots__ = ()

    def __new__(cls, a: int | None = None, d: int = 1, primes: tuple[int, ...] = (),
                exponents: tuple[int, ...] = ()) -> MultiplierRecipe:
        self = tuple.__new__(cls, (a, d, primes, exponents))
        if self.a is not None:
            if self.d != 1 or self.primes or self.exponents:
                raise InvalidParams("an explicit a takes no shape: d, primes or exponents")
            if self.a < 2:
                raise InvalidParams(f"need a >= 2, got {shown(self.a)}")
            return self
        if self.d < 1:
            raise InvalidParams(f"need d >= 1, got {shown(self.d)}")
        if len(self.primes) != len(self.exponents):
            raise InvalidParams("primes and exponents differ in length")
        if any(r < 1 for r in self.exponents):
            raise InvalidParams("exponents must be >= 1")
        # kernel >= 2^bits, and every modulus N >= (a-1)^2 >= kernel^2 >= 2^(2*bits):
        # refused before a prime is tested or the kernel is formed
        bits = sum(r * (p.bit_length() - 1) for p, r in zip(self.primes, self.exponents))
        if limit := _too_many_bits(2 * bits):
            raise InvalidParams(f"every modulus built on this prime kernel has more than "
                                f"{limit} digits")
        for i, p in enumerate(self.primes):
            if not is_probable_prime(p):
                raise InvalidParams(f"{shown(p)} is not prime")
            if i and p <= self.primes[i - 1]:
                raise InvalidParams("primes must be strictly increasing")
        kernel = self.kernel()
        if math.gcd(self.d, kernel) != 1:
            raise InvalidParams(f"gcd(d, prod primes) = {shown(math.gcd(self.d, kernel))} != 1")
        return self

    def kernel(self) -> int:
        k = 1
        for p, r in zip(self.primes, self.exponents):
            k *= p**r
        return k

    def resolve(self, b: int, min_accuracy: int | None) -> int:
        """Smallest multiplier of this shape with a - b > min_accuracy.

        An explicit `a` is only checked; a shaped recipe raises the whole
        prime kernel to the least power j that clears it, found by bisection
        between bounds read from bit lengths, so no power formed is much
        longer than the answer.
        """
        if self.a is not None:
            if min_accuracy is not None and self.a - b <= min_accuracy:
                raise TooSmall(f"a - {shown(b)} = {shown(self.a - b)} "
                               f"does not exceed {shown(min_accuracy)}")
            return self.a
        kernel = self.kernel()
        if min_accuracy is None:
            return self.d * kernel + 1
        if kernel < 2:
            raise TooSmall("recipe kernel is 1; no room to satisfy min_accuracy")
        # a - b > min_accuracy is d * kernel^j > need.  With nb, db, kb the bit
        # lengths of need (0 below 1), d and kernel (kb >= 2), d * kernel^j lies
        # in [2^(db-1 + j*(kb-1)), 2^(db + j*kb)): every j below lo falls short
        # of need, and hi clears it
        need = min_accuracy + b - 1
        nb, db, kb = max(need, 0).bit_length(), self.d.bit_length(), kernel.bit_length()
        lo = max(1, (nb - 1 - db) // kb + 1)
        hi = max(lo, -(-(nb + 1 - db) // (kb - 1)))
        while lo < hi:
            mid = (lo + hi) // 2
            if self.d * kernel**mid > need:
                hi = mid
            else:
                lo = mid + 1
        return self.d * kernel**lo + 1


class BuiltGenerator(Record):
    """A built generator: its `params` (LcgParams) and potential `profile`
    (PotentialProfile), and `guaranteed`, one TheoremBounds per dimension
    2..covers_s_max."""

    __slots__ = ()

    def __new__(cls, params: LcgParams, profile: PotentialProfile,
                guaranteed: tuple[TheoremBounds, ...]) -> BuiltGenerator:
        return tuple.__new__(cls, (params, profile, guaranteed))

    @property
    def covers_s_max(self) -> int:
        return self.guaranteed[-1].s

    @property
    def uniform_lower_sq(self) -> int | Fraction | None:
        """The weakest certified lower bound on v_s^2 over the covered s, or
        None when some dimension has no lower bound."""
        lows = [tb.lower_sq for tb in self.guaranteed]
        return None if None in lows else min(lows)


def build_range(tau: int, l: int, lam: int, recipe: MultiplierRecipe,
                min_accuracy: int | None = None) -> BuiltGenerator:
    """Generator with certified bounds over all of s = 2..tau:
    N = (a-1)^(tau+l) / lambda with 1 <= lambda <= (a-1)^l, c = 1, x0 = 0."""
    if tau < 2:
        raise InvalidParams(f"need tau >= 2, got {shown(tau)}")
    if l < 0:
        raise InvalidParams(f"need l >= 0, got {shown(l)}")
    if lam < 1:
        raise LambdaInvalid(f"need lambda >= 1, got {shown(lam)}")
    t = tau + l
    if t > _MAX_EXPONENT:
        raise InvalidParams(f"need tau+l <= {_MAX_EXPONENT}, got {shown(t)}")
    b = b_coefficient(t)
    a = recipe.resolve(b, min_accuracy)
    a_min = 5 if (t == 2 and lam == 1) else b + 1
    if a < a_min:
        raise TooSmall(f"a = {shown(a)} below the theorem threshold {shown(a_min)} "
                       f"for tau+l = {t}")
    am1 = a - 1
    # lam <= (a-1)^l holds when lam has at most l*(bits(a-1) - 1) bits; a
    # longer lam is held against a power of fewer than 2*bits(lam) bits
    if lam.bit_length() > l * (am1.bit_length() - 1) and lam > am1**l:
        raise LambdaInvalid(f"lambda = {shown(lam)} outside [1, (a-1)^{l}]")
    if pow(am1, t, lam) != 0:
        raise LambdaInvalid(f"lambda = {shown(lam)} does not divide (a-1)^{t}")
    N = _power_quotient(am1, t, lam, f"modulus N = (a-1)^{t}/lambda")
    params = LcgParams(a=a, c=1, N=N, x0=0)
    report = check_max_period(params)
    if not report.ok:
        raise PeriodBroken("; ".join(report.failures))
    # N divides (a-1)^t and N >= (a-1)^2 > a-1, so N has a potential above 1
    profile = compute_potential(a, N)
    if (profile.tau, profile.lam) != (t, lam):
        raise PeriodBroken(
            f"requested potential ({t}, {shown(lam)}) "
            f"but built ({profile.tau}, {shown(profile.lam)})"
        )
    return BuiltGenerator(
        params=params,
        profile=profile,
        guaranteed=tuple(theorem_bounds(a, profile, s) for s in range(2, tau + 1)),
    )


def build_single_dimension(s: int, recipe: MultiplierRecipe,
                           min_accuracy: int | None = None) -> BuiltGenerator:
    """Generator tuned for one dimension: `build_range(s, 0, 1, ...)`, so
    N = (a-1)^s, lambda = 1, c = 1, x0 = 0."""
    if s < 2:
        raise InvalidParams(f"need s >= 2, got {shown(s)}")
    return build_range(s, 0, 1, recipe, min_accuracy)


def validate(gen: BuiltGenerator, s_max: int,
             cap: int = DEFAULT_ENUM_CAP) -> tuple[SpectralResult, ...]:
    """The exact solver's results for s = 2..s_max, in order, each with
    `bounds` replaced by the build's own certificate entry for its s (None
    beyond `covers_s_max`), so its `checks` hold v_s against the certificate,
    not the bounds the solver attaches, and a forged certificate is caught.
    Every check is asserted; failures are reported, never raised.
    """
    if s_max < 2:
        raise InvalidParams(f"need s_max >= 2, got {shown(s_max)}")
    by_s = {tb.s: tb for tb in gen.guaranteed}
    return tuple(res._replace(bounds=by_s.get(res.s))
                 for res in spectral_profile(gen.params.a, gen.params.N, range(2, s_max + 1), cap))
