"""Exception taxonomy shared by all modules."""


class LcgspecError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(LcgspecError, ValueError):
    """Generator parameters violate the basic constraints."""


class ExpressionError(LcgspecError, ValueError):
    """Malformed or oversized integer expression."""


class TooSmall(LcgspecError):
    """Multiplier too small for the requested construction theorem."""


class NoPotential(LcgspecError):
    """Some prime of N does not divide a-1, so no power of a-1 is divisible by N."""


class PotentialOne(LcgspecError):
    """N divides a-1 itself; the lattice analysis needs potential >= 2."""


class PeriodViolation(LcgspecError):
    """Full-period output requested from parameters that do not reach period N."""


class PeriodBroken(LcgspecError):
    """A constructed modulus fails the max-period or potential round-trip checks."""


class LambdaInvalid(LcgspecError):
    """Requested cofactor is not a divisor of (a-1)^(tau+l) or falls outside [1, (a-1)^l]."""


class EmptyBox(LcgspecError):
    """No nonzero congruence solution inside the requested search box."""


class DimensionTooLarge(LcgspecError):
    """Lattice dimension exceeds the exhaustive-enumeration cap."""


class BudgetExceeded(LcgspecError):
    """A sequence dump would write more terms than the configured budget."""


class FactorizationError(LcgspecError):
    """Factoring failed within the effort budget."""


class Unsupported(LcgspecError):
    """Requested dimension falls outside the tabulated constants (2..8)."""
