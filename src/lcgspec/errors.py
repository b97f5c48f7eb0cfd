"""Exception taxonomy of all modules, how a refusal quotes a value, and the digit rule.

Every message that quotes a value it refuses renders that value with
`shown`, so an `error:` line stays readable, and printable, whatever the
value's size: a number with more than _QUOTED_CHARS digits (or more than
Python converts to str) appears as its bit length, and text longer than
_QUOTED_CHARS characters as a prefix of that many and its length.  Every
module asks `_too_many_digits` and `_too_many_bits` whether a number prints.

`Record` is the tuple base of every result record: it is here because every
module that defines one already imports this one.
"""

import sys
from _collections import _tuplegetter

# The most characters of text, and decimal digits of a number, that a
# refusal quotes.  A longer flag (up to the 128 KiB an argument may hold) is
# quoted by a prefix of this many and its length, a longer number by its bit
# length.
_QUOTED_CHARS = 2000
# Python's limit on digits converted between int and str (0: none; absent before 3.10.7)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _too_many_digits(n: int, limit: int | None = None) -> int:
    """`limit` (by default Python's int-to-str limit, 0 for none) when n has
    more digits than it, else 0; |n| < 2^(3 * limit) < 10^limit forms no power of ten."""
    limit = _max_str_digits() if limit is None else limit
    return limit if limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit else 0


def _too_many_bits(bits: int) -> int:
    """Python's int-to-str limit when every integer of at least 2^bits has
    more digits than it, since 2^(10 * limit / 3) > 10^limit; else 0."""
    limit = _max_str_digits()
    return limit if limit and bits > 10 * limit // 3 else 0


def shown(value, verbatim: bool = False) -> str:
    """`value` as a refusal message quotes it.

    - An int: its decimal form when it has at most _QUOTED_CHARS digits and
      Python converts it, else `<B-bit integer>`, any sign outside.
    - A Fraction: str(value) when both parts qualify so, else
      `<B-bit numerator / B-bit denominator>`, any sign outside.
    - A str: its repr when it has at most _QUOTED_CHARS characters, else
      the repr of its first _QUOTED_CHARS followed by `... (L characters)`.
      With `verbatim` a short one is itself, unquoted: a label or file name
      that a message shows bare.
    - Anything else: its repr, as verbatim text (`<type name>` when the
      repr would hold an int longer than Python converts).
    """
    quoted = min(_QUOTED_CHARS, _max_str_digits() or _QUOTED_CHARS)  # digits of an int
    # a value is a Fraction only once `fractions` is loaded, which the package
    # leaves to the first rational it makes
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        n, d = value.numerator, value.denominator
        if _too_many_digits(n, quoted) or _too_many_digits(d, quoted):
            sign = "-" if n < 0 else ""
            return f"{sign}<{n.bit_length()}-bit numerator / {d.bit_length()}-bit denominator>"
        return str(value)
    if isinstance(value, int):
        if _too_many_digits(value, quoted):
            sign = "-" if value < 0 else ""
            return f"{sign}<{value.bit_length()}-bit integer>"
        return str(value)
    if not isinstance(value, str):
        try:
            value, verbatim = repr(value), True
        except ValueError:  # it holds an int longer than Python converts
            return f"<{type(value).__name__}>"
    if len(value) <= _QUOTED_CHARS:
        return value if verbatim else repr(value)
    return f"{value[:_QUOTED_CHARS]!r}... ({len(value)} characters)"


class Record(tuple):
    """An immutable record: a tuple whose fields are the parameters of its
    class's own `__new__`, which returns `tuple.__new__(cls, (...))` of
    them, with their defaults.  The class is read once, when it is defined,
    so nothing is built from source, and it keeps the surface of a
    `collections.namedtuple` subclass that callers use: `_fields`, a
    read-only attribute per field (the same C accessor), the `Name(f=v, ...)`
    repr, pickling and copying, `_make` and `_replace`, both through
    `__new__` so a checked record stays checked.  A subclass declares
    `__slots__ = ()`, so it has no `__dict__`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        result = self._make([changes.pop(name, value) for name, value in zip(self._fields, self)])
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result


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
    """A sequence dump or a box scan would take more than its budget."""


class FactorizationError(LcgspecError):
    """Factoring failed within the effort budget."""
