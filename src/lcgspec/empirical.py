"""Empirical uniformity checks on full-period orbits.

The frequency test counts orbit values with alpha <= X/N <= beta, comparing
exact rationals on a closed interval, and reports the deviation of the hit
rate from the interval width.  A full period visits every residue of Z_N
exactly once, so the count is a closed form and no orbit is walked.  Dumps
stream the orbit itself, so they are bounded by a budget on the count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import IO, NamedTuple

from .errors import BudgetExceeded, InvalidParams, PeriodViolation
from .exprparse import _digit_limit_exceeded
from .lcg import LcgParams, _fraction_digits, check_max_period, default_digits

DEFAULT_BUDGET = 10**8
# Terms per chunk of dump_sequence (a table chunk is rounded down to whole
# rows, and is one row when a row is longer).  Writes stay one per line or
# row: a caller's stream may buffer per write, not per byte.
_DUMP_CHUNK = 512


def _render_ratio(p: int, q: int, digits: int) -> str:
    """p/q (p >= 0 < q, not necessarily reduced) truncated at `digits`
    fractional digits: the integer part, then `lcg._fraction_digits` of the
    remainder after a point, when it left any."""
    ip, r = divmod(p, q)
    f = _fraction_digits([r], q, digits)[0]
    return f"{ip}.{f}" if f else str(ip)


def _describe_endpoint(value: Fraction, label: str) -> str:
    """The caller's label, else the value, by its bit lengths when a part
    has more digits than Python converts to str."""
    if label:
        return label
    n, d = value.numerator, value.denominator
    if _digit_limit_exceeded(n) or _digit_limit_exceeded(d):
        sign = "-" if n < 0 else ""
        return f"{sign}<{n.bit_length()}-bit numerator / {d.bit_length()}-bit denominator>"
    return str(value)


class FrequencyReport(NamedTuple):
    params: LcgParams
    alpha: Fraction
    beta: Fraction
    alpha_label: str
    beta_label: str
    m: int

    def _ratios(self) -> dict[str, tuple[int, int]]:
        """Every figure of `row`, in its field order, as an unreduced pair
        (p, q), p >= 0 < q: width over ad*bd, delta = |m/N - width| over N*ad*bd."""
        an, ad = self.alpha.numerator, self.alpha.denominator
        bn, bd = self.beta.numerator, self.beta.denominator
        m, N = self.m, self.params.N
        wn, den = bn * ad - an * bd, ad * bd
        return {"alpha": (an, ad), "beta": (bn, bd), "m": (m, 1), "m_over_N": (m, N),
                "width": (wn, den), "delta": (abs(m * den - wn * N), N * den)}

    @property
    def delta(self) -> Fraction:
        return Fraction(*self._ratios()["delta"])

    def row(self, digits: int = 12) -> dict[str, str]:
        """The figures as decimal strings, an endpoint's label in place of
        its value when one was given."""
        labels = {"alpha": self.alpha_label, "beta": self.beta_label}
        return {field: labels.get(field) or _render_ratio(p, q, digits)
                for field, (p, q) in self._ratios().items()}

    def to_json_dict(self) -> dict:
        return {**self.row(), "N": str(self.params.N)}


def frequency_test(
    params: LcgParams,
    alpha: Fraction | int,
    beta: Fraction | int,
    alpha_label: str = "",
    beta_label: str = "",
) -> FrequencyReport:
    """Count n in the full period with alpha <= X_n / N <= beta (closed
    interval, exact rational comparison) and report m and the deviation
    |m/N - (beta - alpha)|.

    The full period is a permutation of Z_N, so m is the number of integers
    x in [0, N) with ceil(alpha N) <= x <= floor(beta N).
    """
    alpha = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    beta = beta if isinstance(beta, Fraction) else Fraction(beta)
    an, ad = alpha.numerator, alpha.denominator
    bn, bd = beta.numerator, beta.denominator
    if not (an >= 0 and an * bd < bn * ad and bn <= bd):
        raise InvalidParams(f"need 0 <= alpha < beta <= 1, got "
                            f"{_describe_endpoint(alpha, alpha_label)}, "
                            f"{_describe_endpoint(beta, beta_label)}")
    report = check_max_period(params)
    if not report.ok:
        raise PeriodViolation("; ".join(report.failures))
    N = params.N
    # ceil(alpha N) <= x <= floor(beta N), x < N
    m = max(0, min(bn * N // bd, N - 1) + (-an * N // ad) + 1)
    return FrequencyReport(params, alpha, beta, alpha_label, beta_label, m)


def dump_sequence(
    params: LcgParams,
    out: IO[str],
    fmt: str = "csv",
    count: int | None = None,
    digits: int | None = None,
    per_line: int = 10,
    budget: int = DEFAULT_BUDGET,
) -> None:
    """Stream X_1..X_count (default: the full period) to `out` as CSV rows
    n,x,u or as '; '-separated decimal fractions, `per_line` per row.

    Every argument is checked before anything is written.  The first chunk
    of L terms (_DUMP_CHUNK, rounded down to whole table rows) is stepped one
    term at a time; every later chunk comes from the one before by the
    jump-ahead X_(n+L) = A*X_n + C mod N, with A = a^L mod N and
    C = X_L - A*X_0 mod N, an exact identity for any (a, c, N).  Each line or
    row is one write, and memory stays bounded by the chunk.
    """
    if fmt not in ("csv", "table"):
        raise InvalidParams(f"unknown dump format {fmt!r}")
    if digits is not None and digits < 1:
        raise InvalidParams("digits must be >= 1")
    if per_line < 1:
        raise InvalidParams(f"per_line must be >= 1, got {per_line}")
    if count is None:
        count = params.N
    if not 0 <= count <= params.N:
        raise InvalidParams(f"need 0 <= count <= N, got {count}")
    if count > budget:
        raise BudgetExceeded(f"count {count} exceeds budget {budget}")
    if count == params.N:
        report = check_max_period(params)
        if not report.ok:
            raise PeriodViolation("; ".join(report.failures))
    d = default_digits(params.N) if digits is None else digits
    a, c, N, x0 = params
    write = out.write
    csv = fmt == "csv"
    if csv:
        write("n,x,u\n")
    if count == 0:
        return
    L = min(count, _DUMP_CHUNK if csv else max(1, _DUMP_CHUNK // per_line) * per_line)
    xs, x = [], x0
    for _ in range(L):
        x = (a * x + c) % N
        xs.append(x)
    A = pow(a, L, N)
    C = (x - A * x0) % N
    first = 1  # index of xs[0]
    while True:
        fs = _fraction_digits(xs, N, d)
        if csv:
            lines = [f"{n},{xn},0.{f}\n" if f else f"{n},{xn},0\n"
                     for n, xn, f in zip(range(first, first + len(xs)), xs, fs)]
            for line in lines:
                write(line)
        else:
            for i in range(0, len(fs), per_line):
                row = fs[i:i + per_line]
                if "" in row:  # an x/N that truncates to 0
                    write("; ".join(f"0.{f}" if f else "0" for f in row) + "\n")
                else:
                    write("0." + "; 0.".join(row) + "\n")
        first += L
        if first > count:
            return
        xs = [(A * y + C) % N for y in xs[:count + 1 - first]]
