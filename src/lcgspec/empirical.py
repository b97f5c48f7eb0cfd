"""Empirical uniformity checks on full-period orbits.

The frequency test counts orbit values with alpha <= X/N <= beta, comparing
exact rationals on a closed interval, and reports the deviation of the hit
rate from the interval width.  A full period visits every residue of Z_N
exactly once, so the count is a closed form and no orbit is walked.  Dumps
stream the orbit itself, so they are bounded by a budget on the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

from .errors import BudgetExceeded, InvalidParams, PeriodViolation
from .lcg import LcgParams, _render_fractions, check_max_period, default_digits

DEFAULT_BUDGET = 10**8
# Terms stepped and rendered per batch by dump_sequence.  Writes stay one
# per line or row: a caller's stream may buffer per write, not per byte.
_DUMP_CHUNK = 512

_ROW_FIELDS = ("alpha", "beta", "m", "m_over_N", "width", "delta")


def format_fraction(value: Fraction | int, digits: int = 12) -> str:
    """Decimal rendering, truncated at `digits` fractional digits, zeros trimmed.

    The sign, then the integer part, then the proper fraction p/q rendered by
    `lcg._render_fractions` ("0" or "0.ddd", of which the "0" is dropped).
    """
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    ip, p = divmod(abs(value.numerator), value.denominator)
    return f"{sign}{ip}{_render_fractions([p], value.denominator, digits)[0][1:]}"


@dataclass(frozen=True)
class FrequencyReport:
    params: LcgParams
    alpha: Fraction
    beta: Fraction
    alpha_label: str
    beta_label: str
    m: int
    N: int

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.m, self.N)

    @property
    def width(self) -> Fraction:
        return self.beta - self.alpha

    @property
    def delta(self) -> Fraction:
        return abs(self.frequency - self.width)

    def row(self, digits: int = 12) -> dict[str, str]:
        return {
            "alpha": self.alpha_label or format_fraction(self.alpha, digits),
            "beta": self.beta_label or format_fraction(self.beta, digits),
            "m": str(self.m),
            "m_over_N": format_fraction(self.frequency, digits),
            "width": format_fraction(self.width, digits),
            "delta": format_fraction(self.delta, digits),
        }

    def to_json_dict(self) -> dict:
        r = self.row()
        return {
            "alpha": r["alpha"],
            "beta": r["beta"],
            "m": str(self.m),
            "N": str(self.N),
            "m_over_N": r["m_over_N"],
            "width": r["width"],
            "delta": r["delta"],
        }


def csv_header() -> str:
    return ",".join(_ROW_FIELDS)


def csv_row(report: FrequencyReport, digits: int = 12) -> str:
    row = report.row(digits)
    return ",".join(row[f] for f in _ROW_FIELDS)


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
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if not 0 <= alpha < beta <= 1:
        raise InvalidParams(
            f"need 0 <= alpha < beta <= 1, got {float(alpha):g}, {float(beta):g}"
        )
    report = check_max_period(params)
    if not report.ok:
        raise PeriodViolation("; ".join(report.failures))
    N = params.N
    m = max(0, min(math.floor(beta * N), N - 1) - math.ceil(alpha * N) + 1)
    return FrequencyReport(
        params=params,
        alpha=alpha,
        beta=beta,
        alpha_label=alpha_label,
        beta_label=beta_label,
        m=m,
        N=N,
    )


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

    Every argument is checked before anything is written.  Terms are stepped
    and rendered _DUMP_CHUNK at a time, with one write per CSV line or table
    row, so memory stays bounded by the chunk (and one row).
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
    a, c, N, x = params.a, params.c, params.N, params.x0
    if fmt == "csv":
        out.write("n,x,u\n")
    row: list[str] = []  # table values not yet written
    for first in range(1, count + 1, _DUMP_CHUNK):
        xs = []
        for _ in range(min(_DUMP_CHUNK, count + 1 - first)):
            x = (a * x + c) % N
            xs.append(x)
        us = _render_fractions(xs, N, d)
        if fmt == "csv":
            for n, xn, u in zip(range(first, first + len(xs)), xs, us):
                out.write(f"{n},{xn},{u}\n")
        else:
            row += us
            whole = len(row) - len(row) % per_line
            for i in range(0, whole, per_line):
                out.write("; ".join(row[i:i + per_line]) + "\n")
            del row[:whole]
    if row:
        out.write("; ".join(row) + "\n")
