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
from .lcg import LcgParams, check_max_period, default_digits, normalize

DEFAULT_BUDGET = 10**8

_ROW_FIELDS = ("alpha", "beta", "m", "m_over_N", "width", "delta")


def format_fraction(value: Fraction | int, digits: int = 12) -> str:
    """Decimal rendering, truncated at `digits` fractional digits, zeros trimmed."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    ip = int(value)
    rem = value - ip
    q = math.floor(rem * 10**digits)
    frac = str(q).rjust(digits, "0").rstrip("0")
    return f"{sign}{ip}.{frac}" if frac else f"{sign}{ip}"


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
    n,x,u or as '; '-separated decimal fractions, `per_line` per row."""
    if fmt not in ("csv", "table"):
        raise InvalidParams(f"unknown dump format {fmt!r}")
    if count is None:
        count = params.N
    if not 0 <= count <= params.N:
        raise InvalidParams(f"need 0 <= count <= N, got {count}")
    if count > budget:
        raise BudgetExceeded(f"count {count} exceeds budget {budget}")
    full = count == params.N
    if full:
        report = check_max_period(params)
        if not report.ok:
            raise PeriodViolation("; ".join(report.failures))
    d = default_digits(params.N) if digits is None else digits
    a, c, N, x = params.a, params.c, params.N, params.x0
    if fmt == "csv":
        out.write("n,x,u\n")
        for n in range(1, count + 1):
            x = (a * x + c) % N
            out.write(f"{n},{x},{normalize(x, N, d)}\n")
    else:
        line: list[str] = []
        for n in range(1, count + 1):
            x = (a * x + c) % N
            line.append(normalize(x, N, d))
            if len(line) == per_line:
                out.write("; ".join(line) + "\n")
                line.clear()
        if line:
            out.write("; ".join(line) + "\n")
