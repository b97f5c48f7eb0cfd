"""Empirical uniformity checks on full-period orbits.

The frequency test counts orbit values with alpha <= X/N <= beta, comparing
exact rationals on a closed interval, and reports the deviation of the hit
rate from the interval width.  A full period visits every residue of Z_N
exactly once, so the count is a closed form and no orbit is walked.  Dumps
stream the orbit itself, so they are bounded by a budget on the count; a
long dump shares its rendering with a second interpreter.
"""

from __future__ import annotations

import os
import sys
from io import TextIOBase

from . import _chunks
from .errors import BudgetExceeded, InvalidParams, Record, _max_str_digits, _too_many_digits, shown
from .lcg import LcgParams, _require_max_period, default_digits

DEFAULT_BUDGET = 10**8
# The most digits per value when Python sets no int-to-str limit: its default
_DIGITS_WITHOUT_LIMIT = 4300
# Dumps of at least this many terms share their rendering with a worker
# interpreter on a host with a second CPU.  Below it the worker's start-up
# and the pipe cost more than the chunks it renders.
_WORKER_MIN_TERMS = 2**19
# The most values in a table row.  A wider row is one chunk, held whole, at
# about 215 bytes a value with 12 digits, so a row stays under 1 MiB.
_MAX_PER_LINE = 4096


def _render_ratio(p: int, q: int, digits: int) -> str:
    """p/q (p >= 0 < q, not necessarily reduced) truncated at `digits`
    fractional digits: the integer part, then `_chunks._fraction_digits` of
    the remainder after a point, when it left any."""
    ip, r = divmod(p, q)
    f = _chunks._fraction_digits([r], q, digits)[0]
    return f"{ip}.{f}" if f else str(ip)


class FrequencyReport(Record):
    """The count `m` of full-period values of `params` (LcgParams) in the
    closed interval [alpha, beta] (Fractions), and the endpoints' labels as
    given ("" for none)."""

    __slots__ = ()

    def __new__(cls, params: LcgParams, alpha: Fraction, beta: Fraction, alpha_label: str,
                beta_label: str, m: int) -> FrequencyReport:
        return tuple.__new__(cls, (params, alpha, beta, alpha_label, beta_label, m))

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
        import fractions
        return fractions.Fraction(*self._ratios()["delta"])

    def row(self, digits: int = 12) -> dict[str, str]:
        """The figures as decimal strings, an endpoint's label in place of
        its value when one was given."""
        labels = {"alpha": self.alpha_label, "beta": self.beta_label}
        return {field: labels.get(field) or _render_ratio(p, q, digits)
                for field, (p, q) in self._ratios().items()}


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
    import fractions  # loaded by the first call, not by `import lcgspec`
    Fraction = fractions.Fraction
    alpha = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    beta = beta if isinstance(beta, Fraction) else Fraction(beta)
    an, ad = alpha.numerator, alpha.denominator
    bn, bd = beta.numerator, beta.denominator
    if not (an >= 0 and an * bd < bn * ad and bn <= bd):
        raise InvalidParams(f"need 0 <= alpha < beta <= 1, got "
                            f"{shown(alpha_label or alpha, verbatim=True)}, "
                            f"{shown(beta_label or beta, verbatim=True)}")
    _require_max_period(params)
    N = params.N
    # ceil(alpha N) <= x <= floor(beta N), x < N
    m = max(0, min(bn * N // bd, N - 1) + (-an * N // ad) + 1)
    return FrequencyReport(params, alpha, beta, alpha_label, beta_label, m)


def _digit_count(N: int, digits: int | None) -> int:
    """`digits`, or the default for N, refused when above Python's
    int-to-str limit (4300 when there is none): a value may have that many."""
    limit = _max_str_digits() or _DIGITS_WITHOUT_LIMIT
    if digits is not None:
        if digits > limit:
            raise InvalidParams(f"digits must be <= {limit}, got {shown(digits)}")
        return digits
    # every N above 10^limit has a default above it, and N <= 10^limit
    # exactly when its largest value N - 1 has at most limit digits
    if not _too_many_digits(N - 1, limit) and (d := default_digits(N)) <= limit:
        return d
    raise InvalidParams(f"the default digit count for this N exceeds {limit}; "
                        f"give digits <= {limit}")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_worker(params: LcgParams, count: int, digits: int, per_line: int, fmt: str):
    """`_chunks` run as a script in a bare interpreter, rendering the
    odd-numbered chunks of this dump; None when the dump is too short to
    share, only one CPU is usable, or the worker cannot start (no
    interpreter path, or an OSError)."""
    if count < _WORKER_MIN_TERMS or _usable_cpus() < 2 or not sys.executable:
        return None
    import subprocess  # here: `import lcgspec.cli` loads no process machinery

    args = _chunks.script_args(*params, count, digits, per_line, fmt)
    try:
        return subprocess.Popen([sys.executable, "-I", "-S", *args], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None


def dump_sequence(
    params: LcgParams,
    out: TextIOBase,
    fmt: str = "csv",
    count: int | None = None,
    digits: int | None = None,
    per_line: int = 10,
    budget: int = DEFAULT_BUDGET,
) -> None:
    """Stream X_1..X_count (default: the full period) to `out` as CSV rows
    n,x,u or as '; '-separated decimal fractions, `per_line` per row.

    Every argument is checked before anything is written, `digits` (given or
    the default) against Python's int-to-str limit too.  The terms come in
    chunks (`_chunks`: the first stepped term by term, every later one by
    jump-ahead).  A dump of at least _WORKER_MIN_TERMS terms on a host with a
    second usable CPU starts a worker interpreter that renders the
    odd-numbered chunks; this process renders the even-numbered ones, and
    any the worker did not deliver, so the output never depends on it.  The
    worker is reaped before this returns or raises.  Each line or row is one
    write, in order (a caller's stream may buffer per write, not per byte),
    and memory stays bounded by a chunk.
    """
    if fmt not in ("csv", "table"):
        raise InvalidParams(f"unknown dump format {shown(fmt)}")
    if digits is not None and digits < 1:
        raise InvalidParams("digits must be >= 1")
    if per_line < 1:
        raise InvalidParams(f"per_line must be >= 1, got {shown(per_line)}")
    if per_line > _MAX_PER_LINE:
        raise InvalidParams(f"per_line must be <= {_MAX_PER_LINE}, got {shown(per_line)}")
    d = _digit_count(params.N, digits)
    if count is None:
        count = params.N
    if not 0 <= count <= params.N:
        raise InvalidParams(f"need 0 <= count <= N, got {shown(count)}")
    if count > budget:
        raise BudgetExceeded(f"count {shown(count)} exceeds budget {shown(budget)}")
    if count == params.N:
        _require_max_period(params)
    a, c, N, x0 = params
    write = out.write
    csv = fmt == "csv"
    worker = _start_worker(params, count, d, per_line, fmt)
    try:
        if csv:
            write("n,x,u\n")
        pipe = worker and worker.stdout
        L = _chunks.chunk_terms(count, csv, per_line)
        xs, A, C = _chunks.first_chunk(a, c, N, x0, L)
        for first, xs in _chunks.every_other_chunk(xs, 1, count, L, A, C, N):
            for line in _chunks.render(first, xs, N, d, per_line, csv):
                write(line)
            odd = first + L  # the first term of the next, odd-numbered chunk
            if odd > count:
                break
            lines = pipe and _chunks.receive(pipe)
            if not lines:  # no worker, or it ended early: render that chunk here
                pipe = None
                ys = _chunks.jump(xs, A, C, N)[:count + 1 - odd]
                lines = _chunks.render(odd, ys, N, d, per_line, csv)
            for line in lines:
                write(line)
    finally:
        if worker is not None:
            worker.stdout.close()  # a worker still writing fails, and ends
            worker.wait()
