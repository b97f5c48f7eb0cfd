"""Command-line front end: analyze, build, uniformity, dump, svp, verify-paper.

Each command's flags are declared once, in the table `_COMMANDS`.  A
well-formed request (a command, then exact flag names, each with its value)
is read straight from that table; argparse, built from the same table, is
imported only for the rest: help, `--flag=value`, abbreviations, a flag
given twice (but `--interval`) and every usage error.  Either way that read
only decides which flags were given: every integer in argv, the parts of
`--s LO..HI`, `--primes P:R,...` and `--only I,...` included, is read by
`exprparse.parse_int_expr`, so a malformed one exits 2 and an over-budget one 4.

Exit codes: 0 success, 1 failed verification scorecard, 2 usage or
validation errors, 3 domain errors, 4 budget errors, 5 the output could not
be written.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii as _quote
from io import TextIOBase

from . import _chunks
from .builder import MultiplierRecipe, build_range, validate
from .empirical import DEFAULT_BUDGET, dump_sequence, frequency_test
from .errors import (
    BudgetExceeded,
    DimensionTooLarge,
    EmptyBox,
    ExpressionError,
    InvalidParams,
    LambdaInvalid,
    NoPotential,
    PeriodBroken,
    PeriodViolation,
    PotentialOne,
    TooSmall,
    shown,
)
from .exprparse import parse_endpoint, parse_int_expr
from .lattice import (
    DEFAULT_ENUM_CAP,
    _check_cap,
    _check_dual_params,
    brute_force_shortest,
    dual_basis,
    shortest_vector,
)
from .lcg import LcgParams, _require_max_period
from .spectral import _exp, _log, _packing_cap_text, check_bounds, merit, spectral_profile

EXIT_OK = 0
EXIT_SCORECARD = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_OUTPUT = 5

# the exit code of each error kind that `main` reports in one `error:` line
_EXIT_CODES = {
    **dict.fromkeys((InvalidParams, ExpressionError, TooSmall), EXIT_USAGE),
    **dict.fromkeys((NoPotential, PotentialOne, PeriodViolation, PeriodBroken, LambdaInvalid,
                     EmptyBox), EXIT_DOMAIN),
    **dict.fromkeys((BudgetExceeded, DimensionTooLarge), EXIT_BUDGET),
}

_REGIME_LABEL = {
    "S_EQ_TAU_2": "s = tau = 2",
    "S_EQ_TAU_GE3": "s = tau >= 3",
    "S_LT_TAU": "s < tau",
    "S_GT_TAU": "s > tau",
}


# json's spelling of the floats that float.__repr__ writes as words
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, indent: str) -> str:
    """`obj` as JSON, each line of a nested container opening with `indent`
    (a newline and the container's own indentation)."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        # _quote refuses a key that is not a str, sorted a mix of key types
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)]
        ) + indent + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in obj]
        ) + indent + "]"
    if t is float:
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    raise TypeError(f"{t.__name__} is not a JSON output type")


def _json_out(obj, out: TextIOBase) -> None:
    """Write `obj` and a newline: the same bytes as `json.dumps(obj, indent=2,
    sort_keys=True)`, so repeated runs are byte-identical.  Before Python
    3.13, `json` uses its C encoder only without `indent`, so that call runs
    a pure-Python generator chain; this writer joins each container once,
    quoting strings with the C function `json.encoder` itself uses
    (`_json.encode_basestring_ascii`), so no command loads `json`.  Values
    are dicts with str keys, lists, tuples, str, int, float, bool and None,
    each of exactly that type; any other raises TypeError."""
    out.write(_json_text(obj, "\n") + "\n")


def _parse_s_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    lo_i = parse_int_expr(lo)
    hi_i = parse_int_expr(hi) if sep else lo_i
    if lo_i < 2 or hi_i < lo_i:
        raise InvalidParams(f"need 2 <= LO <= HI, got {shown(text)}")
    return range(lo_i, hi_i + 1)


def _read_ints(args, *names: str) -> None:
    """Read each named flag that was given by parse_int_expr, in turn."""
    for name in names:
        if isinstance(text := getattr(args, name), str):
            setattr(args, name, parse_int_expr(text))


def _generator_params(args) -> LcgParams:
    """`--a --c --N --x0`, parsed in that order."""
    return LcgParams(*map(parse_int_expr, (args.a, args.c, args.N, args.x0)))


def _open_named(path: str, mode: str = "r") -> TextIOBase:
    """The named file, opened as UTF-8 text: read past a leading byte-order
    mark, as Windows editors write one, and written without one.  Failing
    to open it is a usage error (exit 2); an OSError after that exits 5."""
    try:
        return open(path, mode, encoding="utf-8-sig" if mode == "r" else "utf-8")
    except OSError as exc:
        raise InvalidParams(f"[Errno {exc.errno}] {exc.strerror}: {shown(path)}") from None


def _write_table(columns, records, fmt: str, out: TextIOBase) -> None:
    """One row per record: csv lines, or for "text" an aligned table of the
    columns that have a text name.  A column is (csv name, text name or None,
    cell), and cell(record, fmt) is the cell's text."""
    if fmt == "csv":
        out.write(",".join(name for name, _, _ in columns) + "\n")
        for rec in records:
            out.write(",".join(cell(rec, fmt) for _, _, cell in columns) + "\n")
        return
    shown = [(text, cell) for _, text, cell in columns if text is not None]
    _render_table([text for text, _ in shown],
                  [[cell(rec, fmt) for _, cell in shown] for rec in records], out)


def _render_table(header: list[str], rows: list[list[str]], out: TextIOBase) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    for line in [header] + rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n")


# -- analyze -----------------------------------------------------------------


def _decimals(field: str) -> Callable[[object, str], str]:
    """The cell of a float field: 6 decimals in csv, 4 in text."""
    return lambda r, fmt: format(getattr(r, field), ".6f" if fmt == "csv" else ".4f")


def _dash(value) -> str:
    return "-" if value is None else str(value)


def _checks_cell(r, fmt: str) -> str:
    """`lower`, `upper` or `B` per `check_bounds` check, " VIOLATED" appended
    when the check fails; joined by ";" in csv and by spaces in text, "-"
    when there is none."""
    marks = [("B" if chk.kind == "packing" else chk.kind) + ("" if chk.passed else " VIOLATED")
             for chk in check_bounds(r.s, r.N, r.v_sq, r.bounds)]
    return (";" if fmt == "csv" else " ").join(marks) or "-"


_ANALYZE_COLUMNS = (
    ("s", "s", lambda r, fmt: str(r.s)),
    ("v_sq", "v^2", lambda r, fmt: str(r.v_sq)),
    ("lg_v", "lg v", _decimals("lg_v")),
    ("mu", "mu", _decimals("mu")),
    ("regime", "regime", lambda r, fmt: "-" if r.regime is None else (
        r.regime if fmt == "csv" else _REGIME_LABEL[r.regime])),
    ("tau", None, lambda r, fmt: _dash(r.profile and r.profile.tau)),
    ("lambda", None, lambda r, fmt: _dash(r.profile and r.profile.lam)),
    ("theorem", "thm", lambda r, fmt: _dash(r.bounds and r.bounds.theorem_id)),
    ("lower_sq", "lower^2", lambda r, fmt: _dash(r.bounds and r.bounds.lower_sq)),
    ("upper_sq", "upper^2", lambda r, fmt: _dash(r.bounds and r.bounds.upper_sq)),
    ("knuth_bound", "B-bound", lambda r, fmt: _dash(_packing_cap_text(r.s, r.N))),
    ("checks", "checks", _checks_cell),
)


def _bounds_json(tb: TheoremBounds, N: int) -> dict:
    """The bounds of a generator with modulus N, with their display roots
    and the mu_s window they induce."""
    lo, hi = tb.lower_sq, tb.upper_sq
    return {
        "theorem": tb.theorem_id,
        "s": tb.s,
        "lower": None if lo is None else _exp(0.5 * _log(lo)),
        "upper": None if hi is None else _exp(0.5 * _log(hi)),
        "lower_exact_sq": None if lo is None else str(lo),
        "upper_exact_sq": None if hi is None else str(hi),
        "mu_lower": None if lo is None else merit(tb.s, lo, N),
        "mu_upper": None if hi is None else merit(tb.s, hi, N),
        "conditions_met": list(tb.conditions_met),
        "violations": list(tb.violations),
    }


def _result_json(r: SpectralResult) -> dict:
    """The figures that vary with s; a, N and the profile are stated once."""
    return {
        "s": r.s,
        "v_sq": str(r.v_sq),
        "lg_v": r.lg_v,
        "vector": [str(x) for x in r.vector],
        "mu": r.mu,
        "regime": r.regime,
        "bounds": None if r.bounds is None else _bounds_json(r.bounds, r.N),
    }


def cmd_analyze(args, out: TextIOBase) -> int:
    _read_ints(args, "enum_cap")
    params = _generator_params(args)
    a, N = params.a, params.N
    dims = _parse_s_range(args.s)
    if args.require_max_period:
        _require_max_period(params)
    results = spectral_profile(a, N, dims, cap=args.enum_cap)
    pr = results[0].profile

    if args.format == "json":
        _json_out({"a": str(a), "N": str(N),
                   "tau": None if pr is None else pr.tau,
                   "lambda": None if pr is None else str(pr.lam),
                   "results": [_result_json(r) for r in results]}, out)
        return EXIT_OK

    if args.format == "csv":
        _write_table(_ANALYZE_COLUMNS, results, "csv", out)
        return EXIT_OK
    out.write(f"a = {a}, N = {N}\n")
    if pr is not None:
        out.write(f"tau = {pr.tau}, lambda = {pr.lam}\n")
    else:
        out.write("tau undefined (no potential); theorem bounds omitted\n")
    _write_table(_ANALYZE_COLUMNS, results, "text", out)
    out.writelines(f"(s={r.s}: " + "; ".join(r.bounds.violations) + ")\n"
                   for r in results if r.bounds is not None and r.bounds.violations)
    return EXIT_OK


# -- build -------------------------------------------------------------------


def _parse_primes(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    primes: list[int] = []
    exps: list[int] = []
    for chunk in text.split(","):
        p, sep, r = chunk.partition(":")
        primes.append(parse_int_expr(p))
        exps.append(parse_int_expr(r) if sep else 1)
    return tuple(primes), tuple(exps)


def _statement(tb: TheoremBounds) -> str:
    """The bounds as one line, e.g. `v_3^2 >= 5; v_3^2 <= 9 (theorem 2)`."""
    v, lo, hi = f"v_{tb.s}^2", tb.lower_sq, tb.upper_sq
    if lo is not None and lo == hi:
        return f"{v} = {lo} (theorem {tb.theorem_id})"
    parts = [] if lo is None else [f"{v} >= {lo}"]
    if hi is not None:
        parts.append(f"{v} <= {hi}")
    return "; ".join(parts) + f" (theorem {tb.theorem_id})"


def _validation_json(report: ValidationReport) -> dict:
    """Each validated dimension's figures and checks, by name and outcome."""
    return {
        "ok": report.ok,
        "rows": [{"s": row.result.s, "v_sq": str(row.result.v_sq), "mu": row.result.mu,
                  "checks": [{"name": c.name, "passed": c.passed} for c in row.checks]}
                 for row in report.rows],
    }


def _build_json(gen: BuiltGenerator, report: ValidationReport | None) -> dict:
    """The build, its certificate, one entry per covered dimension, and the
    report of `--validate` when it ran."""
    p, uniform = gen.params, gen.uniform_lower_sq
    return {
        "a": str(p.a), "c": str(p.c), "N": str(p.N), "x0": str(p.x0),
        "tau": gen.profile.tau, "lambda": str(gen.profile.lam),
        "covers": {"s_min": 2, "s_max": gen.covers_s_max},
        "uniform_lower_sq": None if uniform is None else str(uniform),
        # always false, like each entry's lower_unverified; both stay because
        # JSON readers (bench/lcgbench/checks.py) look them up
        "uniform_lower_unverified": False,
        "certificate": [{**_bounds_json(tb, p.N), "statement": _statement(tb),
                         "lower_unverified": False} for tb in gen.guaranteed],
        **({} if report is None else {"validation": _validation_json(report)}),
    }


def cmd_build(args, out: TextIOBase) -> int:
    if args.enum_cap is not None and args.validate is None:
        raise InvalidParams("--enum-cap needs --validate")
    if args.a is None and args.primes is None:
        raise InvalidParams("a multiplier is required: --a or --primes [--d]")
    _read_ints(args, "tau", "l", "lambda", "a", "d", "min_accuracy", "validate", "enum_cap")
    cap = DEFAULT_ENUM_CAP if args.enum_cap is None else args.enum_cap
    primes, exps = ((), ()) if args.primes is None else _parse_primes(args.primes)
    recipe = MultiplierRecipe(args.a, args.d, primes, exps)
    gen = build_range(args.tau, args.l, getattr(args, "lambda"), recipe, args.min_accuracy)
    report = None if args.validate is None else validate(gen, args.validate, cap=cap)

    if args.format == "json":
        _json_out(_build_json(gen, report), out)
        return EXIT_OK

    p = gen.params
    out.write(f"X_(n+1) = ({p.a} * X_n + {p.c}) mod {p.N}\n")
    out.write(f"tau = {gen.profile.tau}, lambda = {gen.profile.lam}, "
              f"guaranteed dimensions 2..{gen.covers_s_max}\n")
    if (uniform := gen.uniform_lower_sq) is not None:
        out.write(f"uniform lower bound: v_s^2 >= {uniform} for 2 <= s <= {gen.covers_s_max}\n")
    for tb in gen.guaranteed:
        out.write("  " + _statement(tb) + "\n")
    if report is not None:
        out.write(f"validation up to s = {args.validate}: "
                  f"{'ok' if report.ok else 'FAILED'}\n")
        for row in report.rows:
            r = row.result
            out.write(f"  s={r.s} v^2={r.v_sq} mu={r.mu:.4f}\n")
            for chk in row.checks:
                out.write(f"    {chk.name}: {'ok' if chk.passed else 'FAILED'}\n")
        if not report.ok:
            return EXIT_SCORECARD
    return EXIT_OK


# -- uniformity --------------------------------------------------------------


def _parse_interval(text: str) -> tuple[Fraction, Fraction, str, str]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InvalidParams(f"bad interval {shown(text)}; use ALPHA:BETA")
    return parse_endpoint(lo), parse_endpoint(hi), lo.strip(), hi.strip()


# the digits after the point of every figure of a uniformity row
_ROW_DIGITS = 12


def _render_ratio(p: int, q: int, digits: int) -> str:
    """p/q (p >= 0 < q, not necessarily reduced) truncated at `digits`
    fractional digits: the integer part, then `_chunks._fraction_digits` of
    the remainder after a point, when it left any."""
    ip, r = divmod(p, q)
    f = _chunks._fraction_digits([r], q, digits)[0]
    return f"{ip}.{f}" if f else str(ip)


def _uniformity_row(report: FrequencyReport) -> dict[str, str]:
    """The report's figures as decimal strings, an endpoint's label in place
    of its value when one was given."""
    labels = {"alpha": report.alpha_label, "beta": report.beta_label}
    return {field: labels.get(field) or _render_ratio(p, q, _ROW_DIGITS)
            for field, (p, q) in report._ratios().items()}


# the fields of `_uniformity_row`, each cell read from that row
_UNIFORMITY_COLUMNS = tuple(
    (field, text, lambda row, fmt, field=field: row[field])
    for field, text in [("alpha", "alpha"), ("beta", "beta"), ("m", "m"),
                        ("m_over_N", "m/N"), ("width", "beta-alpha"), ("delta", "delta")]
)


def cmd_uniformity(args, out: TextIOBase) -> int:
    specs = list(args.interval or [])
    if args.intervals_file is not None:
        with _open_named(args.intervals_file) as fh:
            try:
                specs += [line for line in map(str.strip, fh)
                          if line and not line.startswith("#")]
            except UnicodeDecodeError as exc:
                raise InvalidParams(f"{shown(args.intervals_file, verbatim=True)}: "
                                    f"not UTF-8 text ({exc})") from None
    if not specs:
        raise InvalidParams("no intervals given; use --interval or --intervals-file")
    params = _generator_params(args)
    reports = []
    for spec in specs:
        alpha, beta, lo_label, hi_label = _parse_interval(spec)
        reports.append(frequency_test(params, alpha, beta, lo_label, hi_label))

    if args.format == "json":
        _json_out({"a": str(params.a), "N": str(params.N),
                   "rows": [_uniformity_row(r) for r in reports]}, out)
    else:
        _write_table(_UNIFORMITY_COLUMNS, [_uniformity_row(r) for r in reports], args.format, out)
    return EXIT_OK


# -- dump --------------------------------------------------------------------


class _OpenOnWrite:
    """A text file opened (so created or truncated) by its first write, or on
    a clean exit when nothing was written.  `dump_sequence` checks every
    argument before it writes, so a refused dump leaves the file as it was."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._fh: TextIOBase | None = None

    def write(self, text: str) -> int:
        if self._fh is None:
            self._fh = _open_named(self._path, "w")
        return self._fh.write(text)

    def __enter__(self) -> _OpenOnWrite:
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.write("")
        if self._fh is not None:
            self._fh.close()


def cmd_dump(args, out: TextIOBase) -> int:
    _read_ints(args, "per_line")
    # a --per-line below 1 is left to dump_sequence, which refuses it in any format
    if args.per_line is not None and args.per_line >= 1 and args.format == "csv":
        raise InvalidParams("--per-line needs --format table")
    _read_ints(args, "count", "digits", "budget")
    params = _generator_params(args)
    options = {"fmt": args.format, "count": args.count, "digits": args.digits,
               "per_line": 10 if args.per_line is None else args.per_line, "budget": args.budget}
    if args.output is None:
        dump_sequence(params, out, **options)
    else:
        with _OpenOnWrite(args.output) as sink:
            dump_sequence(params, sink, **options)
    return EXIT_OK


# -- svp ---------------------------------------------------------------------


def cmd_svp(args, out: TextIOBase) -> int:
    _read_ints(args, "s", "enum_cap")
    cap = args.enum_cap
    a, N, s = parse_int_expr(args.a), parse_int_expr(args.N), args.s
    if args.brute_box is not None:
        result = brute_force_shortest(a, N, s, box=parse_int_expr(args.brute_box), cap=cap)
        method = "brute-force"
    else:
        _check_dual_params(a, N, s)  # parameter errors, then the cap, then the basis
        _check_cap(s, cap)
        result = shortest_vector(dual_basis(a, N, s), cap=cap)
        method = "enumeration"

    if args.format == "json":
        _json_out({"norm_sq": str(result.norm_sq), "vector": [str(x) for x in result.vector],
                   "certified": result.certified, "method": method}, out)
    else:
        out.write(f"norm^2 = {result.norm_sq}\n")
        out.write("vector = (" + ", ".join(str(x) for x in result.vector) + ")\n")
        out.write(f"certified = {'yes' if result.certified else 'no'} ({method})\n")
    return EXIT_OK


# -- verify-paper ------------------------------------------------------------


def cmd_verify_paper(args, out: TextIOBase) -> int:
    from . import scorecard

    only = None if args.only is None else set(map(parse_int_expr, args.only.split(",")))
    results = scorecard.run_all(only=only)
    if not results:
        raise InvalidParams(f"--only {shown(args.only, verbatim=True)} matched no criteria")
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        out.write(f"[{tag}] {res.cid:>2}. {res.title} ({res.elapsed:.2f} s)\n")
        if res.detail:
            out.write(f"       {res.detail}\n")
    passed = sum(1 for r in results if r.passed)
    out.write(f"{passed}/{len(results)} checks passed\n")
    return EXIT_OK if passed == len(results) else EXIT_SCORECARD


# -- flags -------------------------------------------------------------------


class _Flag:
    """One flag of a command: its names, the namespace attribute it sets
    (`dest`, argparse's by default: the first long name, dashes read as
    underscores), default, metavar and help; whether it is required; its
    choices; its kind, an argparse action (`store` takes a value, `append`
    collects every one given, `store_true` takes none); and whether it is in
    its command's required group, of which exactly one flag is given."""

    __slots__ = ("names", "dest", "default", "metavar", "help", "required", "choices", "kind",
                 "exclusive")

    def __init__(self, *names: str, dest: str | None = None, default=None,
                 metavar: str | None = None, help: str | None = None, required: bool = False,
                 choices: tuple[str, ...] | None = None, kind: str = "store",
                 exclusive: bool = False) -> None:
        self.names = names
        self.dest = dest or next(n for n in names if n.startswith("--"))[2:].replace("-", "_")
        self.default, self.metavar, self.help = default, metavar, help
        self.required, self.choices, self.kind, self.exclusive = required, choices, kind, exclusive


_GENERATOR_FLAGS = (
    _Flag("--a", required=True, help="multiplier (integer expression, e.g. 69069)"),
    _Flag("--N", required=True, help="modulus (integer expression, e.g. 2^32)"),
    _Flag("--c", default="1", help="increment (default 1)"),
    _Flag("--x0", default="0", help="seed (default 0)"),
)
_ENUM_CAP = _Flag("--enum-cap", default=DEFAULT_ENUM_CAP,
                  help=f"max enumeration dimension (default {DEFAULT_ENUM_CAP})")

# each command by name: its handler, its help and its flags, in the order
# its usage line lists them
_COMMANDS = {
    "analyze": (cmd_analyze, "spectral figures v_s^2, merit and bounds per dimension", (
        *_GENERATOR_FLAGS,
        _Flag("--s", default="2", help="dimension or range, e.g. 3 or 2..6"),
        _Flag("--require-max-period", kind="store_true", default=False,
              help="fail (exit 3) unless the generator has maximum period"),
        _ENUM_CAP,
        _Flag("--format", choices=("text", "json", "csv"), default="text"),
    )),
    "build": (cmd_build, "construct a generator with certified v_s bounds", (
        _Flag("--s", dest="tau", metavar="S", exclusive=True, help="another spelling of --tau"),
        _Flag("--tau", exclusive=True, help="guarantee dimensions 2..tau"),
        _Flag("--l", default=0, help="extra exponent of N (default 0)"),
        _Flag("--lambda", default=1, help="period cofactor (default 1)"),
        _Flag("--a", help="explicit multiplier (integer expression)"),
        _Flag("--d", default=1, help="cofactor d of a shaped multiplier"),
        _Flag("--primes", help="prime kernel of a shaped multiplier, e.g. 2:7 or 2:2,17267"),
        _Flag("--min-accuracy", help="require a - b_s to exceed this integer expression"),
        _Flag("--validate", metavar="SMAX",
              help="run the solver for s = 2..SMAX against the certificate"),
        _Flag("--enum-cap", help="max enumeration dimension of --validate, which it needs "
                                 f"(default {DEFAULT_ENUM_CAP})"),
        _Flag("--format", choices=("text", "json"), default="text"),
    )),
    "uniformity": (cmd_uniformity, "exact frequency tests over [alpha, beta] segments", (
        *_GENERATOR_FLAGS,
        _Flag("--interval", kind="append", metavar="ALPHA:BETA",
              help="endpoint expressions, e.g. 0.2:0.9 or 1/pi^2:1-1/e (repeatable)"),
        _Flag("--intervals-file", help="file with one ALPHA:BETA per line, # comments allowed"),
        _Flag("--format", choices=("text", "csv", "json"), default="text"),
    )),
    "dump": (cmd_dump, "stream the generated sequence as CSV or a decimal table", (
        *_GENERATOR_FLAGS,
        _Flag("--count", help="how many terms (default: full period)"),
        _Flag("--digits", help="decimal digits for x/N (default: exact if terminating)"),
        _Flag("--per-line", help="values per row of --format table (default 10)"),
        _Flag("--budget", default=DEFAULT_BUDGET,
              help=f"refuse counts above this (default {DEFAULT_BUDGET})"),
        _Flag("-o", "--output", help="write to a file instead of stdout"),
        _Flag("--format", choices=("csv", "table"), default="csv"),
    )),
    "svp": (cmd_svp, "exact shortest nonzero vector of the dual lattice of (a, N)", (
        _Flag("--a", required=True, help="multiplier for the dual spectral lattice"),
        _Flag("--N", required=True, help="modulus for the dual spectral lattice"),
        _Flag("--s", required=True, help="dimension for the dual spectral lattice"),
        _Flag("--brute-box", metavar="B",
              help="use the coordinate-box oracle with |m_i| <= B instead of enumeration"),
        _ENUM_CAP,
        _Flag("--format", choices=("text", "json"), default="json"),
    )),
    "verify-paper": (cmd_verify_paper, "run the acceptance scorecard", (
        _Flag("--only", help="comma-separated criterion numbers, e.g. 1,3,7"),
    )),
}

# each command's flags by every name they answer to
_FLAG_NAMES = {command: {name: flag for flag in flags for name in flag.names}
               for command, (_, _, flags) in _COMMANDS.items()}


class _Request:
    """A request that `_read_argv` read: each flag's dest, `func` and
    `command` as attributes, as on argparse's namespace."""

    def __init__(self, **fields) -> None:
        self.__dict__.update(fields)


def _read_argv(argv: list[str]) -> _Request | None:
    """The namespace argparse gives a well-formed `argv`, read straight from
    `_COMMANDS`: argv[0] a command, then only exact flag names of it, each
    value flag followed by a value not starting with `-`, no flag twice but
    an `append` one, every required flag given, exactly one flag of a
    required group, and each value among its flag's choices.  None for
    anything else: help, `--flag=value`, an abbreviation, `--`, a negative
    value, a usage error; argparse reads those."""
    if not argv or (command := _COMMANDS.get(argv[0])) is None:
        return None
    func, _, flags = command
    names = _FLAG_NAMES[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if (flag := names.get(token)) is None:
            return None
        if flag.kind == "store_true":
            value = True
        elif (value := next(tokens, "-")).startswith("-"):  # "-": no value left
            return None
        if flag.kind == "append":
            value = given.get(flag, []) + [value]
        elif flag in given or (flag.choices is not None and value not in flag.choices):
            return None
        given[flag] = value
    group = [flag for flag in flags if flag.exclusive]
    if (any(flag.required and flag not in given for flag in flags)
            or (group and sum(flag in given for flag in group) != 1)):
        return None
    namespace = {flag.dest: flag.default for flag in flags}
    namespace.update((flag.dest, value) for flag, value in given.items())
    return _Request(**namespace, func=func, command=argv[0])


# the parser that `build_parser` built, once it has
_PARSER: list[argparse.ArgumentParser] = []


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`, built on the first request that
    `_read_argv` leaves to it and then shared by every `main` call in the
    process; parse_args keeps no state between calls.  Its `commands` holds
    each command's parser by name."""
    if _PARSER:
        return _PARSER[0]
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse's parser; a refused choice is quoted by `shown`, with its choices when whole."""

        def _check_value(self, action, value) -> None:
            if action.choices is not None and value not in action.choices:
                if (text := shown(value)) == repr(value):
                    text += f" (choose from {', '.join(map(repr, action.choices))})"
                raise argparse.ArgumentError(action, f"invalid choice: {text}")

    parser = _Parser(
        prog="lcgspec",
        description="Exact spectral-test analysis and construction of maximum-period "
                    "linear congruential generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        group = None
        for flag in flags:
            if flag.exclusive and group is None:
                group = p.add_mutually_exclusive_group(required=True)
            # argparse's store_true takes neither a metavar nor choices
            extra = {"metavar": flag.metavar, "choices": flag.choices}
            (group if flag.exclusive else p).add_argument(
                *flag.names, action=flag.kind, dest=flag.dest, default=flag.default,
                required=flag.required, help=flag.help,
                **{key: value for key, value in extra.items() if value is not None})
        p.set_defaults(func=func)
    parser.commands = sub.choices
    _PARSER.append(parser)
    return parser


def _parse_args(argv: Sequence[str] | None):
    """The request's namespace.  `_read_argv` reads a well-formed argv
    without argparse; anything else is `build_parser().parse_args(argv)`,
    with one argparse pass when argv[0] names a command: the top-level
    parser would only hand the rest to that command's parser, and report
    what it leaves over.  So help and every usage error are argparse's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if (args := _read_argv(argv)) is not None:
        return args
    parser = build_parser()
    if not argv or argv[0] not in _COMMANDS:
        return parser.parse_args(argv)
    args, extras = parser.commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {shown(' '.join(extras), verbatim=True)}")
    args.command = argv[0]
    return args


def _drop_unwritten(stream: TextIOBase) -> None:
    """Point `stream`'s file at the null device when what it still holds
    cannot be written, so the interpreter's final flush has nothing to fail
    on and prints nothing."""
    try:
        stream.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)


def main(argv: Sequence[str] | None = None, out: TextIOBase | None = None) -> int:
    out = sys.stdout if out is None else out
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args, out)
        if out is sys.stdout:  # a write failure still in the buffer is this call's
            out.flush()
        return code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    except OSError as exc:
        # The output failed.  A reader that has gone is no error to report.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        if out is sys.stdout:
            _drop_unwritten(out)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
