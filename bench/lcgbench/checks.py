"""Output checkers, one set per workload.

Each checker receives what the package printed (parsed JSON or raw text) and
the expected answer from `oracle` or the recorded references, and raises
`WrongAnswer` at the first disagreement.  None of them imports lcgspec.
"""

from __future__ import annotations

import json
import math

from . import oracle


class WrongAnswer(Exception):
    """The package returned an answer that the oracle contradicts."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# -- sweep ---------------------------------------------------------------------


def check_analyze(payload: dict, a: int, N: int, want: dict[int, int]) -> None:
    """Lattice membership, norm, monotonicity, exact packing cap and the
    reference value of every v_s^2 in an `analyze --format json` answer."""
    expect(payload["a"] == str(a) and payload["N"] == str(N), "wrong generator echoed")
    results = payload["results"]
    expect([r["s"] for r in results] == sorted(want), "wrong dimensions")
    prev = None
    for r in results:
        s, v_sq = r["s"], int(r["v_sq"])
        vec = [int(x) for x in r["vector"]]
        tag = f"a={a} N={N} s={s}"
        expect(len(vec) == s and any(vec), f"{tag}: bad vector")
        expect(oracle.in_dual_lattice(a, N, vec), f"{tag}: vector not in the dual lattice")
        expect(sum(x * x for x in vec) == v_sq, f"{tag}: |vector|^2 != v_sq")
        expect(prev is None or v_sq <= prev, f"{tag}: v_sq increased with s")
        if s in oracle.PACKING:
            cap = oracle.PACKING[s]
            expect(v_sq**s * cap.denominator <= cap.numerator * N * N,
                   f"{tag}: v_sq above the packing bound")
        expect(v_sq == want[s], f"{tag}: v_sq = {v_sq}, reference {want[s]}")
        prev = v_sq


def check_validation(report: dict, want: dict[int, int]) -> None:
    """`build --validate` rows: every check passed and each v_s^2 is exact."""
    expect(report["ok"] is True, "validation not ok")
    rows = report["rows"]
    expect([r["s"] for r in rows] == sorted(want), "wrong validation dimensions")
    for r in rows:
        expect(int(r["v_sq"]) == want[r["s"]],
               f"validation s={r['s']}: v_sq = {r['v_sq']}, reference {want[r['s']]}")


# -- oracle --------------------------------------------------------------------


def check_svp_pair(a: int, N: int, s: int, enum: tuple, brute: tuple, want: int) -> None:
    """Enumeration and box brute force, each as (norm_sq, vector, certified),
    agree with each other and with the oracle's minimum."""
    tag = f"a={a} N={N} s={s}"
    for label, (norm, vec, certified) in (("enumeration", enum), ("brute force", brute)):
        vec = [int(x) for x in vec]
        expect(certified is True, f"{tag}: {label} answer not certified")
        expect(len(vec) == s and any(vec) and oracle.in_dual_lattice(a, N, vec)
               and sum(x * x for x in vec) == norm, f"{tag}: bad {label} vector")
    expect(enum[0] == brute[0], f"{tag}: enumeration {enum[0]} != brute force {brute[0]}")
    expect(enum[0] == want, f"{tag}: v_sq = {enum[0]}, oracle {want}")


# -- certify -------------------------------------------------------------------


def _float_close(got: float | None, sq: int | None) -> bool:
    """A float bound agrees with the square root of its exact square."""
    if sq is None:
        return got is None
    return got is not None and math.isclose(got, math.exp(0.5 * math.log(sq)), rel_tol=1e-9)


def check_certificate(payload: dict, a: int, t: int, lam: int, covers: int) -> None:
    """Re-derive N = (a-1)^t / lambda, the potential and every bound of a build
    from the theorem formulas and compare with the JSON answer."""
    expect((a - 1) ** t % lam == 0, "bad expectation: lambda must divide (a-1)^t")
    N = (a - 1) ** t // lam
    expect(payload["a"] == str(a), f"a = {payload['a']}, expected {a}")
    expect(payload["N"] == str(N), f"a={a}: N = {payload['N']}, expected (a-1)^{t}/{lam}")
    expect((payload["c"], payload["x0"]) == ("1", "0"), f"a={a}: c, x0 not 1, 0")
    expect((payload["tau"], payload["lambda"]) == (t, str(lam)),
           f"a={a}: (tau, lambda) = ({payload['tau']}, {payload['lambda']}), "
           f"expected ({t}, {lam})")
    expect(payload["covers"] == {"s_min": 2, "s_max": covers}, f"a={a}: wrong coverage")
    cert = oracle.certificate(a, t, lam, covers)
    got = payload["certificate"]
    expect(len(got) == len(cert), f"a={a}: {len(got)} certificate entries, expected {len(cert)}")
    for want, entry in zip(cert, got):
        s, lo, hi = want["s"], want["lower"], want["upper"]
        tag = f"a={a} s={s}"
        expect(entry["s"] == s and entry["theorem"] == want["theorem"],
               f"{tag}: theorem {entry['theorem']}, expected {want['theorem']}")
        expect(entry["lower_exact_sq"] == (None if lo is None else str(lo)),
               f"{tag}: lower bound {entry['lower_exact_sq']}, expected {lo}")
        expect(entry["upper_exact_sq"] == (None if hi is None else str(hi)),
               f"{tag}: upper bound {entry['upper_exact_sq']}, expected {hi}")
        expect(_float_close(entry["lower"], lo) and _float_close(entry["upper"], hi),
               f"{tag}: float bounds disagree with the exact ones")
        expect(entry["lower_unverified"] is False and not entry["violations"],
               f"{tag}: bound reported as unverified or violated")
        parts = [f"v_{s}^2 {op} {x}" for op, x in ((">=", lo), ("<=", hi)) if x is not None]
        if lo is not None and lo == hi:
            parts = [f"v_{s}^2 = {lo}"]
        statement = "; ".join(parts) + f" (theorem {want['theorem']})"
        expect(entry["statement"] == statement,
               f"{tag}: statement {entry['statement']!r}, expected {statement!r}")
    lows = [w["lower"] for w in cert]
    uniform = None if None in lows else str(min(lows))
    expect(payload["uniform_lower_sq"] == uniform,
           f"a={a}: uniform bound {payload['uniform_lower_sq']}, expected {uniform}")
    expect(payload["uniform_lower_unverified"] is False, f"a={a}: uniform bound unverified")


# -- orbit ---------------------------------------------------------------------


def uniformity_rows(text: str, fmt: str) -> list[tuple[str, str, int]]:
    """(alpha label, beta label, m) per row of a `uniformity` answer."""
    if fmt == "json":
        return [(r["alpha"], r["beta"], int(r["m"])) for r in json.loads(text)["rows"]]
    lines = text.splitlines()[1:]
    cells = [line.split(",") if fmt == "csv" else line.split() for line in lines]
    return [(c[0], c[1], int(c[2])) for c in cells]


def check_uniformity(text: str, fmt: str, want: list[tuple[str, str, int]]) -> None:
    got = uniformity_rows(text, fmt)
    expect(len(got) == len(want), f"{len(got)} rows, expected {len(want)}")
    for g, w in zip(got, want):
        expect(g == tuple(w), f"interval {w[0]}:{w[1]}: got m = {g[2]}, expected {w[2]}")


def check_dump(nbytes: int, sha256: str, tail: str, fmt: str, N: int, x0: int,
               ref: dict) -> None:
    """Recorded size and hash, and a last value equal to x0 (full period)."""
    expect(nbytes == ref["bytes"], f"dump has {nbytes} bytes, recorded {ref['bytes']}")
    expect(sha256 == ref["sha256"], "dump sha256 differs from the recorded one")
    last = tail.rstrip("\n").rsplit("\n", 1)[-1]
    if fmt == "csv":
        n, x, _ = last.split(",")
        expect((int(n), int(x)) == (N, x0), f"last dump row {last!r} is not N, x0")
    else:
        want = oracle.decimal(x0, N, oracle.default_digits(N))
        expect(last.split("; ")[-1] == want, f"last dump value is not x0/N = {want}")
