"""The four workloads as lists of queries bound to lcgspec's public entry points.

A query's `call` is the timed work.  Its `judge` runs after the pass: it
returns False when the package refused or errored where an answer was
expected, and raises `checks.WrongAnswer` when the answer is wrong.  Entry
points are looked up on their modules at call time, so a traced pass sees the
tracer's wrappers.
"""

from __future__ import annotations

import json
from contextlib import redirect_stderr
from dataclasses import dataclass
from typing import Any, Callable

from lcgspec import cli, lattice

from . import checks, inputs, oracle
from .tracer import Sink

@dataclass(frozen=True)
class Query:
    qid: str
    call: Callable[[], Any]
    judge: Callable[[Any], bool]


def _parsed(check: Callable[[], None]) -> None:
    """Run a checker; output it cannot even parse is a wrong answer too."""
    try:
        check()
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise checks.WrongAnswer(f"malformed answer: {type(exc).__name__}: {exc}") from exc


def _cli(qid: str, argv: list[str], check: Callable[[Sink], None] | None,
         keep: bool = True, expect_rc: int = 0) -> Query:
    """`lcgspec <argv>` in-process, stdout and stderr sent to sinks.  Without
    a `check` the request must be refused with `expect_rc` and a message."""
    def call():
        out, err = Sink(keep), Sink(keep=True)
        with redirect_stderr(err):
            rc = cli.main(argv, out=out)
        return rc, out, err

    def judge(answer) -> bool:
        rc, out, err = answer
        if rc != expect_rc:
            return False
        if check is None:
            checks.expect(err.text().startswith("error:"), "refusal without a message")
        else:
            _parsed(lambda: check(out))
        return True

    return Query(qid, call, judge)


def _spectral_want(reference: dict, a: int, N: int, dims: range) -> dict[int, int]:
    for rec in reference["sweep"]:
        if (rec["a"], rec["N"]) == (a, N):
            return {s: rec["v_sq"][str(s)] for s in dims}
    return {s: oracle.spectral_v_sq(a, N, s) for s in dims}


def _analyze_check(a: int, N: int, want: dict[int, int]):
    return lambda out: checks.check_analyze(json.loads(out.text()), a, N, want)


def _build_check(spec: dict, want: dict[int, int] | None):
    def check(out: Sink) -> None:
        payload = json.loads(out.text())
        checks.check_certificate(payload, spec["a"], spec["t"], spec["lam"], spec["covers"])
        if want is not None:
            checks.check_validation(payload["validation"], want)
    return check


def sweep(seed: int, reference: dict) -> list[Query]:
    lo, hi = inputs.SWEEP_DIMS
    queries = []
    for i, spec in enumerate(inputs.sweep(seed)):
        a = spec["a"]
        if spec["kind"] == "analyze":
            want = _spectral_want(reference, a, spec["N"], range(lo, hi + 1))
            check = _analyze_check(a, spec["N"], want)
        else:
            want = _spectral_want(reference, a, (a - 1) ** spec["t"],
                                  range(2, spec["validate"] + 1))
            check = _build_check(spec, want)
        queries.append(_cli(f"sweep-{i}", spec["argv"], check))
    return queries


def _svp_pair(qid: str, a: int, N: int, s: int) -> Query:
    want = oracle.spectral_v_sq(a, N, s)

    def call():
        return (lattice.shortest_vector(lattice.dual_basis(a, N, s)),
                lattice.brute_force_shortest(a, N, s, box=N))

    def judge(answer) -> bool:
        enum, brute = answer
        _parsed(lambda: checks.check_svp_pair(
            a, N, s, (enum.norm_sq, enum.vector, enum.certified),
            (brute.norm_sq, brute.vector, brute.certified), want))
        return True

    return Query(qid, call, judge)


def tiny_lattices(seed: int, reference: dict) -> list[Query]:
    return [_svp_pair(f"oracle-{i}", a, N, s)
            for i, (a, N, s) in enumerate(inputs.tiny_lattices(seed))]


def certify(seed: int, reference: dict) -> list[Query]:
    return [_cli(f"certify-{i}", spec["argv"], None, expect_rc=spec["expect_rc"])
            if spec["kind"] == "refusal" else
            _cli(f"certify-{i}", spec["argv"], _build_check(spec, None))
            for i, spec in enumerate(inputs.certify(seed))]


def _uniformity_check(spec: dict):
    return lambda out: checks.check_uniformity(out.text(), spec["format"], spec["rows"])


def _dump_check(spec: dict):
    return lambda out: checks.check_dump(out.byte_count(), out.sha256(), out.tail,
                                         spec["format"], spec["N"], spec["x0"], spec["ref"])


def orbit(seed: int, reference: dict) -> list[Query]:
    return [_cli(f"orbit-{i}", spec["argv"], _uniformity_check(spec))
            if spec["kind"] == "uniformity" else
            _cli(f"orbit-{i}", spec["argv"], _dump_check(spec), keep=False)
            for i, spec in enumerate(inputs.orbit(seed, reference))]


BUILDERS = {"sweep": sweep, "oracle": tiny_lattices, "certify": certify, "orbit": orbit}
