"""Tests of the benchmark itself: seeded inputs, oracle, checkers, sink, tracer.

Genuine answers come from lcgspec's CLI; each checker must accept them and
reject a corrupted copy.  Run with:  python -m pytest bench/test_lcgbench.py
"""

from __future__ import annotations

import copy
import hashlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from lcgbench import checks, inputs, oracle  # noqa: E402
from lcgbench.tracer import Sink, Tracer  # noqa: E402
from lcgspec import cli, lattice, spectral  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def run_cli(argv, out=None):
    out = io.StringIO() if out is None else out
    assert cli.main(argv, out=out) == 0
    return out


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("make", [
    inputs.sweep, inputs.tiny_lattices, inputs.certify,
    lambda seed: inputs.orbit(seed, REFERENCE),
])
def test_same_seed_same_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_inputs_are_max_period_pairs():
    for spec in inputs.sweep(3):
        if spec["kind"] == "analyze" and spec["N"] == 2**64:
            assert oracle.is_max_period(spec["a"], spec["N"])
    assert all(oracle.is_max_period(a, N) for a, N, _ in inputs.tiny_lattices(3))
    for spec in inputs.certify(3):
        if spec["kind"] == "build":
            N = (spec["a"] - 1) ** spec["t"] // spec["lam"]
            assert oracle.potential(spec["a"], N) == (spec["t"], spec["lam"])


# -- oracle --------------------------------------------------------------------


def test_oracle_matches_exhaustive_search():
    for a, N, s in [(5, 16, 2), (13, 27, 3), (21, 64, 2), (9, 32, 3), (41, 100, 3)]:
        bound = math.isqrt(2 * N) + 1  # v_s^2 <= 2N for s >= 2 (packing bound)
        box = range(-bound, bound + 1)
        best = min(sum(x * x for x in m) for m in itertools.product(box, repeat=s)
                   if any(m) and oracle.in_dual_lattice(a, N, list(m)))
        assert oracle.spectral_v_sq(a, N, s) == best


def test_oracle_reproduces_paper_anchor():
    # 3-dim value for a = 3141592621, N = 10^10: 227^2 + 983^2 + 130^2
    assert oracle.spectral_v_sq(3141592621, 10**10, 3) == 1034718


def test_recorded_references_rederive():
    for rec in REFERENCE["sweep"]:
        for s in (2, 5):
            assert oracle.spectral_v_sq(rec["a"], rec["N"], s) == rec["v_sq"][str(s)]
    for kern in REFERENCE["orbit"]:
        for r in kern["intervals"]:
            lo, hi = oracle.endpoint(r["alpha"]), oracle.endpoint(r["beta"])
            assert oracle.full_period_count(kern["N"], lo, hi) == r["m"]


def test_dump_rendering_matches_published_digits():
    lines = list(oracle.dump_lines(26, 1, 625, 0, "table"))
    assert lines[0].split("; ")[:3] == ["0.0016", "0.0432", "0.1248"]
    assert lines[-1].rstrip("\n").split("; ")[-1] == "0"


# -- checkers reject corrupted answers -----------------------------------------


def test_sweep_checker():
    a, N = 69069, 2**32
    payload = json.loads(run_cli(["analyze", "--a", str(a), "--N", "2^32", "--s", "2..8",
                                  "--format", "json"]).getvalue())
    want = {s: oracle.spectral_v_sq(a, N, s) for s in range(2, 9)}
    checks.check_analyze(payload, a, N, want)
    bad = copy.deepcopy(payload)
    bad["results"][3]["v_sq"] = str(int(bad["results"][3]["v_sq"]) + 1)
    with pytest.raises(checks.WrongAnswer):
        checks.check_analyze(bad, a, N, want)
    off = dict(want)
    off[4] += 1
    with pytest.raises(checks.WrongAnswer):
        checks.check_analyze(payload, a, N, off)


def test_oracle_checker():
    a, N, s = 21, 64, 3
    e = lattice.shortest_vector(lattice.dual_basis(a, N, s))
    b = lattice.brute_force_shortest(a, N, s, box=N)
    enum, brute = (e.norm_sq, e.vector, e.certified), (b.norm_sq, b.vector, b.certified)
    want = oracle.spectral_v_sq(a, N, s)
    checks.check_svp_pair(a, N, s, enum, brute, want)
    with pytest.raises(checks.WrongAnswer):
        checks.check_svp_pair(a, N, s, enum, brute, want + 1)
    with pytest.raises(checks.WrongAnswer):
        checks.check_svp_pair(a, N, s, enum, (b.norm_sq + 1,) + brute[1:], want)


@pytest.mark.parametrize("argv, a, t, lam, covers", [
    (["--tau", "6", "--a", "69069"], 69069, 6, 1, 6),
    (["--s", "3", "--primes", "2:3,5:1", "--d", "3"], 121, 3, 1, 3),
    (["--tau", "2", "--l", "2", "--lambda", "2", "--primes", "2:2"], 5, 4, 2, 2),
])
def test_certify_checker(argv, a, t, lam, covers):
    payload = json.loads(run_cli(["build"] + argv + ["--format", "json"]).getvalue())
    checks.check_certificate(payload, a, t, lam, covers)
    bad = copy.deepcopy(payload)
    entry = bad["certificate"][-1]
    entry["upper_exact_sq"] = str(int(entry["upper_exact_sq"]) + 1)
    with pytest.raises(checks.WrongAnswer):
        checks.check_certificate(bad, a, t, lam, covers)
    bad = copy.deepcopy(payload)
    bad["certificate"][0]["statement"] = bad["certificate"][0]["statement"].replace("2", "3", 1)
    with pytest.raises(checks.WrongAnswer):
        checks.check_certificate(bad, a, t, lam, covers)


@pytest.mark.parametrize("fmt", inputs.UNIFORMITY_FORMATS)
def test_orbit_count_checker(fmt):
    N = 625
    argv = ["uniformity", "--a", "26", "--N", str(N), "--format", fmt]
    want = []
    for lo, hi in [("1/3", "2/3"), ("0.2", "0.9"), ("1/pi^2", "1-1/e")]:
        argv += ["--interval", f"{lo}:{hi}"]
        m = oracle.full_period_count(N, oracle.endpoint(lo), oracle.endpoint(hi))
        want.append((lo, hi, m))
    text = run_cli(argv).getvalue()
    checks.check_uniformity(text, fmt, want)
    want[1] = (want[1][0], want[1][1], want[1][2] + 1)
    with pytest.raises(checks.WrongAnswer):
        checks.check_uniformity(text, fmt, want)


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_dump_checker(fmt):
    a, c, N, x0 = 26, 7, 625, 11
    sink = run_cli(["dump", "--a", str(a), "--N", str(N), "--c", str(c), "--x0", str(x0),
                    "--format", fmt], Sink())
    data = "".join(oracle.dump_lines(a, c, N, x0, fmt)).encode()
    ref = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    args = (sink.byte_count(), sink.sha256(), sink.tail, fmt, N, x0)
    checks.check_dump(*args, ref)
    with pytest.raises(checks.WrongAnswer):
        checks.check_dump(*args, dict(ref, sha256=hashlib.sha256(b"x").hexdigest()))
    with pytest.raises(checks.WrongAnswer):
        checks.check_dump(*args[:5], x0 + 1, ref)


# -- sink and tracer -----------------------------------------------------------


def test_sink_counts_hashes_and_keeps_tail():
    sink = Sink(keep=True, tail=8)
    parts = [f"line {i}\n" for i in range(10_000)]
    for p in parts:
        sink.write(p)
    text = "".join(parts)
    assert sink.byte_count() == len(text.encode())
    assert sink.sha256() == hashlib.sha256(text.encode()).hexdigest()
    assert sink.text() == text and sink.tail == text[-8:]


def test_tracer_wraps_by_name_and_partitions_time():
    original = lattice.shortest_vector
    tracer = Tracer()
    undo = tracer.install()
    try:
        assert spectral.shortest_vector is lattice.shortest_vector is not original
        root = tracer.enter("bench.pass")
        run_cli(["analyze", "--a", "26", "--N", "625", "--s", "2..3", "--format", "json"])
        tracer.exit(root)
    finally:
        Tracer.uninstall(undo)
    assert spectral.shortest_vector is lattice.shortest_vector is original
    summary = tracer.summary("bench.pass")
    assert summary["calls"]["lattice.lll_reduce"] == 2
    assert summary["calls"]["cli.main"] == 1
    assert summary["self_total_s"] == pytest.approx(summary["root_s"], rel=1e-9)
    assert summary["lll_row_is_min_ratio"] in (0.0, 0.5, 1.0)
    assert summary["min_self_s"] >= 0
