"""Acceptance scorecard, one test per criterion.

Each test prints a single pass/fail line (visible under `pytest -s`) and
asserts the criterion outcome.  The same checks back the `lcgspec
verify-paper` subcommand.
"""

import math
from decimal import Decimal, localcontext

import pytest

from lcgspec import scorecard
from lcgspec.scorecard import run_all
from lcgspec.spectral import SpectralResult

_PI = "3.14159265358979323846264338327950288419716939937510"


@pytest.fixture(scope="module")
def results():
    return {r.cid: r for r in run_all()}


@pytest.mark.parametrize("cid", range(1, 13))
def test_criterion(cid, results):
    r = results[cid]
    status = "PASS" if r.passed else "FAIL"
    print(f"criterion {cid:2d}: {status} ({r.elapsed:.2f} s) {r.title}: {r.detail}")
    assert r.passed, f"criterion {cid} failed: {r.detail}"


@pytest.mark.parametrize("edge, step, passed", [("low", 0, True), ("low", 1, False),
                                                ("high", 0, True), ("high", -1, False)])
def test_criterion_2_merit_window_is_exact(monkeypatch, edge, step, passed):
    # the anchor v_2^2 with a modulus that puts mu_2 = pi v_2^2 / N just
    # inside or just outside [3.60, 3.62]: `low` is the largest N with
    # mu_2 >= 3.60, `high` the smallest with mu_2 <= 3.62
    v_sq = 4938916874
    with localcontext() as ctx:
        ctx.prec = 50
        low, high = (Decimal(_PI) * v_sq / Decimal(mu) for mu in ("3.60", "3.62"))
    N = (math.floor(low) if edge == "low" else math.ceil(high)) + step
    monkeypatch.setattr(scorecard, "spectral_test",
                        lambda a, N_, s: SpectralResult(a, N, s, v_sq, (), None, None))
    ok, detail = scorecard._c2({})
    assert ok is passed, detail
