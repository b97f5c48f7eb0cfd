"""Regenerate bench/reference.json, the benchmark's recorded answers.

Run from the repository root:  python3 bench/make_reference.py

Everything is computed by `lcgbench.oracle`, which does not import lcgspec:
the exact v_s^2 of the published sweep generators, the pool of full-period
generators of the orbit workload with the byte count and sha256 of their
full-period dumps, and the frequency counts of the decimal and pi/e
intervals.  The pool is drawn with a fixed seed, so reruns give the same file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lcgbench import inputs, oracle  # noqa: E402

POOL_SEED = "orbit-pool-v1"
POOL_SIZE = 12
# (N as typed, which full-period dump the kernel's generators get)
ORBIT_KERNELS = (("2^20", "table"), ("4*5^8", None), ("10^6", "csv"), ("3^12", None))
DECIMAL_INTERVALS = (
    "0.1:0.7", "0.2:0.9", "0.25:0.5", "0.580815:0.850411", "0.05:0.95",
    "0.333333:0.666667", "0.123456789:0.987654321", "0.3:0.31",
)
SYMBOLIC_INTERVALS = (
    "1/pi^2:1-1/e", "1/e:pi/4", "1/pi:e/3", "0.1:1/e", "pi/8:0.75",
    "e/10:pi/10", "1-2/pi:1/2", "1/pi^3:1/e^2",
)


def interval_record(N: int, spec: str) -> dict:
    lo, hi = spec.split(":")
    alpha, beta = oracle.endpoint(lo), oracle.endpoint(hi)
    assert 0 <= alpha < beta <= 1, spec
    kind = "symbolic" if spec in SYMBOLIC_INTERVALS else "decimal"
    return {"alpha": lo, "beta": hi, "kind": kind, "m": oracle.full_period_count(N, alpha, beta)}


def dump_record(a: int, c: int, N: int, x0: int, fmt: str) -> dict:
    h, n = hashlib.sha256(), 0
    for line in oracle.dump_lines(a, c, N, x0, fmt):
        data = line.encode()
        h.update(data)
        n += len(data)
    return {"bytes": n, "sha256": h.hexdigest()}


def orbit_kernel(rng: random.Random, N_text: str, dump: str | None) -> dict:
    N = inputs.int_expr(N_text)
    pool = []
    for _ in range(POOL_SIZE):
        a = inputs.max_period_multiplier(rng, N)
        c = next(c for c in iter(lambda: rng.randrange(1, N), None) if math.gcd(c, N) == 1)
        gen = {"a": a, "c": c, "x0": rng.randrange(N)}
        if dump:
            gen["dump"] = dump_record(a, c, N, gen["x0"], dump)
        pool.append(gen)
    kern = {"N": N, "N_text": N_text, "pool": pool,
            "intervals": [interval_record(N, s)
                          for s in DECIMAL_INTERVALS + SYMBOLIC_INTERVALS]}
    if dump:
        kern["dump"] = dump
    return kern


def main() -> None:
    lo, hi = inputs.SWEEP_DIMS
    b = inputs.SWEEP_BUILD
    spectral = [(a, N) for a, N, _ in inputs.PUBLISHED] + [(b["a"], (b["a"] - 1) ** b["tau"])]
    sweep = [{"a": a, "N": N,
              "v_sq": {str(s): oracle.spectral_v_sq(a, N, s) for s in range(lo, hi + 1)}}
             for a, N in spectral]
    rng = random.Random(POOL_SEED)
    orbit = [orbit_kernel(rng, text, dump) for text, dump in ORBIT_KERNELS]
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps({"sweep": sweep, "orbit": orbit}, indent=1) + "\n")


if __name__ == "__main__":
    main()
