"""Seeded query sets for the four workloads, generated without lcgspec.

Each generator returns plain data: the CLI arguments or library inputs of one
pass, plus what the answer must be.  The same seed always gives the same
inputs.  Max-period pairs come from the benchmark's own rule
(`oracle.is_max_period`), never from the package under test.
"""

from __future__ import annotations

import math
import random

from . import oracle

# Published multipliers for the analyze sweep: (a, N, N as typed).
PUBLISHED = (
    (69069, 2**32, "2^32"),
    (1664525, 2**32, "2^32"),
    (25214903917, 2**48, "2^48"),
    (6364136223846793005, 2**64, "2^64"),
    (3141592621, 10**10, "10^10"),
    (23, 10**8 + 1, "10^8+1"),
)
SWEEP_DIMS = (2, 8)
SWEEP_SEEDED = 1  # extra max-period multiplier at 2^64 per seed
SWEEP_BUILD = {"a": 69069, "tau": 6, "validate": 8}

ORACLE_MAX_N = 256
ORACLE_DIMS = (2, 3, 4)
ORACLE_QUERIES = 1700

# Published word-size multipliers whose a-1 has a prime above the 10^7
# trial-division bound, so their builds spend their time factoring.
CERTIFY_EXPLICIT = (
    {"a": 2147001325, "mode": "single", "s": 2},
    {"a": 6364136223846793005, "mode": "range", "tau": 3},
    {"a": 2862933555777941757, "mode": "range", "tau": 2, "l": 1, "lam": 4},
    {"a": 1181783497276652981, "mode": "single", "s": 3},
    {"a": 13891176665706064109, "mode": "range", "tau": 2, "min_accuracy": "10^6"},
)
CERTIFY_SHAPED = 40
SHAPE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SHAPE_COFACTORS = (1, 3, 5, 7, 9, 11, 13)
MIN_ACCURACY = (None, None, "10^3", "10^6", "2^20")
EXIT_USAGE, EXIT_DOMAIN = 2, 3  # lcgspec's documented exit codes

INTERVALS_PER_GENERATOR = 4
UNIFORMITY_FORMATS = ("csv", "json", "text")


def int_expr(text: str) -> int:
    """Value of a flag expression made of digits, ^, *, + and -."""
    return eval(text.replace("^", "**"), {"__builtins__": {}})  # noqa: S307


def max_period_multiplier(rng: random.Random, N: int) -> int:
    while True:
        a = rng.randrange(2, N)
        if oracle.is_max_period(a, N):
            return a


def sweep(seed: int) -> list[dict]:
    """`analyze --s 2..8` on published and seeded 2^64 generators, then one
    validated range build."""
    rng = random.Random(f"sweep:{seed}")
    gens = list(PUBLISHED)
    for _ in range(SWEEP_SEEDED):
        gens.append((max_period_multiplier(rng, 2**64), 2**64, "2^64"))
    lo, hi = SWEEP_DIMS
    queries = [
        {"kind": "analyze", "a": a, "N": N,
         "argv": ["analyze", "--a", str(a), "--N", text, "--s", f"{lo}..{hi}",
                  "--format", "json"]}
        for a, N, text in gens
    ]
    b = SWEEP_BUILD
    queries.append({
        "kind": "build", "a": b["a"], "t": b["tau"], "lam": 1, "covers": b["tau"],
        "validate": b["validate"],
        "argv": ["build", "--tau", str(b["tau"]), "--a", str(b["a"]),
                 "--validate", str(b["validate"]), "--format", "json"],
    })
    return queries


def oracle_triples() -> list[tuple[int, int, int]]:
    return [(a, N, s)
            for N in range(4, ORACLE_MAX_N + 1)
            for a in range(2, N) if oracle.is_max_period(a, N)
            for s in ORACLE_DIMS]


def tiny_lattices(seed: int) -> list[tuple[int, int, int]]:
    """A seeded sample of (a, N, s) over every max-period pair with N <= 256."""
    return random.Random(f"oracle:{seed}").sample(oracle_triples(), ORACLE_QUERIES)


def _build_argv(a_or_recipe: list[str], mode: str, s: int = 0, tau: int = 0, l: int = 0,
                lam: int = 1, min_accuracy: str | None = None) -> list[str]:
    argv = ["build"]
    argv += ["--s", str(s)] if mode == "single" else ["--tau", str(tau)]
    if l:
        argv += ["--l", str(l)]
    if lam != 1:
        argv += ["--lambda", str(lam)]
    argv += a_or_recipe
    if min_accuracy is not None:
        argv += ["--min-accuracy", min_accuracy]
    return argv + ["--format", "json"]


def _certified(argv: list[str], a: int, mode: str, s: int = 0, tau: int = 0, l: int = 0,
               lam: int = 1) -> dict:
    t, covers = (s, s) if mode == "single" else (tau + l, tau)
    return {"kind": "build", "argv": argv, "a": a, "t": t, "lam": lam, "covers": covers,
            "expect_rc": 0}


def _shaped(rng: random.Random) -> dict:
    """A shaped recipe d * prod p^r + 1 that the theorems cover, so it must build."""
    while True:
        primes = sorted(rng.sample(SHAPE_PRIMES, rng.choice((1, 1, 2))))
        exps = [rng.randint(2, 4) if p == 2 else rng.randint(1, 3) for p in primes]
        kernel = math.prod(p**r for p, r in zip(primes, exps))
        d = rng.choice([x for x in SHAPE_COFACTORS if math.gcd(x, kernel) == 1])
        mode = rng.choice(("single", "range"))
        s = tau = l = 0
        if mode == "single":
            s = rng.randint(2, 6)
            t = s
        else:
            tau, l = rng.randint(2, 6), rng.choice((0, 0, 1, 2))
            t = tau + l
        min_acc = rng.choice(MIN_ACCURACY)
        b = oracle.b_coeff(t)
        j = 1
        if min_acc is not None:
            while d * kernel**j + 1 - b <= int_expr(min_acc):
                j += 1
        a = d * kernel**j + 1
        lam = 1
        if l and rng.random() < 0.6:
            i = rng.randrange(len(primes))
            lam = primes[i] ** rng.randint(1, l * j * exps[i])
        if (a - 1) ** t % lam or lam > (a - 1) ** l:
            continue
        if a < (5 if (t == 2 and lam == 1) else b + 1):
            continue
        N = (a - 1) ** t // lam
        if not oracle.is_max_period(a, N) or oracle.potential(a, N) != (t, lam):
            continue
        recipe = ["--primes", ",".join(f"{p}:{r}" for p, r in zip(primes, exps))]
        if d != 1:
            recipe += ["--d", str(d)]
        argv = _build_argv(recipe, mode, s, tau, l, lam, min_acc)
        return _certified(argv, a, mode, s, tau, l, lam)


def _refusals(rng: random.Random) -> list[dict]:
    """Requests the builder must refuse: a below the theorem threshold, a
    lambda that does not divide (a-1)^(tau+l), and a lambda below 1."""
    tau = rng.randint(5, 8)
    low = rng.randint(5, oracle.b_coeff(tau))
    a = 4 * rng.randint(10, 10**6) + 1
    bad_lam = next(q for q in range(3, 10**4, 2)
                   if (a - 1) % q and all(q % p for p in range(3, q, 2)))
    return [
        {"kind": "refusal", "expect_rc": EXIT_USAGE,
         "argv": _build_argv(["--a", str(low)], "range", tau=tau)},
        {"kind": "refusal", "expect_rc": EXIT_DOMAIN,
         "argv": _build_argv(["--a", str(a)], "range", tau=2, l=1, lam=bad_lam)},
        {"kind": "refusal", "expect_rc": EXIT_DOMAIN,
         "argv": _build_argv(["--a", str(a)], "range", tau=2, l=1, lam=0)},
    ]


def certify(seed: int) -> list[dict]:
    """Certified builds: a few slow explicit multipliers, many shaped recipes
    and a few requests that must be refused, in seeded order."""
    rng = random.Random(f"certify:{seed}")
    queries = []
    for spec in CERTIFY_EXPLICIT:
        kw = {k: spec[k] for k in ("s", "tau", "l", "lam") if k in spec}
        argv = _build_argv(["--a", str(spec["a"])], spec["mode"],
                           min_accuracy=spec.get("min_accuracy"), **kw)
        queries.append(_certified(argv, spec["a"], spec["mode"], **kw))
    queries += [_shaped(rng) for _ in range(CERTIFY_SHAPED)]
    queries += _refusals(rng)
    rng.shuffle(queries)
    return queries


def _rational_interval(rng: random.Random) -> tuple[str, str]:
    q = rng.randint(2, 60)
    ends = sorted(rng.sample(range(q + 1), 2))
    return tuple("0" if p == 0 else "1" if p == q else f"{p}/{q}" for p in ends)


def orbit(seed: int, reference: dict) -> list[dict]:
    """Per kernel of the recorded pool: one generator, a `uniformity` call for
    each of its four intervals, and the kernel's full-period dump if it has one."""
    rng = random.Random(f"orbit:{seed}")
    queries = []
    for kern in reference["orbit"]:
        N, N_text = kern["N"], kern["N_text"]
        gen = rng.choice(kern["pool"])
        a, c, x0 = gen["a"], gen["c"], gen["x0"]
        params = ["--a", str(a), "--N", N_text, "--c", str(c), "--x0", str(x0)]
        recorded = kern["intervals"]
        picks = [rng.choice([r for r in recorded if r["kind"] == "decimal"]),
                 rng.choice([r for r in recorded if r["kind"] == "symbolic"])]
        rows = [(r["alpha"], r["beta"], r["m"]) for r in picks]
        for _ in range(INTERVALS_PER_GENERATOR - len(picks)):
            if rng.random() < 0.5:
                lo, hi = _rational_interval(rng)
                m = oracle.full_period_count(N, oracle.endpoint(lo), oracle.endpoint(hi))
                rows.append((lo, hi, m))
            else:
                r = rng.choice(recorded)
                rows.append((r["alpha"], r["beta"], r["m"]))
        rng.shuffle(rows)
        for lo, hi, m in rows:
            fmt = rng.choice(UNIFORMITY_FORMATS)
            queries.append({"kind": "uniformity", "format": fmt, "rows": [(lo, hi, m)],
                            "argv": ["uniformity"] + params
                            + ["--interval", f"{lo}:{hi}", "--format", fmt]})
        if "dump" in kern:
            fmt = kern["dump"]
            queries.append({"kind": "dump", "argv": ["dump"] + params + ["--format", fmt],
                            "format": fmt, "N": N, "x0": x0, "ref": gen["dump"]})
    return queries
