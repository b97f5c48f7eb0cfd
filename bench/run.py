"""Benchmark of lcgspec: one workload, one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep|oracle|certify|orbit --seed N \\
        --seconds S --trace 0|1

The package is imported from the checkout's own src/; without it the run
stops with exit code 2.  A run makes a fixed number of passes over the
workload's seeded query set, sending each query after the previous one
returned, and checks every answer against the benchmark's own oracle after
the pass.  A wrong answer aborts with exit code 1.  The last line of stdout
is one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of passes traced by wrapping lcgspec's public
functions (spans are written to .bench_out/).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from lcgbench import checks
from lcgbench.speed import SpeedProbe, slowdown
from lcgbench.tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("sweep", "oracle", "certify", "orbit")
# Reference seconds one pass takes at the seed commit.  A run makes
# round(seconds / this) passes, at least two, so every commit measures the
# same amount of work and the same percentiles.
NOMINAL_PASS_S = {"sweep": 6.9, "oracle": 4.1, "certify": 5.8, "orbit": 5.8}
SETUP_SPAWNS = 15
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
ERRORED = object()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> str | None:
    """Import lcgspec from this checkout's src/, never from anywhere else;
    returns an error message when that is impossible."""
    if not (SRC / "lcgspec" / "__init__.py").is_file():
        return f"no lcgspec sources at {SRC}"
    sys.path.insert(0, str(SRC))
    import lcgspec

    if Path(lcgspec.__file__).resolve().parent != (SRC / "lcgspec").resolve():
        return f"lcgspec imported from {lcgspec.__file__}, not from {SRC}"
    return None


def setup_seconds() -> float:
    """Median time, in reference seconds, that a fresh interpreter spends
    importing the CLI (the interpreter's own start-up excluded)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import lcgspec.cli; print(time.perf_counter() - t0)")
    cmd = [sys.executable, "-I", "-c", code, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_SPAWNS):
        before = slowdown()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        times.append(float(out) / statistics.fmean((before, slowdown())))
    return statistics.median(times)


def run_pass(queries, tracer=None):
    """One closed-loop pass.  Returns each query's time in reference seconds,
    the answers, and the pass's reference seconds per measured second."""
    spans, answers = [], []
    with SpeedProbe() as probe:
        root = tracer.enter("bench.pass") if tracer else None
        t0 = perf_counter()
        for q in queries:
            if tracer:
                tracer.query = q.qid
                span = tracer.enter("bench.query")
            start = perf_counter()
            try:
                answer = q.call()
            except Exception:  # a crashing query is a failed query; keep the loop going
                traceback.print_exc()
                answer = ERRORED
            spans.append((start, perf_counter()))
            if tracer:
                tracer.exit(span)
            answers.append(answer)
        elapsed = perf_counter() - t0
        if tracer:
            tracer.exit(root)
    latencies = [probe.reference_seconds(a, b) for a, b in spans]
    return latencies, answers, sum(latencies) / elapsed


def judge_pass(queries, answers) -> int:
    """Number of failed queries; raises checks.WrongAnswer on a wrong one."""
    return sum(1 for q, ans in zip(queries, answers) if ans is ERRORED or not q.judge(ans))


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(traced: list, plain_walls: list[float]) -> dict:
    """Per-layer metrics from the traced passes, each given as (tracer, speed
    factor, wall in reference seconds); self times in reference seconds."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    hit_ratios, dumped = [], 0
    for tracer, factor, _ in traced:
        summary = tracer.summary("bench.pass")
        total = summary["root_s"]
        if abs(summary["self_total_s"] - total) > 1e-6 * total or summary["min_self_s"] < -1e-6:
            raise SystemExit("error: span self times do not partition the traced wall time")
        for name, t in summary["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + t * factor
        for name, c in summary["calls"].items():
            calls[name] = calls.get(name, 0) + c
        hit_ratios.append(summary["lll_row_is_min_ratio"])
        dumped += summary["dump_bytes"]
    n = len(traced)
    wall = statistics.median(w for _, _, w in traced)
    metrics = {}
    for layer in LAYERS:
        mean_self = self_s.get(layer, 0.0) / n
        metrics[f"{layer}.self_s"] = (mean_self, "s")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / n, "count")
        if mean_self:
            print(f"  {layer:32s} {100 * mean_self / wall:6.2f}% of traced wall_s",
                  file=sys.stderr)
    metrics["lattice.lll_row_is_min_ratio"] = (statistics.fmean(hit_ratios), "ratio")
    metrics["empirical.dump_sequence.bytes"] = (dumped / n, "bytes")
    metrics["trace_overhead_ratio"] = (wall / statistics.median(plain_walls), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = import_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from lcgbench import workloads  # imports lcgspec, so only after import_package()

    reference = json.loads((HERE / "reference.json").read_text())
    queries = workloads.BUILDERS[args.workload](args.seed, reference)
    passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    setup_s = None if args.trace else setup_seconds()

    plain_walls, latencies, traced = [], [], []
    attempted = failed = 0
    try:
        for i in range(passes):
            tracer = Tracer() if args.trace and i % 2 == 1 else None
            undo = tracer.install() if tracer else None
            try:
                lat, answers, factor = run_pass(queries, tracer)
            finally:
                if undo:
                    Tracer.uninstall(undo)
            wall = sum(lat)
            if tracer:
                traced.append((tracer, factor, wall))
            else:
                plain_walls.append(wall)
                latencies += lat
            attempted += len(queries)
            failed += judge_pass(queries, answers)
    except checks.WrongAnswer as exc:
        print(f"error: wrong answer on {args.workload} (seed {args.seed}): {exc}",
              file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(traced, plain_walls)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for i, (tracer, _, _) in enumerate(traced):
                tracer.dump(fh, i)
    else:
        value, pct = tail(latencies)
        print(f"{args.workload}: {passes} passes of {len(queries)} queries; "
              f"query_tail_ms is p{pct:.1f} of {len(latencies)} samples", file=sys.stderr)
        metrics = {
            "wall_s": (statistics.median(plain_walls), "s"),
            "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "query_tail_ms": (1000 * value, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
