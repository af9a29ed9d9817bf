#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly, one seed per run, and print
each end-to-end metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workload chat --runs 10
    python3 perfbench/steady.py --workload faults --runs 5 --first-seed 1001
    python3 perfbench/steady.py --workload encode --runs 2 --trace 1

Each run's metrics are printed as it finishes, beside its host-context line.
The command, run length and bounds come from BENCHMARK.json. Spread is the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median. A metric is steady when its spread is below a third of
its bound. Exits 1 when any spread exceeds its bound, a run is not correct,
or the share of failed requests differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_result(stdout):
    """The result object: the last non-empty line of a run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("no request attempted")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name} is malformed: {metric}")
    return result


def host_line(stdout):
    """The run's host-context line, if it printed one."""
    return next((l for l in stdout.splitlines() if l.startswith("host:")), "")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(command, workload, seed, seconds, trace):
    """One run's result, host-context line and wall seconds."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    return parse_result(proc.stdout), host_line(proc.stdout), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, host, wall = run_once(bench["command"], args.workload, seed, seconds, args.trace)
        results.append(result)
        print(f"seed {seed:>4}: {wall:6.1f} s  failed {result['failed']}/{result['attempted']}"
              f"  correct={result['correct']}  {host}", flush=True)
        print("      " + "  ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()))

    ok = True
    for r in results:
        if sorted(r["metrics"]) != sorted(declared):
            ok = False
            print(f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(r['metrics']))}")
            break
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) > 1:
        ok = False
        print(f"failed share differs between runs: {sorted(shares)}")
    if not all(r["correct"] for r in results):
        ok = False
        print("a run reported correct=false")

    print(f"\n{'metric':<26}{'unit':>8}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>8}  verdict")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, s = spread(values)
        bound = bounds.get(name)
        if bound is None:
            verdict = "-"
        elif s < bound / 3:
            verdict = "steady"
        elif s <= bound:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
            ok = False
        print(f"{name:<26}{results[0]['metrics'][name]['unit']:>8}{med:>14.6g}{q1:>14.6g}"
              f"{q3:>14.6g}{s:>9.3f}{bound if bound is not None else '-':>8}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
