#!/usr/bin/env python3
"""Spread check: is the benchmark steady enough on this host?

Usage, from the repository root:

    python3 levbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                               [--workloads compile-cold,run-hot]
                               [--save FILE] [--against FILE]
                               [--trace-repeat]

Runs each workload --runs times through levbench/run.py, each run with
the next seed, and prints every run's host-speed probe (a fixed loop in
the benchmark's own code, timed like the workloads: it tells a slow host
from a slow program) with its end-to-end metrics. Then, per workload and
metric, it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json, flagging any spread above
its bound. Every run must be correct, and the share of failed operations
must be the same in every run of a workload.

--save writes the set's medians and failed shares to FILE (JSON).
--against compares this set with one saved earlier: every metric's
median may be worse than the saved one by at most its bound, and the
failed shares must be equal.

--trace-repeat instead runs the traced run twice per workload with one
seed and checks that the deterministic per-layer counts repeat exactly.

Exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
COUNTS = ["surface.tokens", "bytecode.instrs", "bytecode.steps",
          "bytecode.allocs", "driver.artifact_bytes"]


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    probe = next((float(l.split()[1]) for l in lines
                  if l.startswith("probe_ms ")), float("nan"))
    return probe, json.loads(lines[-1])


def spread_check(spec, args):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = False
    summary = {}
    for w in args.workloads:
        values, shares = {}, set()
        print(f"== {w}")
        for i in range(args.runs):
            seed = args.first_seed + i
            probe, res = run_once(w, seed, args.seconds, False)
            ms = {k: v["value"] for k, v in res["metrics"].items()}
            shares.add(Fraction(res["failed"], res["attempted"]))
            print(f"  seed {seed:4d} probe_ms {probe:8.2f} correct "
                  f"{res['correct']} failed/attempted "
                  f"{res['failed']}/{res['attempted']} " +
                  " ".join(f"{k}={v:.6g}" for k, v in ms.items()))
            if not res["correct"]:
                flagged = True
                print("  FLAG: wrong answers")
            for k, v in ms.items():
                values.setdefault(k, []).append(v)
        if len(shares) > 1:
            flagged = True
            print("  FLAG: the failed share differs between runs: " +
                  ", ".join(str(s) for s in sorted(shares)))
        summary[w] = {"failed_share": [str(s) for s in sorted(shares)],
                      "medians": {}}
        for k, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k)
            out = bound is not None and spread > bound
            flagged |= out
            summary[w]["medians"][k] = med
            print(f"  {k:12s} median {med:12.6g} Q1 {q1:12.6g} Q3 {q3:12.6g} "
                  f"spread {spread:6.3f} bound {bound} "
                  f"{'OUT' if out else 'ok'}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=2)
    if args.against:
        flagged |= compare(spec, summary, args.against)
    return flagged


def compare(spec, summary, path):
    """Flags every median worse than the saved set's by more than its
    bound, and every failed share that differs."""
    with open(path) as f:
        before = json.load(f)
    flagged = False
    print(f"== against {path}")
    for m in spec["end_to_end"]:
        k, bound = m["name"], m["bound"]
        for w, now in summary.items():
            if w not in before or k not in now["medians"]:
                continue
            a, b = before[w]["medians"][k], now["medians"][k]
            change = (b - a) / a
            worse = change if m["better"] == "lower" else -change
            out = worse > bound
            flagged |= out
            print(f"  {w:13s} {k:12s} {a:12.6g} -> {b:12.6g} "
                  f"({change:+.3f}) bound {bound} {'OUT' if out else 'ok'}")
    for w, now in summary.items():
        if w in before and before[w]["failed_share"] != now["failed_share"]:
            flagged = True
            print(f"  {w}: FLAG: failed share {before[w]['failed_share']} "
                  f"-> {now['failed_share']}")
    return flagged


def trace_repeat(args):
    flagged = False
    for w in args.workloads:
        runs = [run_once(w, args.first_seed, args.seconds, True)[1]
                for _ in range(2)]
        for k in COUNTS:
            a, b = (r["metrics"][k]["value"] for r in runs)
            same = a == b
            flagged |= not same
            print(f"{w:13s} {k:22s} {a:14.0f} {b:14.0f} "
                  f"{'same' if same else 'DIFFERENT'}")
        for r in runs:
            if not r["correct"]:
                flagged = True
                print(f"{w}: FLAG: wrong answers in a traced run")
    return flagged


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--save")
    p.add_argument("--against")
    p.add_argument("--trace-repeat", action="store_true")
    args = p.parse_args()
    args.workloads = args.workloads.split(",")
    flagged = trace_repeat(args) if args.trace_repeat else spread_check(spec, args)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
