#!/usr/bin/env python3
"""Checks that the benchmark is steady on one commit.

Usage (from the repository root):

  python3 perfbench/steadiness.py [--runs 10] [--out FILE]

Runs the benchmark command of BENCHMARK.json in two interleaved sets, A and
B, of --runs runs on every workload, each run for run_seconds and with its
own seed (A and B use different seeds), and prints per set and workload
each end-to-end metric's
median, quartiles and spread (IQR / median, as statistics.quantiles(n=4)
gives them). It then reports whether the sets agree within the bounds of
BENCHMARK.json:

  * every spread except setup_s's is within the metric's bound (fk-dram's
    set-up, mostly generating 352 MB on 2 MB pages, read either 0.3-0.45 s
    or 0.6-0.7 s from run to run, so only its median is gated, as for
    every other metric);
  * B's median is not worse than A's by more than the bound;
  * the share of failed operations is the same in both sets.

It also prints a bound derived from what it measured: three times the
larger spread or median shift seen on any workload, rounded up to 0.01 and
capped at 0.25. The raw results go to --out (default
.bench_build/steadiness.json).
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_BOUND = 0.25


def run_once(bench, workload, seed, seconds):
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(command)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    host = next((l for l in lines if l.startswith("# host:")), "")
    return {"workload": workload, "seed": seed, "result": result,
            "host": host}


def collect(bench, workloads, runs, seconds):
    records = {"A": [], "B": []}
    for i in range(runs):
        for workload in workloads:
            # Alternate which set goes first so host drift hits both alike.
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = (1000 if name == "A" else 2000) + i
                record = run_once(bench, workload, seed, seconds)
                records[name].append(record)
                value = lambda m: record["result"]["metrics"][m]["value"]
                print(f"[{name}] {workload} seed={seed} "
                      f"setup_s={value('setup_s'):.4f} "
                      f"attempted={record['result']['attempted']} "
                      f"failed={record['result']['failed']} "
                      f"{record['host'][2:]}", flush=True)
    return records


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else math.inf


def worse_by(metric, base, other):
    """Relative amount by which `other` is worse than `base`."""
    if base == 0:
        return 0.0 if other == base else math.inf
    change = (other - base) / base
    return -change if metric["better"] == "higher" else change


def analyse(bench, records):
    ok = True
    derived = {}
    workloads = sorted({r["workload"] for r in records["A"]})
    for workload in workloads:
        print(f"\n== {workload}")
        sets = {name: [r["result"] for r in records[name]
                       if r["workload"] == workload] for name in ("A", "B")}
        shares = {name: sum(r["failed"] for r in rs) /
                  max(1, sum(r["attempted"] for r in rs))
                  for name, rs in sets.items()}
        if shares["A"] != shares["B"]:
            ok = False
        print(f"failed share: A={shares['A']:.6f} B={shares['B']:.6f}")
        print(f"{'metric':22s} {'set':3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for set_name, results in sets.items():
                values = [r["metrics"][name]["value"] for r in results]
                stats[set_name] = summarize(values)
            shift = worse_by(metric, stats["A"][0], stats["B"][0])
            spreads = [stats[s][3] for s in ("A", "B")]
            verdict = "ok"
            if name != "setup_s" and max(spreads) > bound:
                verdict = "SPREAD"
            if shift > bound:
                verdict = "SHIFT"
            ok = ok and verdict == "ok"
            seen = max([abs(shift)] + ([] if name == "setup_s" else spreads))
            derived[name] = max(derived.get(name, 0.0), seen)
            for set_name in ("A", "B"):
                median, q1, q3, spread = stats[set_name]
                tail = (f"{verdict} (B worse by {shift:+.3f})"
                        if set_name == "B" else "")
                print(f"{name:22s} {set_name:3s} {median:12.5g} {q1:12.5g} "
                      f"{q3:12.5g} {spread:7.3f} {bound:6.2f}  {tail}")
    print("\nderived bounds (3 x largest spread or shift seen, cap "
          f"{MAX_BOUND}):")
    for metric in bench["end_to_end"]:
        seen = derived.get(metric["name"], 0.0)
        suggested = min(MAX_BOUND, math.ceil(300 * seen) / 100)
        print(f"  {metric['name']:22s} seen={seen:.3f} "
              f"suggested={suggested:.2f} current={metric['bound']:.2f}")
    print(f"\nsets agree within BENCHMARK.json bounds: {'YES' if ok else 'NO'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / ".bench_build" /
                                             "steadiness.json"))
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    records = collect(bench, workloads, args.runs, bench["run_seconds"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records, indent=1))
    print(f"raw results: {out}")
    sys.exit(0 if analyse(bench, records) else 1)


if __name__ == "__main__":
    main()
