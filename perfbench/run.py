#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

Usage (from the repository root):

  python3 perfbench/run.py --workload fk-dram|fk-strided \
      --seed N --seconds S --trace 0|1 [--self-check]

The harness (perfbench/*.cc) is built from source with CMake in Release
mode into .bench_build/perfbench the first time; later runs only re-check
the build. The last line of standard output is one JSON object:

  {"correct": true, "attempted": N, "failed": F,
   "metrics": {"name": {"value": v, "unit": "u"}, ...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (and a Chrome trace is written to
.bench_build/traces/). Lines before it start with '#': the host-noise
record (CPU steal and iowait ticks from /proc/stat and /proc/loadavg,
before and after the run) and per-operation detail.

"correct" is false when any join or job returned a wrong answer; the
result is still printed, and run.py then exits with code 1.

--self-check runs the workload against a deliberately wrong expected
answer and exits 0 only if every operation is reported as failed and
"correct" is false.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
# The harness's standard error (the program's structured log, one line per
# service job) goes to a file, so its cost does not depend on where the
# caller sends standard error.
LOG_DIR = ROOT / ".bench_build" / "logs"
# A run must finish within 180 s; the first run of a checkout may take
# 900 s because it builds.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def build():
    """Configures (once) and builds the harness; returns its path and
    whether this call configured a fresh build tree."""
    if not (HERE / "CMakeLists.txt").is_file():
        fail("perfbench/CMakeLists.txt is missing")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fresh = not (BUILD_DIR / "CMakeCache.txt").is_file()
        if fresh:
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return BUILD_DIR / "perfbench", fresh


def host_sample():
    """CPU steal and iowait ticks and the load average (read only)."""
    sample = {"steal": 0, "iowait": 0, "total": 0, "loadavg": "?"}
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        ticks = [int(x) for x in fields[1:]]
        sample["iowait"] = ticks[4]
        sample["steal"] = ticks[7] if len(ticks) > 7 else 0
        sample["total"] = sum(ticks[:8])
        with open("/proc/loadavg") as f:
            sample["loadavg"] = " ".join(f.read().split()[:3])
    except (OSError, ValueError, IndexError):
        pass
    return sample


def host_note(before, after):
    total = max(1, after["total"] - before["total"])
    steal = after["steal"] - before["steal"]
    iowait = after["iowait"] - before["iowait"]
    return (f"# host: steal_ticks={steal} ({100.0 * steal / total:.2f}%) "
            f"iowait_ticks={iowait} ({100.0 * iowait / total:.2f}%) "
            f"loadavg_before={before['loadavg']} "
            f"loadavg_after={after['loadavg']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    start = time.monotonic()
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    binary, fresh = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        command += ["--trace-file",
                    str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    if args.self_check:
        command.append("--corrupt-oracle")

    limit = FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S
    LOG_DIR.mkdir(parents=True, exist_ok=True)
    log_path = (LOG_DIR /
                f"{args.workload}-seed{args.seed}-trace{args.trace}.log")
    before = host_sample()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                command, stdout=subprocess.PIPE, stderr=log, text=True,
                timeout=max(10.0, limit - (time.monotonic() - start)))
        except subprocess.TimeoutExpired:
            fail(f"harness timed out (log: {log_path})")
    after = host_sample()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = log_path.read_text(errors="replace").splitlines()[-5:]
        fail(f"harness exited with code {proc.returncode} (log: {log_path}):\n"
             + "\n".join(tail))
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail(f"harness printed no result: {lines[-1]!r}")

    out_metrics = {}
    for metric in metrics:
        value = raw["metrics"].get(metric["name"])
        if value is None:
            fail(f"harness did not report {metric['name']}")
        out_metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    result = {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": out_metrics}

    for line in lines[:-1]:
        print(line)
    print(host_note(before, after))
    print(json.dumps(result))
    if args.self_check:
        ok = (raw["attempted"] > 0 and raw["failed"] == raw["attempted"]
              and not result["correct"])
        print(f"# self-check: {raw['failed']} of {raw['attempted']} "
              f"operations reported failed against a wrong expectation, "
              f"correct={str(result['correct']).lower()}: "
              f"{'PASS' if ok else 'FAIL'}", file=sys.stderr)
        sys.exit(0 if ok else 1)
    if not result["correct"]:
        fail("wrong answers (correct: false)")


if __name__ == "__main__":
    main()
