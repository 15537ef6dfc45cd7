#!/usr/bin/env python3
"""Validates the machine-readable observability artifacts.

Five file shapes are understood (auto-detected, or forced with --kind):

  bench       JSON Lines as written by the bench harnesses' --json flag /
              MMJOIN_BENCH_JSON: one `mmjoin.bench.v1` object per repeat plus
              one final `mmjoin.metrics.v1` object.
  metrics     A single `mmjoin.metrics.v1` object (run_join --metrics=PATH or
              obs::MetricsRegistry::WriteJson), optionally carrying a
              `histograms` section with per-name quantile summaries.
  trace       A Chrome trace-event file (run_join --trace=PATH or the bench
              harnesses' --trace / MMJOIN_TRACE): {"traceEvents": [...]} with
              "X" complete events carrying name/cat/pid/tid/ts/dur. Warns
              (does not fail) when metadata reports dropped spans.
  report      A single `mmjoin.report.v1` object (run_join --explain-json).
  exposition  OpenMetrics text (run_join --listen / SIGUSR1 dump): `# TYPE`
              families, `_total` counter samples, histogram families with
              cumulative monotone buckets, terminated by `# EOF`.

Schemas are documented in docs/OBSERVABILITY.md. Exit status 0 when every
given file validates; 1 with a per-file diagnostic otherwise. Stdlib only.
"""

import argparse
import json
import math
import sys

BENCH_REQUIRED = {
    "artifact": str,
    "algorithm": str,
    "repeat": int,
    "build": int,
    "probe": int,
    "threads": int,
    "matches": int,
    "checksum": int,
    "partition_ns": int,
    "build_ns": int,
    "probe_ns": int,
    "total_ns": int,
    "mtps": (int, float),
}

PHASE_REQUIRED = {"threads": int, "total_ns": int, "min_ns": int,
                  "max_ns": int}
PHASE_NAMES = {"partition.pass1", "partition.pass2", "build", "probe",
               "sort", "merge", "materialize"}

TRACE_EVENT_REQUIRED = {"name": str, "cat": str, "ph": str, "pid": int,
                        "tid": int, "ts": (int, float), "dur": (int, float)}

REPORT_REQUIRED = {
    "schema": str,
    "algorithm": str,
    "build": int,
    "probe": int,
    "threads": int,
    "matches": int,
    "checksum": int,
    "key_shape": dict,
    "times": dict,
    "steals": dict,
    "counters": dict,
}

KEY_SHAPE_REQUIRED = {"base": int, "max": int, "shift": int,
                      "stripped_domain": int}

TIMES_REQUIRED = {"shape_ns": int, "partition_ns": int, "build_ns": int,
                  "probe_ns": int, "total_ns": int}

HISTOGRAM_SUMMARY_REQUIRED = {"count": int, "sum": int, "max": int,
                              "p50": int, "p95": int, "p99": int}


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return False


def warn(path, message):
    print(f"{path}: warning: {message}", file=sys.stderr)


def check_fields(path, obj, required, where):
    for key, expected in required.items():
        if key not in obj:
            return fail(path, f"{where}: missing field '{key}'")
        if not isinstance(obj[key], expected) or isinstance(obj[key], bool):
            return fail(path, f"{where}: field '{key}' has type "
                              f"{type(obj[key]).__name__}")
    return True


def check_histogram_summary(path, name, summary, where):
    if not isinstance(summary, dict):
        return fail(path, f"{where}: histogram '{name}' must be an object")
    if not check_fields(path, summary, HISTOGRAM_SUMMARY_REQUIRED,
                        f"{where} histogram '{name}'"):
        return False
    buckets = summary.get("buckets")
    if not isinstance(buckets, list):
        return fail(path, f"{where}: histogram '{name}' missing 'buckets' "
                          "array")
    prev_le = -1
    total = 0
    for i, bucket in enumerate(buckets):
        if (not isinstance(bucket, list) or len(bucket) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           for v in bucket)):
            return fail(path, f"{where}: histogram '{name}' bucket[{i}] must "
                              "be [le, count]")
        le, count = bucket
        if le <= prev_le:
            return fail(path, f"{where}: histogram '{name}' bucket "
                              f"boundaries not ascending at index {i}")
        prev_le = le
        total += count
    if total != summary["count"]:
        return fail(path, f"{where}: histogram '{name}' bucket counts sum to "
                          f"{total}, expected count={summary['count']}")
    if not summary["p50"] <= summary["p95"] <= summary["p99"]:
        return fail(path, f"{where}: histogram '{name}' quantiles not "
                          "monotone")
    return True


def check_metrics_object(path, obj, where):
    if obj.get("schema") != "mmjoin.metrics.v1":
        return fail(path, f"{where}: schema is {obj.get('schema')!r}, "
                          "expected 'mmjoin.metrics.v1'")
    counters = obj.get("counters")
    if not isinstance(counters, dict):
        return fail(path, f"{where}: 'counters' must be an object")
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            return fail(path, f"{where}: counter '{name}' is not an integer")
    # The registry always contributes its own trace counters; an empty or
    # near-empty map means the providers never registered.
    if "trace.spans_recorded" not in counters:
        return fail(path, f"{where}: missing counter 'trace.spans_recorded'")
    histograms = obj.get("histograms")
    if histograms is not None:
        if not isinstance(histograms, dict):
            return fail(path, f"{where}: 'histograms' must be an object")
        for name, summary in histograms.items():
            if not check_histogram_summary(path, name, summary, where):
                return False
    return True


def check_bench_record(path, obj, where):
    if not check_fields(path, obj, BENCH_REQUIRED, where):
        return False
    if obj["total_ns"] <= 0:
        return fail(path, f"{where}: total_ns must be positive")
    phases = obj.get("phases")
    if phases is not None:
        if not isinstance(phases, dict):
            return fail(path, f"{where}: 'phases' must be an object")
        for name, stat in phases.items():
            if name not in PHASE_NAMES:
                return fail(path, f"{where}: unknown phase '{name}'")
            if not check_fields(path, stat, PHASE_REQUIRED,
                                f"{where} phase '{name}'"):
                return False
            if stat["min_ns"] > stat["max_ns"]:
                return fail(path, f"{where} phase '{name}': min_ns > max_ns")
    return True


def check_bench_file(path, text):
    if not text.endswith("\n"):
        return fail(path, "truncated bench JSONL file (no trailing newline)")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return fail(path, "empty bench JSONL file")
    bench_records = 0
    metrics_records = 0
    for i, line in enumerate(lines, start=1):
        where = f"line {i}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            return fail(path, f"{where}: invalid JSON: {e}")
        schema = obj.get("schema")
        if schema == "mmjoin.bench.v1":
            bench_records += 1
            if not check_bench_record(path, obj, where):
                return False
        elif schema == "mmjoin.metrics.v1":
            metrics_records += 1
            if not check_metrics_object(path, obj, where):
                return False
        else:
            return fail(path, f"{where}: unknown schema {schema!r}")
    if bench_records == 0:
        return fail(path, "no mmjoin.bench.v1 records")
    if metrics_records != 1:
        return fail(path, f"expected exactly one mmjoin.metrics.v1 record, "
                          f"found {metrics_records}")
    if lines and json.loads(lines[-1]).get("schema") != "mmjoin.metrics.v1":
        return fail(path, "metrics record must be the final line")
    print(f"{path}: OK ({bench_records} bench record(s) + metrics)")
    return True


def check_metrics_file(path, text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        return fail(path, f"invalid JSON: {e}")
    if not check_metrics_object(path, obj, "metrics"):
        return False
    histograms = obj.get("histograms") or {}
    print(f"{path}: OK ({len(obj['counters'])} counter(s), "
          f"{len(histograms)} histogram(s))")
    return True


def check_trace_file(path, text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        return fail(path, f"invalid JSON: {e}")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return fail(path, "'traceEvents' must be an array")
    if not events:
        return fail(path, "trace contains no events")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not check_fields(path, event, TRACE_EVENT_REQUIRED, where):
            return False
        if event["ph"] != "X":
            return fail(path, f"{where}: expected complete event 'X', "
                              f"got {event['ph']!r}")
        if event["dur"] < 0:
            return fail(path, f"{where}: negative duration")
    dropped = 0
    metadata = obj.get("metadata")
    if isinstance(metadata, dict):
        dropped = metadata.get("dropped_spans", 0)
        if dropped:
            warn(path, f"trace recorder dropped {dropped} span(s); the ring "
                       "filled -- raise its capacity or shorten the run")
    print(f"{path}: OK ({len(events)} span(s), {dropped} dropped)")
    return True


def check_report_file(path, text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        return fail(path, f"invalid JSON: {e}")
    if not isinstance(obj, dict):
        return fail(path, "report must be a JSON object")
    if obj.get("schema") != "mmjoin.report.v1":
        return fail(path, f"schema is {obj.get('schema')!r}, expected "
                          "'mmjoin.report.v1'")
    if not check_fields(path, obj, REPORT_REQUIRED, "report"):
        return False
    if not check_fields(path, obj["key_shape"], KEY_SHAPE_REQUIRED,
                        "report key_shape"):
        return False
    if not check_fields(path, obj["times"], TIMES_REQUIRED, "report times"):
        return False
    steals = obj["steals"]
    for key in ("nodes", "total", "matrix"):
        if key not in steals:
            return fail(path, f"report steals: missing field '{key}'")
    nodes = steals["nodes"]
    matrix = steals["matrix"]
    if not isinstance(matrix, list) or len(matrix) != nodes * nodes:
        return fail(path, f"report steals: matrix has {len(matrix)} cells, "
                          f"expected nodes^2 = {nodes * nodes}")
    if sum(matrix) != steals["total"]:
        return fail(path, f"report steals: matrix sums to {sum(matrix)}, "
                          f"total says {steals['total']}")
    phases = obj.get("phases")
    if phases is not None:
        if not isinstance(phases, dict):
            return fail(path, "report: 'phases' must be an object")
        for name, stat in phases.items():
            if name not in PHASE_NAMES:
                return fail(path, f"report: unknown phase '{name}'")
            if not check_fields(path, stat, PHASE_REQUIRED,
                                f"report phase '{name}'"):
                return False
    for name, delta in obj["counters"].items():
        if not isinstance(delta, int) or isinstance(delta, bool):
            return fail(path, f"report: counter delta '{name}' is not an "
                              "integer")
    print(f"{path}: OK (report for {obj['algorithm']}, "
          f"{len(obj.get('phases') or {})} phase(s))")
    return True


def check_exposition_file(path, text):
    if not text.endswith("\n"):
        return fail(path, "truncated exposition (no trailing newline)")
    lines = text.splitlines()
    if not lines:
        return fail(path, "empty exposition")
    if lines[-1] != "# EOF":
        return fail(path, "missing '# EOF' terminator (truncated scrape?)")
    families = {}  # name -> type
    histogram_state = {}  # family -> {"prev_le": float, "buckets": int,
    #                                  "inf": int or None, "count": int or None}
    for i, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in ("counter",
                                                       "histogram"):
                    return fail(path, f"line {i}: malformed TYPE line")
                families[parts[2]] = parts[3]
                if parts[3] == "histogram":
                    histogram_state[parts[2]] = {"prev_le": -math.inf,
                                                 "prev_count": -1,
                                                 "buckets": 0, "inf": None,
                                                 "count": None}
            continue
        parts = line.rsplit(" ", 1)
        if len(parts) != 2:
            return fail(path, f"line {i}: malformed sample")
        sample, value_text = parts
        try:
            value = int(value_text)
        except ValueError:
            return fail(path, f"line {i}: sample value is not an integer")
        if value < 0:
            return fail(path, f"line {i}: negative sample value")
        name = sample.split("{", 1)[0]
        matched = False
        for family, kind in families.items():
            if kind == "counter" and name == family + "_total":
                matched = True
                break
            if kind == "histogram" and name in (family + "_bucket",
                                                family + "_sum",
                                                family + "_count"):
                matched = True
                state = histogram_state[family]
                if name == family + "_bucket":
                    le_text = sample.split('le="', 1)[1].split('"', 1)[0]
                    le = (math.inf if le_text == "+Inf"
                          else float(le_text))
                    if le <= state["prev_le"]:
                        return fail(path, f"line {i}: bucket boundaries not "
                                          "ascending")
                    if value < state["prev_count"]:
                        return fail(path, f"line {i}: cumulative bucket "
                                          "counts not monotone")
                    state["prev_le"] = le
                    state["prev_count"] = value
                    state["buckets"] += 1
                    if le == math.inf:
                        state["inf"] = value
                elif name == family + "_count":
                    state["count"] = value
                break
        if not matched:
            return fail(path, f"line {i}: sample '{name}' has no TYPE line "
                              "or a malformed suffix")
    for family, state in histogram_state.items():
        if state["buckets"] == 0:
            continue  # empty histogram family: no samples were rendered
        if state["inf"] is None:
            return fail(path, f"histogram '{family}' has no '+Inf' bucket")
        if state["count"] is None:
            return fail(path, f"histogram '{family}' has no _count sample")
        if state["inf"] != state["count"]:
            return fail(path, f"histogram '{family}': +Inf bucket "
                              f"({state['inf']}) != _count ({state['count']})")
    counters = sum(1 for kind in families.values() if kind == "counter")
    histograms = sum(1 for kind in families.values() if kind == "histogram")
    if not families:
        return fail(path, "exposition declares no metric families")
    print(f"{path}: OK ({counters} counter famil(ies), "
          f"{histograms} histogram famil(ies))")
    return True


def detect_kind(text):
    stripped = text.lstrip()
    if stripped.startswith("# TYPE") or text.rstrip().endswith("# EOF"):
        return "exposition"
    if "\n" in text.strip() and stripped.startswith("{"):
        first_line = text.strip().splitlines()[0]
        try:
            json.loads(first_line)
            return "bench"  # parseable first line of several -> JSON Lines
        except json.JSONDecodeError:
            pass
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return "bench"  # let the line-by-line checker produce the diagnostic
    if isinstance(obj, dict) and "traceEvents" in obj:
        return "trace"
    if isinstance(obj, dict) and obj.get("schema") == "mmjoin.report.v1":
        return "report"
    return "metrics"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+")
    parser.add_argument("--kind", choices=["auto", "bench", "metrics",
                                           "trace", "report", "exposition"],
                        default="auto")
    args = parser.parse_args()

    ok = True
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            ok = fail(path, str(e)) and ok
            continue
        if not text.strip():
            ok = fail(path, "file is empty") and ok
            continue
        kind = args.kind if args.kind != "auto" else detect_kind(text)
        checker = {"bench": check_bench_file, "metrics": check_metrics_file,
                   "trace": check_trace_file, "report": check_report_file,
                   "exposition": check_exposition_file}[kind]
        ok = checker(path, text) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
