// perfbench driver: runs one workload and prints its result as the last
// line of standard output, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {name: value}}
//
// "correct" is false when any operation returned a wrong answer (or the
// oracle disagrees with the inputs' make-up); "failed" counts wrong
// answers, non-OK Statuses and refused submissions alike. Values are raw
// numbers; run.py attaches the units from BENCHMARK.json.
// Lines before it start with '#' and carry per-operation detail.
//
// Usage: perfbench --workload fk-dram|fk-strided --seed N
//                  --seconds S [--trace 0|1] [--trace-file PATH]
//                  [--corrupt-oracle]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "inputs.h"
#include "obs/trace.h"
#include "workload.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload fk-dram|fk-strided "
               "--seed N --seconds S [--trace 0|1] [--trace-file PATH] "
               "[--corrupt-oracle]\n",
               message);
  std::exit(2);
}

perfbench::Options ParseArgs(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-oracle") {
      options.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (!(options.seconds > 0)) Usage("--seconds must be positive");
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-file") {
      options.trace_path = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + arg).c_str());
    }
  }
  if (!perfbench::IsWorkload(options.workload)) {
    Usage("--workload must be fk-dram or fk-strided");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = ParseArgs(argc, argv);
  const perfbench::RunReport report = perfbench::RunWorkload(options);

  if (options.trace) {
    const mmjoin::Status written =
        mmjoin::obs::TraceRecorder::Get().WriteChromeTrace(options.trace_path);
    if (!written.ok()) perfbench::Die("WriteChromeTrace", written);
    std::printf("# trace %s (%llu spans, %llu dropped)\n",
                options.trace_path.c_str(),
                static_cast<unsigned long long>(
                    mmjoin::obs::TraceRecorder::Get().recorded_spans()),
                static_cast<unsigned long long>(
                    mmjoin::obs::TraceRecorder::Get().dropped_spans()));
  }
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.oracle_ok && report.wrong_answers == 0 ? "true"
                                                             : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const char* separator = "";
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s\"%s\": %.17g", separator, name.c_str(), value);
    separator = ", ";
  }
  std::printf("}}\n");
  return 0;
}
