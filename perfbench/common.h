// Shared pieces of the perfbench harness: run options, the result record
// every workload fills, the correctness oracle, and small statistics and
// span helpers.
//
// The harness calls only the public entry points of the mmjoin libraries.
// End-to-end numbers are taken with tracing off and timed by the harness's
// own clock; the traced mode (--trace 1) re-runs the same inputs with the
// program's observability on and reports per-layer numbers instead.

#ifndef MMJOIN_PERFBENCH_COMMON_H_
#define MMJOIN_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"
#include "util/timer.h"
#include "workload/relation.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced mode writes its Chrome trace.
  std::string trace_path = "perfbench_trace.json";
  // Self-check: every expected answer is off by one match, so every
  // checked operation must be reported as failed.
  bool corrupt_oracle = false;
};

// What a run reports. `metrics` maps a metric name to its value; run.py
// attaches the unit BENCHMARK.json gives the name.
struct RunReport {
  uint64_t attempted = 0;
  // Operations that returned a non-OK Status, were refused, or returned a
  // wrong answer.
  uint64_t failed = 0;
  // The part of `failed` that returned OK with a wrong answer.
  uint64_t wrong_answers = 0;
  std::map<std::string, double> metrics;
  // False when the oracle itself disagrees with the inputs' make-up.
  bool oracle_ok = true;
  // Free-form lines printed before the result (per-operation detail).
  std::vector<std::string> notes;
};

// Expected answer of one join: the number of matched pairs and the sum of
// build.payload + probe.payload over them (the same order-independent
// checksum every mmjoin algorithm reports).
struct Expected {
  uint64_t matches = 0;
  uint64_t checksum = 0;
};

// Computes the expected answer from the generated tuples with the
// harness's own direct-address map (build key -> payload), independent of
// every join in the program. Build keys must be unique.
Expected ComputeExpected(const mmjoin::workload::Relation& build,
                         const mmjoin::workload::Relation& probe);

// The expected answer every join on (build, probe) is checked against.
// Every benchmark input is a foreign-key join, so the oracle must find one
// match per probe tuple; otherwise `report->oracle_ok` is cleared. With
// options.corrupt_oracle the answer returned is off by one match.
Expected OracleFor(const mmjoin::workload::Relation& build,
                   const mmjoin::workload::Relation& probe,
                   const Options& options, RunReport* report);

// Prints `what` and `status` to stderr and exits with code 2: the harness
// has no recovery path for a failed set-up step.
[[noreturn]] void Die(const char* what, const mmjoin::Status& status);

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// after[name] - before[name] of two MetricsRegistry snapshots; a name
// missing from a snapshot counts as 0.
double CounterDelta(const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after,
                    const std::string& name);

// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);
// Nearest-rank quantile q in [0, 1] of `values` (0 for an empty vector).
double Quantile(std::vector<double> values, double q);

// Harness span around one call into a layer. Records into the program's
// TraceRecorder only while tracing is on, like the program's own ObsScope;
// `name` must have static storage.
class Span {
 public:
  explicit Span(const char* name)
      : scope_(name, mmjoin::obs::SpanKind::kOther) {}

 private:
  mmjoin::obs::ObsScope scope_;
};

}  // namespace perfbench

#endif  // MMJOIN_PERFBENCH_COMMON_H_
