// Closed-loop clients of a JoinService: each client submits a job, waits
// for it, checks it against the oracle, and submits the next.

#ifndef MMJOIN_PERFBENCH_SERVICE_LOOP_H_
#define MMJOIN_PERFBENCH_SERVICE_LOOP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "service/join_service.h"

namespace perfbench {

// Service shape: 2 lanes x 2 threads, 4 clients in 2 tenants.
inline constexpr int kServiceLanes = 2;
inline constexpr int kServiceThreadsPerLane = 2;

// One timed job as its client saw it.
struct JobSample {
  double latency_ms = 0;  // submit -> Wait returned
  double queue_wait_ms = 0;
  double run_ms = 0;
  int lane = -1;
  int64_t end_ns = 0;  // when Wait returned (steady clock)
};

// Timed jobs of one or more timed segments of the closed loop.
struct ServiceWindow {
  std::vector<JobSample> samples;  // successful timed jobs
  // [start, deadline) of each segment; clients start no cycle after its
  // deadline.
  std::vector<std::pair<int64_t, int64_t>> segments;
  double wall_s = 0;  // summed length of the segments, tails included

  void Append(const ServiceWindow& other);
};

// Runs the closed loop on `inputs`' job pools: `warmup_cycles` untimed
// cycles per client, then timed cycles until `seconds` have passed (none
// when `seconds` is 0). A client's jobs come in cycles of 16 and it stops
// only at a cycle boundary.
// Every job counts in report->attempted; a refused submission, a failed
// job or a wrong answer counts in report->failed.
ServiceWindow RunServiceLoop(mmjoin::service::JoinService* service,
                             const WorkloadInputs& inputs, int warmup_cycles,
                             double seconds, RunReport* report);

}  // namespace perfbench

#endif  // MMJOIN_PERFBENCH_SERVICE_LOOP_H_
