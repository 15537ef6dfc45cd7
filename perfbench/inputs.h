// The generated inputs of each workload: one input pair for the
// 13-algorithm join rounds and the pools of job inputs for the service's
// closed loop. Every pair carries the oracle's expected answer.

#ifndef MMJOIN_PERFBENCH_INPUTS_H_
#define MMJOIN_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "numa/system.h"
#include "workload/relation.h"

namespace perfbench {

struct InputPair {
  mmjoin::workload::Relation build;
  mmjoin::workload::Relation probe;
  Expected expected;
};

struct WorkloadInputs {
  // Input of the 13-algorithm join rounds.
  InputPair join;
  // Job pools of the service loop. A job cycle takes three jobs in four
  // from small_jobs and one in four from skewed_jobs, or every job from
  // small_jobs when skewed_jobs is empty.
  std::vector<InputPair> small_jobs;
  std::vector<InputPair> skewed_jobs;
  uint64_t tuples = 0;  // generated tuples, for workload.gen_mtps
};

bool IsWorkload(const std::string& name);

// Generates the inputs of `workload` from `seed` (same seed, same
// inputs). Oracles are not computed here: that is not set-up cost.
WorkloadInputs GenerateInputs(const std::string& workload,
                              mmjoin::numa::NumaSystem* system, uint64_t seed);

// Fills every pair's expected answer (see OracleFor).
void ComputeOracles(WorkloadInputs* inputs, const Options& options,
                    RunReport* report);

}  // namespace perfbench

#endif  // MMJOIN_PERFBENCH_INPUTS_H_
