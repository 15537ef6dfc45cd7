// Round-robin runs of the 13 algorithms through core::Joiner::Run on one
// input pair, each call timed by the harness and checked against the
// oracle.

#ifndef MMJOIN_PERFBENCH_JOIN_ROUNDS_H_
#define MMJOIN_PERFBENCH_JOIN_ROUNDS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/joiner.h"
#include "join/join_defs.h"
#include "workload/relation.h"

namespace perfbench {

class JoinRounds {
 public:
  // All borrowed; they must outlive this object.
  JoinRounds(mmjoin::core::Joiner* joiner,
             const mmjoin::workload::Relation& build,
             const mmjoin::workload::Relation& probe,
             const Expected& expected);

  // Runs `algorithm` once without keeping its time; the call is checked
  // and counted in `report` like any other.
  void WarmUp(mmjoin::join::Algorithm algorithm, RunReport* report);

  // Runs every algorithm, starting at algorithm `round` mod 13, repeating
  // each until its calls took 0.3 s (at least once), and counts each call
  // in `report`. With `traced`, observability must be on and the per-layer
  // deltas around each call are kept as well.
  void RunRound(int round, bool traced, RunReport* report);

  // Median wall time in ns of the algorithm's successful calls in untraced
  // (traced = false) or traced rounds; 0 when there were none.
  double MedianWallNs(std::size_t algorithm, bool traced) const;
  // Sum over the algorithms of MedianWallNs.
  double TotalMedianWallNs(bool traced) const;

  // One note per algorithm listing its wall times in ms, in call order.
  void AddSampleNotes(std::vector<std::string>* notes) const;

  // join.<ALG>.{partition,build,probe}_ms and thread.<ALG>.barrier_wait_ms
  // medians over the traced calls.
  void AddPhaseMetrics(std::map<std::string, double>* metrics) const;
  // Per-join means of the executor, scheduler and allocator deltas over
  // the traced calls: thread.dispatches_per_join, thread.idle_ms,
  // join.tasks_{seeded,stolen}, join.skew_slices, mem.mmap_per_join, and
  // the largest mem.peak_mb.
  void AddAggregateMetrics(std::map<std::string, double>* metrics) const;

 private:
  // Runs and checks one call; returns its result when it succeeded with
  // the expected answer, counting it in `report` either way.
  std::optional<mmjoin::join::JoinResult> RunChecked(
      mmjoin::join::Algorithm algorithm, RunReport* report);

  // One checked, timed call of algorithm index `a`; returns its wall time.
  int64_t RunOne(std::size_t a, bool traced, RunReport* report);

  struct PerAlgorithm {
    std::vector<double> wall_ns[2];  // [traced]
    std::vector<double> partition_ms, build_ms, probe_ms, barrier_wait_ms;
  };

  mmjoin::core::Joiner* joiner_;
  const mmjoin::workload::Relation& build_;
  const mmjoin::workload::Relation& probe_;
  const Expected expected_;
  std::vector<PerAlgorithm> per_algorithm_;
  uint64_t traced_joins_ = 0;
  double dispatches_ = 0, idle_ms_ = 0, mmaps_ = 0, peak_mb_ = 0;
  std::map<std::string, double> counter_sums_;
};

}  // namespace perfbench

#endif  // MMJOIN_PERFBENCH_JOIN_ROUNDS_H_
