#include "join_rounds.h"

#include <algorithm>
#include <cstdio>

#include "join/join_algorithm.h"
#include "mem/aligned_alloc.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

// Within a round every algorithm is called until its calls took at least
// kMinRoundNs (at most kMaxCallsPerRound calls), so a 20 ms join gets as
// many samples per round as fit in the time a 300 ms join takes once.
constexpr int64_t kMinRoundNs = 300'000'000;
constexpr int kMaxCallsPerRound = 32;

constexpr uint64_t kFailureNotes = 16;

constexpr const char* kCounters[] = {"join.tasks_seeded", "join.tasks_stolen",
                                     "join.skew_slices"};

}  // namespace

JoinRounds::JoinRounds(mmjoin::core::Joiner* joiner,
                       const mmjoin::workload::Relation& build,
                       const mmjoin::workload::Relation& probe,
                       const Expected& expected)
    : joiner_(joiner),
      build_(build),
      probe_(probe),
      expected_(expected),
      per_algorithm_(mmjoin::join::AllAlgorithms().size()) {}

std::optional<mmjoin::join::JoinResult> JoinRounds::RunChecked(
    mmjoin::join::Algorithm algorithm, RunReport* report) {
  auto result = [&] {
    Span span("perfbench.core.Joiner::Run");
    return joiner_->Run(algorithm, build_, probe_);
  }();
  ++report->attempted;
  if (result.ok() && result->matches == expected_.matches &&
      result->checksum == expected_.checksum) {
    return std::move(*result);
  }
  if (result.ok()) ++report->wrong_answers;
  // Only the first failures are described; all are counted.
  if (++report->failed > kFailureNotes) return std::nullopt;
  report->notes.push_back(
      std::string("failed ") + mmjoin::join::NameOf(algorithm) + ": " +
      (result.ok() ? "matches " + std::to_string(result->matches) +
                         " checksum " + std::to_string(result->checksum)
                   : result.status().ToString()));
  return std::nullopt;
}

void JoinRounds::WarmUp(mmjoin::join::Algorithm algorithm,
                        RunReport* report) {
  (void)RunChecked(algorithm, report);
}

void JoinRounds::RunRound(int round, bool traced, RunReport* report) {
  const std::size_t n = per_algorithm_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t a = (k + static_cast<std::size_t>(round)) % n;
    int64_t spent_ns = 0;
    for (int call = 0; call < kMaxCallsPerRound && spent_ns < kMinRoundNs;
         ++call) {
      spent_ns += RunOne(a, traced, report);
    }
  }
}

int64_t JoinRounds::RunOne(std::size_t a, bool traced, RunReport* report) {
  const mmjoin::join::Algorithm algorithm = mmjoin::join::AllAlgorithms()[a];
  mmjoin::thread::Executor* executor = joiner_->executor();
  const auto stats_before = executor->stats();
  const auto alloc_before = mmjoin::mem::GetAllocStats();
  std::map<std::string, uint64_t> counters_before;
  if (traced) {
    counters_before = mmjoin::obs::MetricsRegistry::Get().SnapshotMap();
    mmjoin::mem::ResetPeakResident();
  }
  const int64_t start = mmjoin::NowNanos();
  const auto result = RunChecked(algorithm, report);
  const int64_t wall_ns = mmjoin::NowNanos() - start;
  if (!result.has_value()) return wall_ns;
  PerAlgorithm& samples = per_algorithm_[a];
  samples.wall_ns[traced].push_back(static_cast<double>(wall_ns));
  if (!traced) return wall_ns;

  const auto stats_after = executor->stats();
  const auto alloc_after = mmjoin::mem::GetAllocStats();
  const auto counters_after = mmjoin::obs::MetricsRegistry::Get().SnapshotMap();
  samples.partition_ms.push_back(Millis(result->times.partition_ns));
  samples.build_ms.push_back(Millis(result->times.build_ns));
  samples.probe_ms.push_back(Millis(result->times.probe_ns));
  samples.barrier_wait_ms.push_back(Millis(static_cast<int64_t>(
      stats_after.barrier_wait_ns - stats_before.barrier_wait_ns)));
  ++traced_joins_;
  dispatches_ +=
      static_cast<double>(stats_after.dispatches - stats_before.dispatches);
  idle_ms_ +=
      Millis(static_cast<int64_t>(stats_after.idle_ns - stats_before.idle_ns));
  mmaps_ += static_cast<double>(alloc_after.mmap_allocations -
                                alloc_before.mmap_allocations);
  peak_mb_ = std::max(
      peak_mb_,
      static_cast<double>(alloc_after.peak_bytes - alloc_before.current_bytes) /
          (1 << 20));
  for (const char* name : kCounters) {
    counter_sums_[name] += CounterDelta(counters_before, counters_after, name);
  }
  return wall_ns;
}

double JoinRounds::MedianWallNs(std::size_t algorithm, bool traced) const {
  return Median(per_algorithm_[algorithm].wall_ns[traced]);
}

double JoinRounds::TotalMedianWallNs(bool traced) const {
  double total = 0;
  for (std::size_t a = 0; a < per_algorithm_.size(); ++a) {
    total += MedianWallNs(a, traced);
  }
  return total;
}

void JoinRounds::AddSampleNotes(std::vector<std::string>* notes) const {
  for (std::size_t a = 0; a < per_algorithm_.size(); ++a) {
    std::string note = std::string("join ") +
                       mmjoin::join::NameOf(mmjoin::join::AllAlgorithms()[a]) +
                       " ms:";
    for (int traced = 0; traced < 2; ++traced) {
      for (double ns : per_algorithm_[a].wall_ns[traced]) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %.1f%s", ns * 1e-6,
                      traced ? "t" : "");
        note += buf;
      }
    }
    notes->push_back(note);
  }
}

void JoinRounds::AddPhaseMetrics(
    std::map<std::string, double>* metrics) const {
  for (std::size_t a = 0; a < per_algorithm_.size(); ++a) {
    const std::string name =
        mmjoin::join::NameOf(mmjoin::join::AllAlgorithms()[a]);
    const PerAlgorithm& s = per_algorithm_[a];
    (*metrics)["join." + name + ".partition_ms"] = Median(s.partition_ms);
    (*metrics)["join." + name + ".build_ms"] = Median(s.build_ms);
    (*metrics)["join." + name + ".probe_ms"] = Median(s.probe_ms);
    (*metrics)["thread." + name + ".barrier_wait_ms"] =
        Median(s.barrier_wait_ms);
  }
}

void JoinRounds::AddAggregateMetrics(
    std::map<std::string, double>* metrics) const {
  const double joins = std::max<double>(1.0, traced_joins_);
  (*metrics)["thread.dispatches_per_join"] = dispatches_ / joins;
  (*metrics)["thread.idle_ms"] = idle_ms_ / joins;
  for (const char* name : kCounters) {
    const auto it = counter_sums_.find(name);
    (*metrics)[name] = it == counter_sums_.end() ? 0.0 : it->second / joins;
  }
  (*metrics)["mem.peak_mb"] = peak_mb_;
  (*metrics)["mem.mmap_per_join"] = mmaps_ / joins;
}

}  // namespace perfbench
